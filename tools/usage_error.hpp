// The command-line tools' usage errors: a flag value outside its
// choices, and a flag the tool does not know.  Both exit 2.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>

#include "util/args.hpp"

namespace drift::cli {

/// Prints "PROGRAM: unknown --FLAG 'VALUE' (CHOICES)" to stderr and
/// exits 2, the tools' usage-error code.
[[noreturn]] inline void unknown_choice(const std::string& program,
                                        const std::string& flag,
                                        const std::string& value,
                                        const std::string& choices) {
  std::fprintf(stderr, "%s: unknown --%s '%s' (%s)\n", program.c_str(),
               flag.c_str(), value.c_str(), choices.c_str());
  std::exit(2);
}

/// Prints "PROGRAM: unknown flag --NAME" to stderr for every flag of
/// `args` that was never queried and is not in `read_later` (flags a
/// later reader takes), and exits 2 if there was any.  Call after the
/// last lookup, so a mistyped or renamed flag is an error instead of a
/// silent default.
inline void reject_unknown_flags(
    const std::string& program, const Args& args,
    std::initializer_list<std::string> read_later = {}) {
  bool unknown = false;
  for (const std::string& flag : args.unqueried()) {
    if (std::find(read_later.begin(), read_later.end(), flag) !=
        read_later.end()) {
      continue;
    }
    std::fprintf(stderr, "%s: unknown flag --%s\n", program.c_str(),
                 flag.c_str());
    unknown = true;
  }
  if (unknown) std::exit(2);
}

}  // namespace drift::cli
