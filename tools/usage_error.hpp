// The command-line tools' usage error for a flag value outside its
// choices.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

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

}  // namespace drift::cli
