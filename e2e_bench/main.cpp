// drift_e2e_bench — runs one end-to-end workload and prints its result
// as one JSON line (run.py turns it into the benchmark's result line and
// adds the checkout's git sha to the run metadata).
//
//   drift_e2e_bench --workload=paper_sim --seed=17 --seconds=30 --trace=0
//                   --root=<repository checkout>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"
#include "nn/simd/kernel_dispatch.hpp"
#include "util/args.hpp"
#include "util/thread_pool.hpp"

namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

/// Full-precision number; non-finite values become null, which run.py
/// rejects.
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string object(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i) out += ", ";
    out += quoted(kv[i].first) + ": " + kv[i].second;
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const drift::Args args = drift::Args::parse(argc, argv);
  e2e::Options options;
  options.workload = args.get_string("workload", "");
  options.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(e2e::kDefaultSeed)));
  options.seconds = args.get_double("seconds", 0.0);
  options.trace = args.get_int("trace", 0) != 0;
  options.root = args.get_string("root", ".");
  for (const std::string& flag : args.unqueried()) {
    std::fprintf(stderr, "unknown flag --%s\n", flag.c_str());
    return 2;
  }

  const std::map<std::string, e2e::Report (*)(const e2e::Options&)> workloads =
      {{"paper_sim", e2e::paper_sim},
       {"proxy_forward", e2e::proxy_forward},
       {"serve_poisson", e2e::serve_poisson}};
  const auto workload = workloads.find(options.workload);
  if (workload == workloads.end()) {
    std::fprintf(stderr,
                 "--workload must be paper_sim, proxy_forward or "
                 "serve_poisson\n");
    return 2;
  }
  if (!(options.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be given and positive\n");
    return 2;
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "warning: unoptimised build (%s); host times are not "
               "representative\n",
               DRIFT_E2E_BUILD_TYPE);
#endif
  drift::util::ThreadPool::instance().resize(e2e::kPoolThreads);

  const e2e::Report report = workload->second(options);

  std::vector<std::pair<std::string, std::string>> metrics, details;
  for (const auto& [name, value] : report.metrics) {
    metrics.push_back({name, number(value)});
  }
  for (const auto& d : report.details) {
    details.push_back({d.name, object({{"value", number(d.value)},
                                       {"unit", quoted(d.unit)}})});
  }
  std::string failure_list = "[";
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    failure_list += (i ? ", " : "") + quoted(report.failures[i]);
  }
  failure_list += "]";
  const std::string meta = object({
      {"workload", quoted(options.workload)},
      {"seed", std::to_string(options.seed)},
      {"trace", options.trace ? "1" : "0"},
      {"pool_threads",
       std::to_string(drift::util::ThreadPool::instance().num_threads())},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"simd_backend", quoted(drift::nn::simd::active().name)},
      {"build_type", quoted(DRIFT_E2E_BUILD_TYPE)},
#ifdef __OPTIMIZE__
      {"optimized", "true"},
#else
      {"optimized", "false"},
#endif
  });
  std::printf("%s\n",
              object({{"checks", std::to_string(report.checks)},
                      {"failed", std::to_string(report.failed)},
                      {"failures", failure_list},
                      {"metrics", object(metrics)},
                      {"details", object(details)},
                      {"meta", meta}})
                  .c_str());
  return 0;
}
