// serve_poisson: two tenants (tiny-bert, tiny-cnn) under open-loop
// Poisson arrivals at load 0.6, calibrated the way drift_serve does,
// with a fresh precision mix per request and batches of up to 8.  The
// loop is simulated, so on the host it runs as one batch job: ~38k
// small accelerator runs instead of paper_sim's few multi-GB streams.
#include <map>
#include <memory>

#include "bench.hpp"
#include "core/scheduler.hpp"
#include "serve/simulator.hpp"
#include "util/thread_pool.hpp"

namespace e2e {
namespace {

constexpr std::int64_t kRequestsPerTenant = 20000;
constexpr double kLoad = 0.6;

/// drift_serve's configuration for --workloads=tiny-bert,tiny-cnn
/// --requests=20000 --seed=<seed>, gaps calibrated to kLoad.
serve::ServeConfig make_config(std::uint64_t seed, util::ThreadPool& pool) {
  serve::ServeConfig config;
  const std::vector<std::string> names = {"tiny-bert", "tiny-cnn"};
  for (std::size_t i = 0; i < names.size(); ++i) {
    serve::TenantSpec tenant;
    tenant.name = names[i] + "#" + std::to_string(i);
    tenant.workload = serve::serving_workload(names[i]);
    tenant.num_requests = kRequestsPerTenant;
    tenant.seed = seed + i;
    config.tenants.push_back(tenant);
  }
  serve::ServeConfig probe_config = config;
  for (auto& tenant : probe_config.tenants) {
    tenant.num_requests = 1;
    tenant.unique_mix_per_request = false;
  }
  serve::Simulator probe(probe_config, pool);
  const double tenants = static_cast<double>(config.tenants.size());
  for (std::size_t i = 0; i < config.tenants.size(); ++i) {
    const double service = static_cast<double>(
        probe.executor().execute_canonical(static_cast<int>(i)).cycles);
    config.tenants[i].arrival.mean_interarrival_cycles =
        service * tenants / kLoad;
  }
  return config;
}

bool same_outputs(const serve::ServeResult& a, const serve::ServeResult& b) {
  if (a.requests.size() != b.requests.size() || a.batches != b.batches ||
      a.total_energy_pj != b.total_energy_pj) {
    return false;
  }
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    const auto &x = a.requests[i], &y = b.requests[i];
    if (x.arrival != y.arrival || x.start != y.start ||
        x.completion != y.completion || x.batch_id != y.batch_id) {
      return false;
    }
  }
  return true;
}

/// MAC-weighted Drift 4-bit activation share over every request's mix.
double act_low_fraction(serve::Simulator& sim,
                        const serve::ServeResult& result) {
  auto& executor = sim.executor();
  double macs = 0.0, low = 0.0;
  for (const auto& rec : result.requests) {
    const double m =
        static_cast<double>(executor.tenant_spec(rec.tenant).total_macs());
    macs += m;
    low += m * nn::overall_act_low_fraction(
                   executor.request_mixes(rec.tenant, rec.local));
  }
  return low / macs;
}

}  // namespace

Report serve_poisson(const Options& options) {
  Report report;
  util::ThreadPool& pool = util::ThreadPool::instance();
  serve::ServeConfig built;
  SetupTimer setup([&] { built = make_config(options.seed, pool); });
  // The passes read a copy: `setup` rebuilds the original between
  // their calls.
  const serve::ServeConfig config = built;

  std::unique_ptr<serve::Simulator> sim;
  serve::ServeResult result;  // the first pass's outputs
  const auto timed_pass = [&](int i) {
    sim.reset();  // free the previous pass outside the timed region
    serve::ServeResult out;
    setup.tick();
    double t = time_s(
        [&] { sim = std::make_unique<serve::Simulator>(config, pool); });
    setup.tick();
    t += time_s([&] { out = sim->run(); });
    if (i == 0) {
      result = std::move(out);
    } else {
      report.check(same_outputs(result, out), "passes differ");
    }
    return t;
  };
  const double wall = run_passes(options.seconds, setup, timed_pass, report);
  const std::int64_t requests =
      kRequestsPerTenant * static_cast<std::int64_t>(config.tenants.size());
  report.check(static_cast<std::int64_t>(result.requests.size()) == requests &&
                   result.overall.count == requests,
               "every request is served once");
  bool ordered = true;
  for (const auto& rec : result.requests) {
    ordered =
        ordered && rec.arrival <= rec.start && rec.start <= rec.completion;
  }
  report.check(ordered, "arrival <= start <= completion");

  double macs = 0.0;
  for (const auto& rec : result.requests) {
    macs += static_cast<double>(
        sim->executor().tenant_spec(rec.tenant).total_macs());
  }
  const double clock_hz = config.exec.hw.energy.clock_hz;
  report.detail("serve_p99_us",
                1e6 * static_cast<double>(result.overall.p99_cycles) / clock_hz,
                "us");
  report.detail("serve_req_per_s", static_cast<double>(requests) / wall, "1/s");

  if (!options.trace) {
    report.metric("wall_s", wall);
    report.metric("setup_s", setup.median_s());
    report.metric("peak_rss_mb", peak_rss_mb());
    report.metric("gmac_per_s", macs / 1e9 / wall);
    report.metric("act_low_fraction", act_low_fraction(*sim, result));
    return report;
  }

  // Traced pass: precompute (the Simulator constructor) and the event
  // loop timed apart.
  serve::ServeResult traced;
  sim.reset();
  const double precompute_s = time_s(
      [&] { sim = std::make_unique<serve::Simulator>(config, pool); });
  const double loop_s = time_s([&] { traced = sim->run(); });
  report.check(same_outputs(result, traced), "traced pass differs");
  serve::BatchExecutor& executor = sim->executor();

  // Precompute is all mix building: every request's activation rows,
  // plus each tenant's canonical rows and weight channels.
  std::int64_t subtensors = 0;
  for (std::size_t t = 0; t < config.tenants.size(); ++t) {
    const int tenant = static_cast<int>(t);
    for (const auto& layer : executor.tenant_spec(tenant).layers) {
      subtensors += layer.dims.M + layer.dims.N;
    }
    for (std::int64_t local = 0; local < kRequestsPerTenant; ++local) {
      for (const auto& mix : executor.request_mixes(tenant, local)) {
        subtensors += static_cast<std::int64_t>(mix.row_is_low.size());
      }
    }
  }

  // Replay every batch: re-execute it for its per-layer record, then
  // replay the scheduler and DRAM calls on the packed layer work, which
  // is the member requests' class counts summed.
  std::map<std::int64_t, std::vector<const serve::RequestRecord*>> batches;
  for (const auto& rec : traced.requests) batches[rec.batch_id].push_back(&rec);
  const accel::AccelConfig& hw = config.exec.hw;
  DramReplay dram;
  std::vector<core::LayerWork> packed;
  bool service_exact = true;
  for (const auto& [id, members] : batches) {
    const int tenant = members.front()->tenant;
    std::vector<std::int64_t> locals;
    for (const auto* rec : members) locals.push_back(rec->local);
    const serve::BatchResult executed = executor.execute(tenant, locals);
    service_exact =
        service_exact && executed.cycles == members.front()->service();

    const nn::WorkloadSpec& spec = executor.tenant_spec(tenant);
    std::vector<accel::LayerTraffic> traffic;
    for (std::size_t l = 0; l < spec.layers.size(); ++l) {
      core::LayerWork work = executor.request_mixes(tenant, locals[0])[l].work;
      core::GemmDims dims = spec.layers[l].dims;
      work.m_high = work.m_low = dims.M = 0;
      for (std::int64_t local : locals) {
        const auto& mix = executor.request_mixes(tenant, local)[l];
        work.m_high += mix.work.m_high;
        work.m_low += mix.work.m_low;
        dims.M += mix.layer.dims.M;
      }
      packed.push_back(work);
      traffic.push_back(drift_traffic(dims, work, hw));
    }
    dram.replay(traffic, spec, executed.run, hw, report);
  }
  report.check(service_exact, "re-executed batches match served times");
  const double sched_s = time_s([&] {
    for (const auto& work : packed) core::schedule_greedy(work, hw.array);
  });

  // Precompute again at one worker thread.
  pool.resize(1);
  std::unique_ptr<serve::Simulator> serial;
  const double serial_s = time_s(
      [&] { serial = std::make_unique<serve::Simulator>(config, pool); });
  pool.resize(kPoolThreads);
  report.check(act_low_fraction(*serial, traced) ==
                   act_low_fraction(*sim, traced),
               "1-thread precompute differs");

  const double n_batches = static_cast<double>(traced.batches);
  report.metric("dram.s", dram.seconds);
  report.metric("dram.bursts", static_cast<double>(dram.bursts));
  report.metric("dram.row_hit_rate", static_cast<double>(dram.row_hits) /
                                         static_cast<double>(dram.bursts));
  report.metric("dram.ns_per_burst",
                1e9 * dram.seconds / static_cast<double>(dram.bursts));
  report.metric("mix.s", precompute_s);
  report.metric("mix.subtensors", static_cast<double>(subtensors));
  report.metric("mix.ns_per_subtensor",
                1e9 * precompute_s / static_cast<double>(subtensors));
  report.metric("sched.calls", static_cast<double>(packed.size()));
  report.metric("sched.s", sched_s);
  report.metric("pool.threads", kPoolThreads);
  report.metric("pool.speedup_vs_1t", serial_s / precompute_s);
  report.metric("serve.precompute_s", precompute_s);
  report.metric("serve.loop_s", loop_s);
  report.metric("serve.batches", n_batches);
  report.metric("serve.mean_batch", static_cast<double>(requests) / n_batches);
  report.metric("serve.us_per_batch", 1e6 * loop_s / n_batches);
  report.metric("serve.utilization", traced.utilization());
  report.metric("trace.overhead_s", precompute_s + loop_s - wall);
  return report;
}

}  // namespace e2e
