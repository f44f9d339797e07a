// serve_rerand: 16 tenants of the §V-A server on 4 cores under open-loop
// Poisson arrivals below saturation, with MARDU-style incremental
// re-randomization (epoch tags) firing every 2 slices of 500
// instructions — the serve point of bench/rerand.cpp. Thousands of tiny
// rounds: the kernel round loop, serve::ServeDriver and the
// re-randomization write path do the work; set-up is negligible.
#include <algorithm>

#include "harness.hpp"
#include "os/kernel.hpp"
#include "rewriter/randomizer.hpp"
#include "serve/loadgen.hpp"
#include "serve/server.hpp"
#include "workloads/suite.hpp"
#include "workloads/wl_server.hpp"

namespace perfbench {
namespace {

namespace serve = vcfr::serve;
namespace os = vcfr::os;

/// Kernel thread + 1 pool worker; never derived from the host.
constexpr uint32_t kPoolWorkers = 1;
/// Set-up replays per pass: one set-up is a few milliseconds, so a single
/// sample would be mostly noise.
constexpr int kSetupReplays = 16;
/// Requests replayed alone per tenant image for the VCFR-vs-native
/// figure and the functional / timing layer costs.
constexpr uint32_t kSoloRequests = 16;

serve::ServeConfig serve_config(uint64_t seed) {
  serve::ServeConfig sc;
  sc.tenants = 16;
  sc.cores = 4;
  sc.duration = 16'000'000;
  sc.model = serve::ArrivalModel::kOpen;
  sc.dist = serve::Distribution::kExponential;
  sc.mean_interarrival = 20'000;
  sc.workloads = {"server"};
  sc.seed = seed;
  sc.slice_instructions = 500;
  sc.rerandomize.every_slices = 2;
  sc.rerandomize.max_defer = 4;
  sc.rerandomize.rebuild = os::RerandomizePolicy::Rebuild::kIncremental;
  sc.rerandomize.epoch_tags = true;
  sc.rerand_cost_per_entry = 2;
  sc.pool_workers = kPoolWorkers;
  return sc;
}

/// The kernel and tenant configuration serve::run_serve builds from
/// `sc` before its first simulated instruction.
os::KernelConfig kernel_config(const serve::ServeConfig& sc) {
  os::KernelConfig kc;
  kc.cores = sc.cores;
  kc.sched.slice_instructions = sc.slice_instructions;
  kc.cpu.drc.entries = sc.drc_entries;
  kc.measure_isolated = false;
  kc.pool_workers = sc.pool_workers;
  kc.shared_l2.commit_shards = sc.commit_shards;
  kc.rerand_cost_per_entry = sc.rerand_cost_per_entry;
  return kc;
}

os::ProcessConfig tenant_config(const serve::ServeConfig& sc, uint32_t i) {
  os::ProcessConfig pc;
  pc.workload = sc.workloads[i % sc.workloads.size()];
  pc.scale = sc.scale;
  pc.seed = sc.seed ^ (0x9e3779b97f4a7c15ull * (i + 1));
  pc.max_instructions = sc.request_budget;
  pc.enforce_tags = sc.enforce_tags;
  pc.restart = sc.restart;
  pc.rerandomize = sc.rerandomize;
  pc.watchdog_instructions = sc.watchdog_instructions;
  return pc;
}

/// Framed request payloads drawn from the load generator's body stream.
std::vector<std::vector<uint8_t>> solo_requests(uint64_t seed) {
  serve::LoadGenConfig lg;
  lg.seed = seed;
  serve::LoadGen gen(lg);
  std::vector<std::vector<uint8_t>> payloads;
  for (uint32_t i = 0; i < kSoloRequests; ++i) {
    payloads.push_back(vcfr::workloads::frame_request(gen.draw_server_body()));
  }
  return payloads;
}

class ServeRerand final : public Workload {
 public:
  explicit ServeRerand(uint64_t seed) : seed_(seed) {}

  [[nodiscard]] uint32_t host_threads() const override {
    return 1 + kPoolWorkers;
  }

  PassResult pass(SpanLog* spans, telemetry::Telemetry* tel) override {
    const serve::ServeConfig sc = serve_config(seed_);
    PassResult out;
    // run_serve builds its fleet internally; its set-up is replayed here
    // from the same configuration through the same public calls.
    for (int r = 0; r < kSetupReplays; ++r) {
      const double c0 = process_cpu_s();
      auto kernel = std::make_unique<os::Kernel>(kernel_config(sc));
      for (uint32_t i = 0; i < sc.tenants; ++i) {
        const SpanGuard s(spans, "os.spawn");
        (void)kernel->spawn(tenant_config(sc, i));
      }
      out.setup_samples.push_back(process_cpu_s() - c0);
    }

    const auto t0 = Clock::now();
    const double c0 = process_cpu_s();
    serve::ServeReport report;
    {
      const SpanGuard s(spans, "serve.run");
      report = serve::run_serve(sc, tel);
    }
    const double c1 = process_cpu_s();
    out.wall_s = seconds_between(t0, Clock::now());
    out.cpu_s = c1 - c0;
    out.setup_s = median(out.setup_samples);
    out.sim_s = out.cpu_s - out.setup_s;
    rounds_ = report.rounds;
    completed_ = report.completed;
    check(report, out);
    return out;
  }

  void layers(const SpanLog& traced_pass,
              const telemetry::StatRegistry& registry, SpanLog& sweep,
              LayerValues& out) override {
    const serve::ServeConfig sc = serve_config(seed_);
    for (uint32_t i = 0; i < sc.tenants; ++i) {
      const os::ProcessConfig pc = tenant_config(sc, i);
      replay_spawn(pc.workload, pc.scale, pc.seed, sweep);
    }
    spawn_layers(traced_pass, sweep, out);
    const double run_ns = traced_pass.mean_ns("serve.run");
    out["os.run_s"] = run_ns / 1e9;
    out["os.rounds"] = static_cast<double>(rounds_);
    out["os.us_per_round"] = rounds_ == 0 ? 0.0 : run_ns / 1e3 / rounds_;
    out["os.pool_rounds"] =
        static_cast<double>(sum_counters(registry, "kernel.pool.rounds"));
    out["serve.us_per_request"] =
        completed_ == 0 ? 0.0 : run_ns / 1e3 / completed_;

    const vcfr::rewriter::RandomizeResult rr = randomized(0);
    const auto payloads = solo_requests(derive_seed(seed_, 0));
    const std::vector<const binary::Image*> images(payloads.size(), &rr.vcfr);
    time_emu_and_sim(images, payloads, sc.request_budget, sweep, out);
    time_incremental_rerand(seed_, sweep, out);
    registry_layers(registry, out);
  }

 private:
  /// Tenant `i`'s randomized server image.
  [[nodiscard]] vcfr::rewriter::RandomizeResult randomized(uint32_t i) const {
    const serve::ServeConfig sc = serve_config(seed_);
    const os::ProcessConfig pc = tenant_config(sc, i);
    vcfr::rewriter::RandomizeOptions options;
    options.seed = pc.seed;
    return vcfr::rewriter::randomize(vcfr::workloads::make(pc.workload, pc.scale),
                                     options);
  }

  /// VCFR (DRC-64) slowdown over native of the server handler: every
  /// tenant's image serves kSoloRequests requests, each alone on a cold
  /// core. Depends only on the seed, so it is computed once per run.
  double overhead_pct() {
    if (overhead_computed_) return overhead_pct_;
    const serve::ServeConfig sc = serve_config(seed_);
    const binary::Image original = vcfr::workloads::make("server", sc.scale);
    sim::CpuConfig config;
    config.drc.entries = 64;
    double native_cycles = 0;
    double vcfr_cycles = 0;
    for (uint32_t i = 0; i < sc.tenants; ++i) {
      const vcfr::rewriter::RandomizeResult rr = randomized(i);
      for (const auto& payload : solo_requests(derive_seed(seed_, i))) {
        PreparedSim native(original, config, payload);
        PreparedSim vcfr(rr.vcfr, config, payload);
        native_cycles +=
            static_cast<double>(native.run(sc.request_budget).cycles);
        vcfr_cycles += static_cast<double>(vcfr.run(sc.request_budget).cycles);
      }
    }
    overhead_pct_ = 100.0 * (vcfr_cycles / native_cycles - 1.0);
    overhead_computed_ = true;
    return overhead_pct_;
  }

  void check(const serve::ServeReport& report, PassResult& out) {
    std::vector<uint64_t> latencies;
    uint64_t generated = 0;
    for (const serve::TenantReport& t : report.tenants) {
      generated += t.generated;
      for (const serve::RequestRecord& r : t.records) {
        const uint64_t latency = r.completion - r.arrival;
        const bool conserved = r.queue_cycles + r.run_cycles +
                                   r.restart_loss_cycles +
                                   r.commit_stall_cycles ==
                               latency;
        out.instructions += r.instructions;
        out.check(conserved && !r.failed && !t.down,
                  "tenant " + std::to_string(t.pid) + " request " +
                      std::to_string(r.id));
        if (!r.failed) latencies.push_back(latency);
      }
      // Dropped requests have no record; each one is a failed operation.
      for (uint64_t k = 0; k < t.dropped; ++k) {
        out.check(false, "tenant " + std::to_string(t.pid) +
                             " request dropped");
      }
      if (t.generated != t.completed + t.failed + t.dropped || t.down) {
        out.check(false, "tenant " + std::to_string(t.pid) +
                             " accounting / down");
      }
    }
    if (report.generated != report.completed + report.failed +
                                report.dropped ||
        report.generated != generated || report.tenants_down != 0) {
      out.check(false, "fleet request accounting");
    }
    std::sort(latencies.begin(), latencies.end());
    out.simulated["sim_cycles"] = std::to_string(report.fleet_cycles);
    out.simulated["vcfr_overhead_pct"] = exact(overhead_pct());
    out.simulated["p50_cycles"] =
        std::to_string(serve::nearest_rank_permille(latencies, 500));
    out.simulated["p99_cycles"] =
        std::to_string(serve::nearest_rank_permille(latencies, 990));
    out.simulated["requests_completed"] = std::to_string(report.completed);
  }

  uint64_t seed_;
  uint64_t rounds_ = 0;
  uint64_t completed_ = 0;
  bool overhead_computed_ = false;
  double overhead_pct_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_rerand(uint64_t seed) {
  return std::make_unique<ServeRerand>(seed);
}

void probe_serve(uint64_t seed, SpanLog& sweep, LayerValues& out) {
  serve::ServeConfig sc = serve_config(seed);
  sc.tenants = 4;
  sc.cores = 2;
  sc.duration = 200'000;
  serve::ServeReport report;
  {
    const SpanGuard s(&sweep, "serve.probe");
    report = serve::run_serve(sc);
  }
  out["serve.us_per_request"] =
      report.completed == 0
          ? 0.0
          : sweep.total_ns("serve.probe") / 1e3 / report.completed;
}

}  // namespace perfbench
