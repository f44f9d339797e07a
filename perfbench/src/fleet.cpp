// fleet_64x256: 64 simulated cores x 256 tenants cycling the 11 apps at
// scale 1, each tenant with its own placement seed, 2000-instruction
// slices and a fixed per-tenant budget. The set-up-heavy workload: 256
// spawns share only 11 distinct images, so work shared across inputs
// shows here and nowhere else. The kernel's serial isolated re-run is
// off; a sampled solo-emulator check replaces it.
#include <algorithm>

#include "harness.hpp"
#include "os/kernel.hpp"
#include "serve/server.hpp"
#include "workloads/suite.hpp"

namespace perfbench {
namespace {

constexpr uint32_t kCores = 64;
constexpr uint32_t kTenants = 256;
constexpr int kScale = 1;
constexpr uint64_t kSlice = 2'000;
constexpr uint64_t kBudget = 200'000;
/// Kernel thread + 1 pool worker; never derived from the host.
constexpr uint32_t kPoolWorkers = 1;
/// Tenants re-run alone on a fresh emulator after every pass.
constexpr uint32_t kSoloSample = 16;

vcfr::os::ProcessConfig tenant(uint64_t seed, uint32_t i) {
  const auto& apps = vcfr::workloads::spec_names();
  vcfr::os::ProcessConfig pc;
  pc.workload = apps[i % apps.size()];
  pc.scale = kScale;
  pc.seed = derive_seed(seed, i);
  pc.max_instructions = kBudget;
  return pc;
}

class Fleet final : public Workload {
 public:
  explicit Fleet(uint64_t seed) : seed_(seed) {}

  [[nodiscard]] uint32_t host_threads() const override {
    return 1 + kPoolWorkers;
  }

  PassResult pass(SpanLog* spans, telemetry::Telemetry* tel) override {
    vcfr::os::KernelConfig kc;
    kc.cores = kCores;
    kc.sched.slice_instructions = kSlice;
    kc.measure_isolated = false;
    kc.pool_workers = kPoolWorkers;

    const auto t0 = Clock::now();
    const double c0 = process_cpu_s();
    auto kernel = std::make_unique<vcfr::os::Kernel>(kc);
    for (uint32_t i = 0; i < kTenants; ++i) {
      const SpanGuard s(spans, "os.spawn");
      (void)kernel->spawn(tenant(seed_, i));
    }
    if (tel != nullptr) kernel->attach_telemetry(tel);
    const double c1 = process_cpu_s();
    vcfr::os::FleetReport report;
    {
      const SpanGuard s(spans, "os.run");
      report = kernel->run();
    }
    const double c2 = process_cpu_s();
    const auto t2 = Clock::now();

    PassResult out;
    out.wall_s = seconds_between(t0, t2);
    out.cpu_s = c2 - c0;
    out.setup_s = c1 - c0;
    out.sim_s = c2 - c1;
    out.instructions = report.fleet_instructions;
    rounds_ = report.rounds;
    pool_rounds_ = kernel->pool_rounds();
    check(*kernel, report, out);
    return out;
  }

  void layers(const SpanLog& traced_pass,
              const telemetry::StatRegistry& registry, SpanLog& sweep,
              LayerValues& out) override {
    for (uint32_t i = 0; i < kTenants; ++i) {
      const vcfr::os::ProcessConfig pc = tenant(seed_, i);
      replay_spawn(pc.workload, pc.scale, pc.seed, sweep);
    }
    spawn_layers(traced_pass, sweep, out);
    const double run_ns = traced_pass.mean_ns("os.run");
    out["os.run_s"] = run_ns / 1e9;
    out["os.rounds"] = static_cast<double>(rounds_);
    out["os.us_per_round"] = rounds_ == 0 ? 0.0 : run_ns / 1e3 / rounds_;
    out["os.pool_rounds"] = static_cast<double>(pool_rounds_);

    // The 11 distinct images, as the first tenant of each app has them.
    std::vector<vcfr::rewriter::RandomizeResult> rrs;
    std::vector<const binary::Image*> images;
    for (uint32_t i = 0; i < vcfr::workloads::spec_names().size(); ++i) {
      rrs.push_back(randomized(i));
    }
    for (const auto& rr : rrs) images.push_back(&rr.vcfr);
    time_emu_and_sim(images, {}, kBudget, sweep, out);
    time_incremental_rerand(seed_, sweep, out);
    probe_serve(seed_, sweep, out);
    registry_layers(registry, out);
  }

 private:
  [[nodiscard]] vcfr::rewriter::RandomizeResult randomized(uint32_t i) const {
    const vcfr::os::ProcessConfig pc = tenant(seed_, i);
    vcfr::rewriter::RandomizeOptions options;
    options.seed = pc.seed;
    return vcfr::rewriter::randomize(vcfr::workloads::make(pc.workload, kScale),
                                     options);
  }

  /// Mean VCFR (DRC-64) slowdown over native of the 11 distinct programs
  /// over the tenant budget, each alone on a cold core. Depends only on
  /// the seed, so it is computed once per run.
  double overhead_pct() {
    if (overhead_computed_) return overhead_pct_;
    sim::CpuConfig config;
    config.drc.entries = 64;
    double sum = 0;
    const size_t n = vcfr::workloads::spec_names().size();
    for (uint32_t i = 0; i < n; ++i) {
      const auto rr = randomized(i);
      const binary::Image original =
          vcfr::workloads::make(tenant(seed_, i).workload, kScale);
      PreparedSim native(original, config);
      PreparedSim vcfr(rr.vcfr, config);
      const double nc = static_cast<double>(native.run(kBudget).cycles);
      const double vc = static_cast<double>(vcfr.run(kBudget).cycles);
      sum += 100.0 * (vc / nc - 1.0);
    }
    overhead_pct_ = sum / static_cast<double>(n);
    overhead_computed_ = true;
    return overhead_pct_;
  }

  void check(const vcfr::os::Kernel& kernel,
             const vcfr::os::FleetReport& report, PassResult& out) {
    std::vector<bool> sampled(kTenants, false);
    for (uint32_t k = 0; k < kSoloSample; ++k) {
      sampled[derive_seed(seed_ ^ 0x50105010ull, k) % kTenants] = true;
    }
    // Job latency per app: the mean finish cycle of the app's tenants.
    // A single tenant's finish cycle swings with the shared-L2 contention
    // its core happens to see; the per-app mean over ~23 tenants does not.
    const size_t apps = vcfr::workloads::spec_names().size();
    std::vector<double> finish_sum(apps, 0.0);
    std::vector<uint64_t> finish_n(apps, 0);
    for (const vcfr::os::ProcessReport& p : report.processes) {
      finish_sum[p.pid % apps] += static_cast<double>(p.finish_cycles);
      ++finish_n[p.pid % apps];
      bool ok = (p.exit == "halted" || p.exit == "budget") &&
                p.fault_kind == "none";
      if (sampled[p.pid]) ok = ok && solo_matches(kernel, p.pid);
      out.check(ok, "tenant " + std::to_string(p.pid) + " (" + p.workload +
                        ") exit " + p.exit);
    }
    // Every tenant must have been reported.
    if (report.processes.size() != kTenants) {
      out.check(false, "fleet reported " +
                           std::to_string(report.processes.size()) +
                           " tenants");
    }
    std::vector<uint64_t> finish;
    for (size_t a = 0; a < apps; ++a) {
      finish.push_back(finish_n[a] == 0 ? 0 : static_cast<uint64_t>(
                                                  finish_sum[a] / finish_n[a]));
    }
    std::sort(finish.begin(), finish.end());
    out.simulated["sim_cycles"] = std::to_string(report.fleet_cycles);
    out.simulated["vcfr_overhead_pct"] = exact(overhead_pct());
    out.simulated["p50_cycles"] =
        std::to_string(vcfr::serve::nearest_rank_permille(finish, 500));
    out.simulated["p99_cycles"] =
        std::to_string(vcfr::serve::nearest_rank_permille(finish, 990));
  }

  /// The tenant's architectural result equals a solo emulator run of the
  /// same randomized image (no re-randomization runs in this fleet, so
  /// memory images are comparable too).
  static bool solo_matches(const vcfr::os::Kernel& kernel, uint32_t pid) {
    const vcfr::os::Process& proc = kernel.process(pid);
    emu::RunLimits limits;
    limits.max_instructions = proc.config().max_instructions;
    limits.enforce_tags = proc.config().enforce_tags;
    const emu::RunResult solo =
        emu::run_image(kernel.randomization(pid).vcfr, limits);
    return solo.halted == proc.emulator().halted() &&
           solo.trap.kind == proc.emulator().trap().kind &&
           solo.output == proc.emulator().output() &&
           solo.stats.instructions == proc.stats().instructions &&
           solo.mem_checksum == proc.memory().checksum();
  }

  uint64_t seed_;
  uint64_t rounds_ = 0;
  uint64_t pool_rounds_ = 0;
  bool overhead_computed_ = false;
  double overhead_pct_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet(uint64_t seed) {
  return std::make_unique<Fleet>(seed);
}

}  // namespace perfbench
