// paper_suite: the 11 SPEC-like apps at scale 1, each built, randomized
// and simulated on one cold core as native, naive ILR and VCFR with a
// 64-entry DRC — the configuration EXPERIMENTS.md reports against the
// paper's Figs 11-13. Never touches os, serve or the worker pool.
#include <algorithm>
#include <array>

#include "harness.hpp"
#include "rewriter/randomizer.hpp"
#include "serve/server.hpp"
#include "workloads/suite.hpp"

namespace perfbench {
namespace {

constexpr int kScale = 1;
/// The paper benches' default dynamic-instruction cap (bench_util.hpp).
constexpr uint64_t kMaxInstructions = 5'000'000;
constexpr uint32_t kDrcEntries = 64;

enum Layout : size_t { kNative = 0, kNaive = 1, kVcfr = 2 };
constexpr std::array<const char*, 3> kLayoutNames = {"native", "naive", "vcfr"};

struct App {
  binary::Image original;
  vcfr::rewriter::RandomizeResult rr;
  std::array<std::unique_ptr<PreparedSim>, 3> sims;
  std::array<sim::SimResult, 3> results;
  std::array<uint64_t, 3> data_sums{};
};

class PaperSuite final : public Workload {
 public:
  explicit PaperSuite(uint64_t seed) : seed_(seed) {}

  [[nodiscard]] uint32_t host_threads() const override { return 1; }

  PassResult pass(SpanLog* spans, telemetry::Telemetry* tel) override {
    const auto& names = vcfr::workloads::spec_names();
    std::vector<App> apps(names.size());
    sim::CpuConfig config;
    config.drc.entries = kDrcEntries;

    const auto t0 = Clock::now();
    const double c0 = process_cpu_s();
    for (size_t i = 0; i < apps.size(); ++i) {
      App& app = apps[i];
      {
        const SpanGuard s(spans, "workloads.make");
        app.original = vcfr::workloads::make(names[i], kScale);
      }
      {
        const SpanGuard s(spans, "rewriter.randomize");
        vcfr::rewriter::RandomizeOptions options;
        options.seed = derive_seed(seed_, i);
        app.rr = vcfr::rewriter::randomize(app.original, options);
      }
      const std::array<const binary::Image*, 3> images = {
          &app.original, &app.rr.naive, &app.rr.vcfr};
      for (size_t l = 0; l < 3; ++l) {
        app.sims[l] =
            std::make_unique<PreparedSim>(*images[l], config,
                                          std::vector<uint8_t>{}, spans);
      }
      if (tel != nullptr) {
        app.sims[kVcfr]->core().register_stats(
            tel->root().scope("suite").scope(names[i]));
      }
    }
    const double c1 = process_cpu_s();
    for (App& app : apps) {
      for (size_t l = 0; l < 3; ++l) {
        const SpanGuard s(spans, "sim.run");
        app.results[l] = app.sims[l]->run(kMaxInstructions);
      }
    }
    const double c2 = process_cpu_s();
    const auto t2 = Clock::now();
    // The registry points into the cores, which die with this pass.
    if (tel != nullptr) tel->registry().freeze();

    PassResult out;
    out.wall_s = seconds_between(t0, t2);
    out.cpu_s = c2 - c0;
    out.setup_s = c1 - c0;
    out.sim_s = c2 - c1;
    for (App& app : apps) {
      const std::array<const binary::Image*, 3> images = {
          &app.original, &app.rr.naive, &app.rr.vcfr};
      for (size_t l = 0; l < 3; ++l) {
        out.instructions += app.results[l].instructions;
        app.data_sums[l] = data_checksum(*images[l], app.sims[l]->memory());
      }
    }
    check(apps, out);
    return out;
  }

  void layers(const SpanLog& /*traced_pass*/,
              const telemetry::StatRegistry& registry, SpanLog& sweep,
              LayerValues& out) override {
    const auto& names = vcfr::workloads::spec_names();
    std::vector<vcfr::rewriter::RandomizeResult> rrs;
    for (size_t i = 0; i < names.size(); ++i) {
      replay_spawn(names[i], kScale, derive_seed(seed_, i), sweep);
      vcfr::rewriter::RandomizeOptions options;
      options.seed = derive_seed(seed_, i);
      rrs.push_back(vcfr::rewriter::randomize(
          vcfr::workloads::make(names[i], kScale), options));
    }
    std::vector<const binary::Image*> images;
    for (const auto& rr : rrs) images.push_back(&rr.vcfr);
    probe_kernel(names, seed_, sweep, out);
    spawn_layers(sweep, sweep, out);
    time_emu_and_sim(images, {}, kMaxInstructions, sweep, out);
    time_incremental_rerand(seed_, sweep, out);
    probe_serve(seed_, sweep, out);
    registry_layers(registry, out);
  }

 private:
  void check(const std::vector<App>& apps, PassResult& out) const {
    const auto& names = vcfr::workloads::spec_names();
    std::vector<double> overhead(apps.size());
    std::vector<double> vcfr_cycles;
    uint64_t sim_cycles = 0;
    for (size_t i = 0; i < apps.size(); ++i) {
      const auto& r = apps[i].results;
      overhead[i] = 100.0 * (static_cast<double>(r[kVcfr].cycles) /
                                 static_cast<double>(r[kNative].cycles) -
                             1.0);
      vcfr_cycles.push_back(static_cast<double>(r[kVcfr].cycles));
      sim_cycles += r[kVcfr].cycles;
    }
    const size_t worst = static_cast<size_t>(
        std::max_element(overhead.begin(), overhead.end()) - overhead.begin());

    // One operation per app x layout simulation.
    for (size_t i = 0; i < apps.size(); ++i) {
      const App& app = apps[i];
      const sim::SimResult& native = app.results[kNative];
      for (size_t l = 0; l < 3; ++l) {
        const sim::SimResult& r = app.results[l];
        bool ok = r.halted && r.error.empty();
        if (l != kNative) {
          // Same architectural result as the un-randomized program.
          ok = ok && r.instructions == native.instructions &&
               app.sims[l]->emulator().output() ==
                   app.sims[kNative]->emulator().output() &&
               app.data_sums[l] == app.data_sums[kNative];
        }
        if (l == kVcfr) {
          // The paper's shape: VCFR beats naive ILR on every app, and
          // xalan is the DRC-bound outlier.
          ok = ok && r.cycles < app.results[kNaive].cycles;
          if (names[i] == "xalan") ok = ok && worst == i;
        }
        out.check(ok, names[i] + "/" + kLayoutNames[l]);
      }
    }

    double mean = 0;
    for (const double o : overhead) mean += o;
    mean /= static_cast<double>(overhead.size());
    std::vector<uint64_t> sorted;
    for (const double c : vcfr_cycles) sorted.push_back(static_cast<uint64_t>(c));
    std::sort(sorted.begin(), sorted.end());
    out.simulated["sim_cycles"] = std::to_string(sim_cycles);
    out.simulated["vcfr_overhead_pct"] = exact(mean);
    out.simulated["p50_cycles"] =
        std::to_string(vcfr::serve::nearest_rank_permille(sorted, 500));
    out.simulated["p99_cycles"] =
        std::to_string(vcfr::serve::nearest_rank_permille(sorted, 990));
  }

  uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_suite(uint64_t seed) {
  return std::make_unique<PaperSuite>(seed);
}

}  // namespace perfbench
