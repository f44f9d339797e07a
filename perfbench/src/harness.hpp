// Shared pieces of the benchmark binary: host timing, in-memory spans,
// a set-up/run split of sim::simulate, and the interface each workload
// implements.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "binary/image.hpp"
#include "binary/loader.hpp"
#include "core/translation.hpp"
#include "emu/emulator.hpp"
#include "sim/cpu.hpp"
#include "telemetry/telemetry.hpp"

namespace perfbench {

namespace binary = vcfr::binary;
namespace emu = vcfr::emu;
namespace sim = vcfr::sim;
namespace telemetry = vcfr::telemetry;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time the process has used so far, over all its threads. Unlike
/// wall time it leaves out the time a thread waits for a CPU, whether
/// another task holds it or the hypervisor runs another guest on it
/// (steal), so it is steadier on a shared host. The pool workers block
/// rather than spin, so waiting adds nothing either.
[[nodiscard]] double process_cpu_s();

/// Spans recorded around calls into the library, kept in memory and
/// written once the run ends. Single-threaded: every timed call is made
/// from the benchmark's own thread.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
  };
  struct Stat {
    uint64_t calls = 0;
    double total_ns = 0;
    /// Duration minus the part of it that child spans cover.
    double self_ns = 0;
  };

  int open(const char* name);
  void close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Per-name call count, total and self time.
  [[nodiscard]] std::map<std::string, Stat> summarize() const;
  /// Mean duration per call of the spans named `name` (0 when none).
  [[nodiscard]] double mean_ns(std::string_view name) const;
  [[nodiscard]] double total_ns(std::string_view name) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one call; a null log makes it a no-op.
class SpanGuard {
 public:
  SpanGuard(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->open(name) : -1) {}
  ~SpanGuard() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Per-app / per-tenant seed derived from the workload seed (splitmix64).
[[nodiscard]] uint64_t derive_seed(uint64_t seed, uint64_t index);

/// sim::simulate split into its set-up (load, emulator and core
/// construction, install) and its simulation, so the two can be timed
/// apart. Every instance starts from a cold core. `image` must outlive
/// the object (the emulator keeps a reference).
class PreparedSim {
 public:
  PreparedSim(const binary::Image& image, const sim::CpuConfig& config,
              const std::vector<uint8_t>& payload = {},
              SpanLog* spans = nullptr);
  PreparedSim(const PreparedSim&) = delete;
  PreparedSim& operator=(const PreparedSim&) = delete;

  /// Runs up to `max_instructions` and returns what sim::simulate would.
  sim::SimResult run(uint64_t max_instructions);

  [[nodiscard]] emu::Emulator& emulator() { return *emu_; }
  [[nodiscard]] sim::CpuCore& core() { return *core_; }
  [[nodiscard]] const binary::Memory& memory() const { return mem_; }

 private:
  const binary::Image& image_;
  binary::Memory mem_;
  std::unique_ptr<emu::Emulator> emu_;
  std::unique_ptr<sim::CpuCore> core_;
  std::unique_ptr<vcfr::core::TranslationWalker> walker_;
};

/// Loads `image` into `mem` and writes a request payload at the server's
/// request buffer (what os::Process::rearm does before each request).
void load_with_payload(const binary::Image& image, binary::Memory& mem,
                       const std::vector<uint8_t>& payload);

/// FNV-1a over the data section as the program left it, skipping the
/// relocated code-pointer slots (they legitimately differ per layout).
[[nodiscard]] uint64_t data_checksum(const binary::Image& image,
                                     const binary::Memory& mem);

/// Sum of every registry counter whose full name ends with `suffix`.
[[nodiscard]] uint64_t sum_counters(const telemetry::StatRegistry& reg,
                                    std::string_view suffix);
/// Count / sum of the histogram `name` (0 when absent).
[[nodiscard]] uint64_t histogram_count(
    const telemetry::StatRegistry& reg, const std::string& name);
[[nodiscard]] uint64_t histogram_sum(const telemetry::StatRegistry& reg,
                                     const std::string& name);

/// Round-trip rendering of a double (simulated values compare exactly).
[[nodiscard]] std::string exact(double v);
[[nodiscard]] double percent(double part, double whole);
[[nodiscard]] double median(std::vector<double> values);

/// What one pass of a workload produced. Simulated values are rendered
/// exactly, so two passes (or two runs) can be compared byte for byte.
struct PassResult {
  /// Host wall time of the timed region; logged, and used to fit passes
  /// into the run's time budget.
  double wall_s = 0;
  /// Process CPU time (process_cpu_s) of the timed region, and of its
  /// set-up and simulation phases.
  double cpu_s = 0;
  double setup_s = 0;
  double sim_s = 0;
  /// Set-up CPU times sampled by extra replays in this pass
  /// (serve_rerand); empty when setup_s is the only sample.
  std::vector<double> setup_samples;
  uint64_t instructions = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::string> simulated;

  void check(bool ok, const std::string& what);
  /// Simulated instructions per host CPU second of the simulation phase,
  /// in millions.
  [[nodiscard]] double mips() const {
    return static_cast<double>(instructions) / sim_s / 1e6;
  }
};

/// Per-layer values a workload reports in the traced run.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;
  /// Host threads the workload uses, the main thread included.
  [[nodiscard]] virtual uint32_t host_threads() const = 0;
  /// One full pass — set-up, simulation, then the correctness checks,
  /// which run after the timed region. With `spans` and `telemetry` set
  /// the pass is traced.
  virtual PassResult pass(SpanLog* spans,
                          telemetry::Telemetry* telemetry) = 0;
  /// Per-layer metrics: counters from the last traced pass's registry and
  /// spans, plus standalone layer timings recorded into `sweep`.
  virtual void layers(const SpanLog& traced_pass,
                      const telemetry::StatRegistry& registry,
                      SpanLog& sweep, LayerValues& out) = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_paper_suite(uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_fleet(uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_serve_rerand(uint64_t seed);

// ---- standalone layer timings shared by the workloads -------------------

/// Replays the stages of os::Process construction for one tenant from
/// outside (workloads::make, CFG + analysis, rewriter::randomize,
/// binary::load, emu::Emulator construction), one span each.
void replay_spawn(const std::string& workload, int scale, uint64_t seed,
                  SpanLog& sweep);

/// Functional-only and timing-model runs over `images`, each with its
/// payload (empty = none). Records "emu.step" / "sim.run" spans and fills
/// emu.ns_per_instr, emu.decode_hit_pct, sim.ns_per_instr and
/// sim.timing_ns_per_instr.
void time_emu_and_sim(const std::vector<const binary::Image*>& images,
                      const std::vector<std::vector<uint8_t>>& payloads,
                      uint64_t max_instructions, SpanLog& sweep,
                      LayerValues& out);

/// Times emu::rerandomize_incremental on the §V-A server image
/// (rerand.incremental_us).
void time_incremental_rerand(uint64_t seed, SpanLog& sweep, LayerValues& out);

/// Layers a workload does not drive itself are timed on small fixed
/// probes so every per-layer time is a measurement: the kernel round loop
/// over `apps` on one core (os.*), and a four-tenant serve run
/// (serve.us_per_request).
void probe_kernel(const std::vector<std::string>& apps, uint64_t seed,
                  SpanLog& sweep, LayerValues& out);
void probe_serve(uint64_t seed, SpanLog& sweep, LayerValues& out);

/// Spawn-stage metrics: mean time per call of each replayed stage in
/// `sweep`, os.spawn_ms from the "os.spawn" spans of `spawns`, and the
/// share of a spawn the replayed stages account for.
void spawn_layers(const SpanLog& spawns, const SpanLog& sweep,
                  LayerValues& out);
/// Counter metrics read from a (frozen) telemetry registry.
void registry_layers(const telemetry::StatRegistry& reg, LayerValues& out);

}  // namespace perfbench
