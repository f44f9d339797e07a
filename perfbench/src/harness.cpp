#include "harness.hpp"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "emu/rerandomize.hpp"
#include "os/kernel.hpp"
#include "rewriter/analysis.hpp"
#include "rewriter/cfg.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/suite.hpp"
#include "workloads/wl_server.hpp"

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int SpanLog::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  // Read the clock last so the bookkeeping above is not charged to the span.
  spans_[id].start = Clock::now();
  return id;
}

void SpanLog::close(int id) {
  spans_[id].end = Clock::now();
  stack_.pop_back();
}

std::map<std::string, SpanLog::Stat> SpanLog::summarize() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[s.parent] +=
          std::chrono::duration<double, std::nano>(s.end - s.start).count();
    }
  }
  std::map<std::string, Stat> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double ns =
        std::chrono::duration<double, std::nano>(spans_[i].end - spans_[i].start)
            .count();
    Stat& st = out[spans_[i].name];
    ++st.calls;
    st.total_ns += ns;
    st.self_ns += ns - child_ns[i];
  }
  return out;
}

double SpanLog::total_ns(std::string_view name) const {
  double ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      ns += std::chrono::duration<double, std::nano>(s.end - s.start).count();
    }
  }
  return ns;
}

double SpanLog::mean_ns(std::string_view name) const {
  uint64_t calls = 0;
  for (const Span& s : spans_) calls += s.name == name ? 1 : 0;
  return calls == 0 ? 0.0 : total_ns(name) / static_cast<double>(calls);
}

uint64_t derive_seed(uint64_t seed, uint64_t index) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void load_with_payload(const binary::Image& image, binary::Memory& mem,
                       const std::vector<uint8_t>& payload) {
  binary::load(image, mem);
  for (size_t i = 0; i < payload.size(); ++i) {
    mem.write8(vcfr::workloads::kServerRequestBase + static_cast<uint32_t>(i),
               payload[i]);
  }
}

PreparedSim::PreparedSim(const binary::Image& image,
                         const sim::CpuConfig& config,
                         const std::vector<uint8_t>& payload, SpanLog* spans)
    : image_(image) {
  {
    const SpanGuard s(spans, "binary.load");
    load_with_payload(image_, mem_, payload);
  }
  {
    const SpanGuard s(spans, "emu.ctor");
    emu_ = std::make_unique<emu::Emulator>(image_, mem_);
  }
  const SpanGuard s(spans, "sim.core_ctor");
  core_ = std::make_unique<sim::CpuCore>(config);
  walker_ = std::make_unique<vcfr::core::TranslationWalker>(image_.tables,
                                                           core_->mem());
  core_->install(image_.layout, walker_.get(), 0);
}

sim::SimResult PreparedSim::run(uint64_t max_instructions) {
  const uint64_t ran = core_->run(*emu_, max_instructions);
  sim::SimResult res = core_->harvest();
  res.app = image_.name;
  res.layout = image_.layout;
  res.halted = emu_->halted();
  res.error = emu_->error();
  res.instructions = ran;
  return res;
}

uint64_t data_checksum(const binary::Image& image, const binary::Memory& mem) {
  std::vector<uint32_t> skip;
  for (const binary::Relocation& r : image.relocs) skip.push_back(r.data_addr);
  std::sort(skip.begin(), skip.end());
  uint64_t h = 0xcbf29ce484222325ull;
  for (uint32_t a = image.data_base; a < image.data_end(); ++a) {
    const auto it = std::upper_bound(skip.begin(), skip.end(), a);
    if (it != skip.begin() && a - *(it - 1) < 4) continue;
    h = (h ^ mem.read8(a)) * 0x100000001b3ull;
  }
  return h;
}

uint64_t sum_counters(const telemetry::StatRegistry& reg,
                      std::string_view suffix) {
  uint64_t total = 0;
  for (const auto& [name, stat] : reg.stats()) {
    if (stat.kind != telemetry::StatKind::kCounter) continue;
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += stat.count_value();
    }
  }
  return total;
}

uint64_t histogram_count(const telemetry::StatRegistry& reg,
                         const std::string& name) {
  const auto it = reg.stats().find(name);
  return it == reg.stats().end() || !it->second.hist ? 0
                                                     : it->second.hist->count();
}

uint64_t histogram_sum(const telemetry::StatRegistry& reg,
                       const std::string& name) {
  const auto it = reg.stats().find(name);
  return it == reg.stats().end() || !it->second.hist ? 0
                                                     : it->second.hist->sum();
}

std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double percent(double part, double whole) {
  return whole == 0 ? 0.0 : 100.0 * part / whole;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void PassResult::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  failures.push_back(what);
}

void replay_spawn(const std::string& workload, int scale, uint64_t seed,
                  SpanLog& sweep) {
  binary::Image image;
  {
    const SpanGuard s(&sweep, "workloads.make");
    image = vcfr::workloads::make(workload, scale);
  }
  {
    const SpanGuard s(&sweep, "rewriter.analyze");
    const vcfr::rewriter::Cfg cfg = vcfr::rewriter::build_cfg(image);
    const vcfr::rewriter::AnalysisResult ar = vcfr::rewriter::analyze(
        image, cfg, vcfr::rewriter::RandomizeOptions{}.return_policy);
    (void)ar;
  }
  vcfr::rewriter::RandomizeResult rr;
  {
    const SpanGuard s(&sweep, "rewriter.randomize");
    vcfr::rewriter::RandomizeOptions options;
    options.seed = seed;
    rr = vcfr::rewriter::randomize(image, options);
  }
  binary::Memory mem;
  {
    const SpanGuard s(&sweep, "binary.load");
    binary::load(rr.vcfr, mem);
  }
  const SpanGuard s(&sweep, "emu.ctor");
  const emu::Emulator emulator(rr.vcfr, mem);
}

void time_emu_and_sim(const std::vector<const binary::Image*>& images,
                      const std::vector<std::vector<uint8_t>>& payloads,
                      uint64_t max_instructions, SpanLog& sweep,
                      LayerValues& out) {
  uint64_t emu_instr = 0;
  uint64_t sim_instr = 0;
  uint64_t hits = 0;
  uint64_t lookups = 0;
  sim::CpuConfig config;
  config.drc.entries = 64;
  for (size_t i = 0; i < images.size(); ++i) {
    const std::vector<uint8_t> payload =
        payloads.empty() ? std::vector<uint8_t>{} : payloads[i];
    binary::Memory mem;
    load_with_payload(*images[i], mem, payload);
    emu::Emulator emulator(*images[i], mem);
    {
      const SpanGuard s(&sweep, "emu.step");
      for (uint64_t n = 0; n < max_instructions && emulator.step(); ++n) {
      }
    }
    emu_instr += emulator.stats().instructions;
    hits += emulator.decode_cache_stats().hits;
    lookups += emulator.decode_cache_stats().hits +
               emulator.decode_cache_stats().misses;

    PreparedSim prepared(*images[i], config, payload);
    const SpanGuard s(&sweep, "sim.run");
    sim_instr += prepared.run(max_instructions).instructions;
  }
  const double emu_per =
      emu_instr == 0 ? 0.0 : sweep.total_ns("emu.step") / emu_instr;
  const double sim_per =
      sim_instr == 0 ? 0.0 : sweep.total_ns("sim.run") / sim_instr;
  out["emu.ns_per_instr"] = emu_per;
  out["emu.decode_hit_pct"] = percent(hits, lookups);
  out["sim.ns_per_instr"] = sim_per;
  out["sim.timing_ns_per_instr"] = sim_per - emu_per;
}

void time_incremental_rerand(uint64_t seed, SpanLog& sweep, LayerValues& out) {
  constexpr int kFirings = 64;
  const binary::Image image = vcfr::workloads::make("server", 0);
  vcfr::rewriter::RandomizeOptions options;
  options.seed = seed;
  vcfr::rewriter::RandomizeResult rr = vcfr::rewriter::randomize(image, options);
  const vcfr::rewriter::Cfg cfg = vcfr::rewriter::build_cfg(image);
  binary::Memory mem;
  binary::load(rr.vcfr, mem);
  emu::Emulator emulator(rr.vcfr, mem);
  for (int k = 0; k < kFirings; ++k) {
    emu::IncrementalRerandOptions inc;
    inc.seed = derive_seed(seed, static_cast<uint64_t>(k));
    inc.region_percent = 25;
    const SpanGuard s(&sweep, "rerand.incremental");
    if (!emu::rerandomize_incremental(cfg, rr, mem, emulator, inc)) {
      throw std::runtime_error("rerandomize_incremental failed");
    }
  }
  out["rerand.incremental_us"] = sweep.mean_ns("rerand.incremental") / 1e3;
}

void probe_kernel(const std::vector<std::string>& apps, uint64_t seed,
                  SpanLog& sweep, LayerValues& out) {
  vcfr::os::KernelConfig kc;
  kc.cores = 1;
  kc.sched.slice_instructions = 2'000;
  kc.measure_isolated = false;
  kc.pool_workers = 1;
  vcfr::os::Kernel kernel(kc);
  for (size_t i = 0; i < apps.size(); ++i) {
    vcfr::os::ProcessConfig pc;
    pc.workload = apps[i];
    pc.scale = 1;
    pc.seed = derive_seed(seed, i);
    pc.max_instructions = 20'000;
    const SpanGuard s(&sweep, "os.spawn");
    (void)kernel.spawn(pc);
  }
  vcfr::os::FleetReport r;
  {
    const SpanGuard s(&sweep, "os.run");
    r = kernel.run();
  }
  const double run_ns = sweep.total_ns("os.run");
  out["os.run_s"] = run_ns / 1e9;
  out["os.rounds"] = static_cast<double>(r.rounds);
  out["os.us_per_round"] = r.rounds == 0 ? 0.0 : run_ns / 1e3 / r.rounds;
  out["os.pool_rounds"] = static_cast<double>(kernel.pool_rounds());
}

void spawn_layers(const SpanLog& spawns, const SpanLog& sweep,
                  LayerValues& out) {
  const double make = sweep.mean_ns("workloads.make");
  const double randomize = sweep.mean_ns("rewriter.randomize");
  const double load = sweep.mean_ns("binary.load");
  const double ctor = sweep.mean_ns("emu.ctor");
  const double spawn = spawns.mean_ns("os.spawn");
  out["workloads.make_ms"] = make / 1e6;
  out["rewriter.randomize_ms"] = randomize / 1e6;
  out["rewriter.analyze_ms"] = sweep.mean_ns("rewriter.analyze") / 1e6;
  out["binary.load_ms"] = load / 1e6;
  out["emu.ctor_ms"] = ctor / 1e6;
  out["os.spawn_ms"] = spawn / 1e6;
  out["os.spawn_coverage_pct"] = percent(make + randomize + load + ctor, spawn);
}

void registry_layers(const telemetry::StatRegistry& reg, LayerValues& out) {
  const auto sum = [&reg](std::string_view suffix) {
    return static_cast<double>(sum_counters(reg, suffix));
  };
  out["core.drc_miss_pct"] = percent(sum(".drc.misses"), sum(".drc.lookups"));
  out["core.table_walks"] = sum(".table_walks");
  out["core.drc_epoch_invalidations"] = sum(".drc.epoch_invalidations");
  out["core.drc_entries_flushed"] = sum(".ctx.entries_flushed");
  out["cache.il1_miss_pct"] =
      percent(sum(".il1.misses"), sum(".il1.accesses"));
  out["cache.l2_miss_pct"] =
      percent(sum(".l2.misses") + sum(".shared_l2.misses"),
              sum(".l2.accesses") + sum(".shared_l2.accesses"));
  out["cache.shared_l2_commits"] = sum(".shared_l2.commits");
  out["cache.shared_l2_queue_delay_cycles"] =
      sum(".shared_l2.queue_delay_cycles");
  out["os.context_switches"] = sum(".ctx.switches");
  out["sched.wakeups"] = sum(".sched.wakeups");
  out["rerand.firings"] =
      static_cast<double>(histogram_count(reg, "rerand.latency"));
  out["rerand.entries_patched"] =
      static_cast<double>(histogram_sum(reg, "rerand.entries_patched"));
}

}  // namespace perfbench
