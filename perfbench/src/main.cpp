// The benchmark binary. Runs one workload for a fixed time and prints, as
// the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
// Untraced runs (--trace 0) report the end-to-end metrics as medians over
// repeated passes; traced runs (--trace 1) alternate untraced and traced
// passes and report the per-layer metrics. Earlier lines record the run
// environment, the simulated results (which must repeat exactly for a
// seed, traced or not), the host speed when untraced, and each span's
// self time when traced.
//
// Usage: perfbench --workload paper_suite|fleet_64x256|serve_rerand
//                  --seed N --seconds S --trace 0|1 [--spans-out PATH]
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

using namespace perfbench;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
    {"sim_cycles", "cycles"}, {"vcfr_overhead_pct", "%"},
    {"p50_cycles", "cycles"}, {"p99_cycles", "cycles"},
};

/// host.cpu_s and host.sim_mips are the whole simulator's host speed.
/// They sit here, not among the end-to-end metrics, because on a shared
/// VM they swing with other guests by more than any usable bound (see
/// README.md, Noise).
constexpr Metric kPerLayer[] = {
    {"host.cpu_s", "s"},
    {"host.sim_mips", "Minstr/s"},
    {"workloads.make_ms", "ms"},
    {"rewriter.randomize_ms", "ms"},
    {"rewriter.analyze_ms", "ms"},
    {"binary.load_ms", "ms"},
    {"emu.ctor_ms", "ms"},
    {"os.spawn_ms", "ms"},
    {"os.spawn_coverage_pct", "%"},
    {"emu.ns_per_instr", "ns/instr"},
    {"emu.decode_hit_pct", "%"},
    {"sim.ns_per_instr", "ns/instr"},
    {"sim.timing_ns_per_instr", "ns/instr"},
    {"os.run_s", "s"},
    {"os.us_per_round", "us"},
    {"os.rounds", "count"},
    {"os.pool_rounds", "count"},
    {"serve.us_per_request", "us"},
    {"sched.wakeups", "count"},
    {"rerand.firings", "count"},
    {"rerand.entries_patched", "count"},
    {"rerand.incremental_us", "us"},
    {"core.drc_epoch_invalidations", "count"},
    {"cache.shared_l2_commits", "count"},
    {"cache.shared_l2_queue_delay_cycles", "cycles"},
    {"os.context_switches", "count"},
    {"core.drc_entries_flushed", "count"},
    {"core.drc_miss_pct", "%"},
    {"core.table_walks", "count"},
    {"cache.il1_miss_pct", "%"},
    {"cache.l2_miss_pct", "%"},
    {"trace_overhead_pct", "%"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload paper_suite|fleet_64x256|"
               "serve_rerand --seed N --seconds S --trace 0|1 "
               "[--spans-out PATH]\n",
               error.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
      if (!have_seed) usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("bad --seconds " + value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace " + value);
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--spans-out") {
      a.spans_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || !have_seed || a.seconds <= 0 || a.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "paper_suite") return make_paper_suite(a.seed);
  if (a.workload == "fleet_64x256") return make_fleet(a.seed);
  if (a.workload == "serve_rerand") return make_serve_rerand(a.seed);
  usage("unknown workload " + a.workload);
}

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string simulated_json(const std::map<std::string, std::string>& sim) {
  std::string out = "{";
  for (const auto& [k, v] : sim) {
    if (out.size() > 1) out += ", ";
    out += json_string(k) + ": " + v;
  }
  return out + "}";
}

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void add(const PassResult& p) {
    attempted += p.attempted;
    failed += p.failed;
    failures.insert(failures.end(), p.failures.begin(), p.failures.end());
  }
  /// Simulated results must repeat exactly from pass to pass.
  void same(const PassResult& a, const PassResult& b, const char* what) {
    ++attempted;
    if (a.simulated == b.simulated) return;
    ++failed;
    failures.push_back(std::string("simulated results differ: ") + what);
  }
};

void write_spans(const std::string& path, const SpanLog& pass,
                 const SpanLog& sweep, Clock::time_point origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  int tid = 0;
  for (const SpanLog* log : {&pass, &sweep}) {
    for (size_t i = 0; i < log->spans().size(); ++i) {
      const SpanLog::Span& s = log->spans()[i];
      const double ts =
          std::chrono::duration<double, std::micro>(s.start - origin).count();
      const double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      std::fprintf(f,
                   "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 0, \"tid\": %d, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                   "\"parent\": %d}}",
                   first ? "" : ",\n", json_string(s.name).c_str(), tid, ts,
                   dur, i, s.parent);
      first = false;
    }
    ++tid;
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

/// Prints the result line with `names`' values in their order; fails
/// when one of them was not measured.
template <size_t N>
int print_result(const Totals& t, const Metric (&names)[N],
                 const std::map<std::string, double>& values) {
  std::string m;
  for (const Metric& metric : names) {
    const auto it = values.find(metric.name);
    if (it == values.end()) {
      std::fprintf(stderr, "perfbench: metric %s not measured\n", metric.name);
      return 1;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  m.empty() ? "" : ", ", metric.name, it->second, metric.unit);
    m += buf;
  }
  for (size_t i = 0; i < t.failures.size() && i < 10; ++i) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", t.failures[i].c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              t.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(t.attempted),
              static_cast<unsigned long long>(t.failed), m.c_str());
  return 0;
}

int run(const Args& a) {
  const auto origin = Clock::now();
  const std::unique_ptr<Workload> wl = make_workload(a);
  std::printf(
      "{\"env\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %d, \"host_threads\": %u, "
      "\"build_type\": %s, \"compiler\": %s}}\n",
      json_string(a.workload).c_str(), static_cast<unsigned long long>(a.seed),
      a.seconds, a.trace, host_cpus(), wl->host_threads(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_COMPILER).c_str());
  std::fflush(stdout);

  Totals totals;
  // Passes run until the next one would overrun the time budget, and at
  // least three (two pairs when traced) so that medians mean something.
  const auto more = [&](size_t done, size_t min_done, double last) {
    return done < min_done ||
           seconds_between(origin, Clock::now()) + last <= a.seconds;
  };

  if (a.trace == 0) {
    std::vector<PassResult> passes;
    double last = 0;
    do {
      const auto t = Clock::now();
      passes.push_back(wl->pass(nullptr, nullptr));
      last = seconds_between(t, Clock::now());
      totals.add(passes.back());
      if (passes.size() > 1) totals.same(passes.front(), passes.back(), "pass to pass");
    } while (more(passes.size(), 3, last));

    std::vector<double> wall, cpu, setup, mips;
    for (const PassResult& p : passes) {
      wall.push_back(p.wall_s);
      cpu.push_back(p.cpu_s);
      mips.push_back(p.mips());
      if (p.setup_samples.empty()) {
        setup.push_back(p.setup_s);
      } else {
        setup.insert(setup.end(), p.setup_samples.begin(), p.setup_samples.end());
      }
    }
    const auto& sim = passes.front().simulated;
    std::printf("{\"simulated\": %s, \"passes\": %zu, \"host\": {\"wall_s\": "
                "%.6f, \"cpu_s\": %.6f, \"sim_mips\": %.6f}}\n",
                simulated_json(sim).c_str(), passes.size(), median(wall),
                median(cpu), median(mips));
    std::map<std::string, double> values = {
        {"setup_s", median(setup)},
        {"peak_rss_mb", peak_rss_mb()},
    };
    for (const auto& [name, exact_value] : sim) {
      values[name] = std::strtod(exact_value.c_str(), nullptr);
    }
    return print_result(totals, kEndToEnd, values);
  }

  std::vector<double> untraced_cpu, untraced_mips, traced_cpu;
  std::optional<PassResult> first_traced;
  SpanLog traced_spans;
  std::unique_ptr<telemetry::Telemetry> tel;
  double last = 0;
  do {
    const auto t = Clock::now();
    PassResult plain = wl->pass(nullptr, nullptr);
    tel = std::make_unique<telemetry::Telemetry>();
    PassResult traced = wl->pass(&traced_spans, tel.get());
    last = seconds_between(t, Clock::now());
    untraced_cpu.push_back(plain.cpu_s);
    untraced_mips.push_back(plain.mips());
    traced_cpu.push_back(traced.cpu_s);
    totals.add(plain);
    totals.add(traced);
    totals.same(plain, traced, "traced vs untraced");
    if (!first_traced) {
      first_traced = std::move(traced);
    } else {
      totals.same(*first_traced, traced, "pass to pass");
    }
  } while (more(untraced_cpu.size(), 2, last));

  SpanLog sweep;
  LayerValues layers;
  wl->layers(traced_spans, tel->registry(), sweep, layers);
  layers["host.cpu_s"] = median(untraced_cpu);
  layers["host.sim_mips"] = median(untraced_mips);
  layers["trace_overhead_pct"] =
      100.0 * (median(traced_cpu) / median(untraced_cpu) - 1.0);

  std::printf("{\"simulated\": %s, \"passes\": %zu}\n",
              simulated_json(first_traced->simulated).c_str(),
              2 * untraced_cpu.size());
  std::string self = "{";
  for (const SpanLog* log : {&traced_spans, &sweep}) {
    for (const auto& [name, st] : log->summarize()) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s\"%s%s\": {\"calls\": %llu, \"total_ms\": %.6f, "
                    "\"self_ms\": %.6f}",
                    self.size() > 1 ? ", " : "",
                    log == &sweep ? "sweep/" : "pass/", name.c_str(),
                    static_cast<unsigned long long>(st.calls),
                    st.total_ns / 1e6, st.self_ns / 1e6);
      self += buf;
    }
  }
  std::printf("{\"self_time\": %s}}\n", self.c_str());
  if (!a.spans_out.empty()) write_spans(a.spans_out, traced_spans, sweep, origin);

  return print_result(totals, kPerLayer, layers);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
