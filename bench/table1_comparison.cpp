// Table I: qualitative comparison of no-randomization, naive hardware ILR,
// and VCFR — here backed by *measured* values from the simulator instead
// of checkmarks: control-flow diversity (placement displacement), fetch
// locality (IL1 miss rate), and prefetch effectiveness.
#include "bench_util.hpp"

int main() {
  using namespace vcfr;
  bench::print_header(
      "Table I — no randomization vs naive ILR vs VCFR (measured)",
      "VCFR keeps locality & prefetch effectiveness while diversifying");

  // One representative app with a significant footprint.
  const auto image = workloads::make("gcc", bench::scale());
  const auto rr = bench::randomized(image);
  const auto base = bench::run(image, 128);
  const auto naive = bench::run(rr.naive, 128);
  const auto vcfr = bench::run(rr.vcfr, 128);

  const double diversity =
      100.0 * static_cast<double>(rr.vcfr.tables.rand.size()) /
      std::max<size_t>(1, rr.analysis->stats.instructions);

  auto row = [](const char* prop, const char* a, const char* b,
                const char* c) {
    std::printf("%-28s %-16s %-18s %-16s\n", prop, a, b, c);
  };
  char naive_miss[32], base_miss[32], vcfr_miss[32];
  std::snprintf(base_miss, sizeof base_miss, "%.2f%%",
                100 * base.il1.miss_rate());
  std::snprintf(naive_miss, sizeof naive_miss, "%.2f%%",
                100 * naive.il1.miss_rate());
  std::snprintf(vcfr_miss, sizeof vcfr_miss, "%.2f%%",
                100 * vcfr.il1.miss_rate());
  char base_pf[32], naive_pf[32], vcfr_pf[32];
  std::snprintf(base_pf, sizeof base_pf, "%.0f%% useful",
                100 * (1 - base.il1.prefetch_useless_rate()));
  std::snprintf(naive_pf, sizeof naive_pf, "%.0f%% useful",
                100 * (1 - naive.il1.prefetch_useless_rate()));
  std::snprintf(vcfr_pf, sizeof vcfr_pf, "%.0f%% useful",
                100 * (1 - vcfr.il1.prefetch_useless_rate()));
  char base_ipc[32], naive_ipc[32], vcfr_ipc[32], div_str[32];
  std::snprintf(base_ipc, sizeof base_ipc, "%.3f", base.ipc());
  std::snprintf(naive_ipc, sizeof naive_ipc, "%.3f", naive.ipc());
  std::snprintf(vcfr_ipc, sizeof vcfr_ipc, "%.3f", vcfr.ipc());
  std::snprintf(div_str, sizeof div_str, "%.1f%% relocated", diversity);

  std::printf("%-28s %-16s %-18s %-16s\n", "property (app: gcc)",
              "no-random", "naive ILR", "VCFR");
  std::printf("--------------------------------------------------------------\n");
  row("control-flow diversity", "none", div_str, div_str);
  row("instruction locality (IL1)", base_miss, naive_miss, vcfr_miss);
  row("prefetch effectiveness", base_pf, naive_pf, vcfr_pf);
  row("IPC", base_ipc, naive_ipc, vcfr_ipc);
  std::printf("\n");
  return 0;
}
