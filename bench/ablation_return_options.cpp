// Ablation: the two return-address randomization options of §IV-A.
//
//   option 1 (software) : call X -> push <randomized ret>; jmp X
//   option 2 (hardware)  : the core pushes the randomized return via a DRC
//                          rand-entry lookup and maintains the §IV-C bitmap
//
// The paper argues option 2 is "fully transparent to the randomized binary
// program and at the same time maintaining the constant size for all the
// call instructions". This bench quantifies that: code-size expansion,
// dynamic instruction inflation, randomized-return coverage, and IPC.
#include "bench_util.hpp"

int main() {
  using namespace vcfr;
  bench::print_header(
      "Ablation — software vs architectural return-address randomization",
      "option 2 is transparent and constant-size (SIV-A); option 1 grows code");
  std::printf("%-10s %10s %12s %12s %12s %12s\n", "app", "expand(%)",
              "instr(+%)", "IPC(sw)", "IPC(arch)", "cover(sw/arch)");

  double sum_expand = 0;
  int n = 0;
  for (const auto& name : workloads::spec_names()) {
    const auto image = workloads::make(name, bench::scale());

    rewriter::RandomizeOptions arch;
    arch.seed = bench::seed();
    const auto rr_arch = rewriter::randomize(image, arch);

    rewriter::RandomizeOptions sw = arch;
    sw.return_option = rewriter::ReturnOption::kSoftwareRewrite;
    const auto rr_sw = rewriter::randomize(image, sw);

    const auto r_arch = bench::run(rr_arch.vcfr, 128);
    const auto r_sw = bench::run(rr_sw.vcfr, 128);

    const double instr_inflation =
        100.0 * (static_cast<double>(r_sw.instructions) /
                     std::max<uint64_t>(1, r_arch.instructions) -
                 1.0);
    // Coverage: fraction of static call sites whose returns are randomized.
    const auto calls =
        rr_arch.analysis->stats.function_calls;
    const double cover_sw =
        calls == 0 ? 0
                   : 100.0 * rr_sw.sw_stats.calls_rewritten /
                         static_cast<double>(calls);
    const double cover_arch =
        calls == 0
            ? 0
            : 100.0 *
                  (static_cast<double>(calls) -
                   static_cast<double>(
                       rr_arch.analysis->unsafe_return_sites.size())) /
                  static_cast<double>(calls);

    std::printf("%-10s %10.1f %12.1f %12.3f %12.3f %7.0f%%/%3.0f%%\n",
                name.c_str(), rr_sw.sw_stats.expansion_percent(),
                instr_inflation, r_sw.ipc(), r_arch.ipc(), cover_sw,
                cover_arch);
    sum_expand += rr_sw.sw_stats.expansion_percent();
    ++n;
  }
  bench::print_footer(sum_expand / n, "code expansion (%) under option 1");
  return 0;
}
