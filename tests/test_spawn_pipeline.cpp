// Spawn pipeline: analyze once, place many. A kernel prepares each
// workload's program (original image, CFG, analysis) once; every spawn,
// restart and re-randomization epoch only draws a placement of it. These
// tests pin that the split moves no byte: kernel-placed VCFR images
// serialize exactly as a from-scratch randomize() at the same seed,
// programs are shared within a kernel and never across kernels, pool
// workers can read a shared program concurrently, and randomize() itself
// still emits the images it emitted before the split.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "binary/serialize.hpp"
#include "os/kernel.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::os {
namespace {

constexpr uint64_t kSeeds[] = {1, 7, 0x5eed};

std::vector<std::string> all_workloads() {
  std::vector<std::string> names = workloads::spec_names();
  names.emplace_back("server");
  names.emplace_back("leaky");
  return names;
}

ProcessConfig tenant(const std::string& workload, uint64_t seed) {
  ProcessConfig pc;
  pc.workload = workload;
  pc.scale = 0;
  pc.seed = seed;
  return pc;
}

KernelConfig one_core() {
  KernelConfig kc;
  kc.cores = 1;
  kc.measure_isolated = false;
  return kc;
}

std::string serialized(const binary::Image& image) {
  std::ostringstream out;
  binary::save(image, out);
  return out.str();
}

/// The VCFR image a from-scratch randomize() of `workload` draws at `seed`.
std::string reference_vcfr(const std::string& workload, uint64_t seed) {
  rewriter::RandomizeOptions options;
  options.seed = seed;
  return serialized(
      rewriter::randomize(workloads::make(workload, 0), options).vcfr);
}

uint64_t fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(SpawnPipelineTest, SpawnedImagesMatchRandomize) {
  Kernel kernel(one_core());
  std::vector<std::pair<std::string, uint64_t>> spawned;
  for (const uint64_t seed : kSeeds) {
    for (const std::string& w : all_workloads()) {
      kernel.spawn(tenant(w, seed));
      spawned.emplace_back(w, seed);
    }
  }
  for (uint32_t pid = 0; pid < spawned.size(); ++pid) {
    const auto& [w, seed] = spawned[pid];
    const rewriter::RandomizeResult& rr = kernel.randomization(pid);
    EXPECT_EQ(serialized(rr.vcfr), reference_vcfr(w, seed))
        << w << " seed " << seed;
    // Kernel processes never build the naive-ILR image.
    EXPECT_TRUE(rr.naive.code.empty() && rr.naive.sparse_code.empty())
        << w;
  }
}

TEST(SpawnPipelineTest, RestartAndFullEpochMatchRandomize) {
  Kernel kernel(one_core());
  std::vector<std::string> names;
  for (const uint64_t seed : kSeeds) {
    for (const std::string& w : all_workloads()) {
      kernel.spawn(tenant(w, seed));
      names.push_back(w);
    }
  }
  for (uint32_t pid = 0; pid < names.size(); ++pid) {
    Process& proc = kernel.process_mut(pid);
    const uint64_t seed0 = proc.randomization().vcfr.seed;

    // A full re-randomization epoch: nothing has run, so every register
    // is clean and the swap goes through.
    ASSERT_TRUE(proc.try_rerandomize()) << names[pid];
    ASSERT_EQ(proc.epoch(), 1u);
    const uint64_t seed1 = proc.randomization().vcfr.seed;
    EXPECT_NE(seed1, seed0);
    EXPECT_EQ(serialized(proc.randomization().vcfr),
              reference_vcfr(names[pid], seed1))
        << names[pid] << " epoch 1";

    proc.restart();
    const uint64_t seed2 = proc.randomization().vcfr.seed;
    EXPECT_NE(seed2, seed1);
    EXPECT_EQ(serialized(proc.randomization().vcfr),
              reference_vcfr(names[pid], seed2))
        << names[pid] << " after restart";
  }
}

TEST(SpawnPipelineTest, ProgramsSharedPerKernelOnly) {
  Kernel a(one_core());
  Kernel b(one_core());
  for (const uint64_t seed : kSeeds) a.spawn(tenant("gcc", seed));
  a.spawn(tenant("mcf", 1));
  ProcessConfig bigger = tenant("gcc", 1);
  bigger.scale = 1;
  a.spawn(bigger);
  b.spawn(tenant("gcc", 1));

  const auto& gcc = a.process(0).program();
  ASSERT_NE(gcc, nullptr);
  EXPECT_EQ(a.process(1).program(), gcc);
  EXPECT_EQ(a.process(2).program(), gcc);
  EXPECT_EQ(a.randomization(1).analysis.get(), &gcc->analysis);
  EXPECT_NE(a.process(3).program(), gcc) << "other workload";
  EXPECT_NE(a.process(4).program(), gcc) << "other scale";
  EXPECT_NE(b.process(0).program(), gcc) << "other kernel";
  EXPECT_EQ(serialized(b.process(0).original()),
            serialized(a.process(0).original()));

  // Later epochs and restarts keep drawing from the same program.
  Process& p = a.process_mut(1);
  ASSERT_TRUE(p.try_rerandomize());
  p.restart();
  EXPECT_EQ(p.program(), gcc);
  EXPECT_EQ(p.randomization().analysis.get(), &gcc->analysis);
}

// Tenants on different cores share programs while the pool runs their
// slices and their incremental re-randomizations read the shared CFG and
// analysis concurrently; the fleet must stay deterministic and every
// tenant must match its isolated run.
TEST(SpawnPipelineTest, PoolWorkersShareProgramsDeterministically) {
  auto run = [](uint32_t pool_workers) {
    KernelConfig kc;
    kc.cores = 4;
    kc.pool_workers = pool_workers;
    kc.sched.slice_instructions = 2'000;
    Kernel kernel(kc);
    for (uint32_t i = 0; i < 8; ++i) {
      ProcessConfig pc = tenant(i % 2 == 0 ? "gcc" : "bzip2", 11 + i);
      pc.max_instructions = 20'000;
      pc.rerandomize.every_slices = 2;
      pc.rerandomize.max_defer = 4;
      pc.rerandomize.rebuild = i % 4 < 2
                                   ? RerandomizePolicy::Rebuild::kIncremental
                                   : RerandomizePolicy::Rebuild::kFull;
      kernel.spawn(pc);
    }
    EXPECT_EQ(kernel.process(0).program(), kernel.process(6).program());
    return kernel.run();
  };
  const FleetReport pooled = run(3);
  const FleetReport inline_run = run(0);
  EXPECT_GT(pooled.rerandomizations, 0u);
  EXPECT_EQ(pooled.fleet_cycles, inline_run.fleet_cycles);
  ASSERT_EQ(pooled.processes.size(), inline_run.processes.size());
  for (size_t i = 0; i < pooled.processes.size(); ++i) {
    const ProcessReport& p = pooled.processes[i];
    EXPECT_TRUE(p.arch_match) << "pid " << p.pid;
    EXPECT_EQ(p.instructions, inline_run.processes[i].instructions);
    EXPECT_EQ(p.finish_cycles, inline_run.processes[i].finish_cycles);
  }
}

// randomize() = prepare + place + naive image must emit exactly the bytes
// the single-pass rewriter emitted: FNV-1a digests of the serialized VCFR
// and naive-ILR images, recorded before the split, for both placement
// policies and both return options.
TEST(SpawnPipelineTest, RandomizeOutputUnchanged) {
  enum Mode { kDefault, kPageConfined, kSoftwareReturns };
  struct Golden {
    const char* workload;
    Mode mode;
    uint64_t seed;
    uint64_t vcfr;
    uint64_t naive;
    size_t placed;
  };
  const Golden golden[] = {
      {"gcc", kDefault, 3, 0x072ffbe63b597d00ull, 0x76cbb8c62a60e1c4ull, 2069},
      {"gcc", kDefault, 41, 0xb04daee44bd8c629ull, 0xfc3fcd41c48456a4ull, 2069},
      {"gcc", kPageConfined, 3, 0xab9e609694c79cacull, 0x82f3a165b9a5ca33ull,
       2069},
      {"gcc", kPageConfined, 41, 0xdcbf15f2dc3c37faull, 0x38976cbe0d6e01c3ull,
       2069},
      {"gcc", kSoftwareReturns, 3, 0x2aa8565bf850bdd4ull,
       0x2972cb3ceb6777cbull, 2118},
      {"gcc", kSoftwareReturns, 41, 0xfc57d45f90166671ull,
       0x6e4ee7d1f95b7408ull, 2118},
      {"xalan", kDefault, 3, 0x09062777186e6ae3ull, 0xde9122652730b656ull,
       5368},
      {"xalan", kPageConfined, 41, 0xf519153f39c241bfull,
       0xf91e963c60f7857full, 5368},
      {"xalan", kSoftwareReturns, 3, 0x3dbf0ea704c7efa5ull,
       0x99e9c7809030b857ull, 5373},
      {"server", kDefault, 41, 0x972f7049b61c754aull, 0x6e547ba50e5f97e1ull,
       33},
      {"server", kPageConfined, 3, 0x56debb5ab7c0bbd3ull,
       0xc440534be4b98ce3ull, 33},
      {"server", kSoftwareReturns, 41, 0xb98a5a0629670480ull,
       0x1c8d346b1e635f8dull, 34},
      {"leaky", kDefault, 3, 0x8e410f4038487792ull, 0x12d10ed2154ca714ull, 33},
      {"leaky", kPageConfined, 41, 0x6a981c9e58ae6b18ull,
       0x83ad8658d38fc716ull, 33},
      {"leaky", kSoftwareReturns, 3, 0x5c66ece06296633aull,
       0xd71a141ab9eb0d76ull, 34},
  };
  for (const Golden& g : golden) {
    rewriter::RandomizeOptions options;
    options.seed = g.seed;
    if (g.mode == kPageConfined) {
      options.placement = rewriter::PlacementPolicy::kPageConfined;
    }
    if (g.mode == kSoftwareReturns) {
      options.return_option = rewriter::ReturnOption::kSoftwareRewrite;
    }
    const auto rr = rewriter::randomize(workloads::make(g.workload, 0), options);
    const std::string what = std::string(g.workload) + " mode " +
                             std::to_string(g.mode) + " seed " +
                             std::to_string(g.seed);
    EXPECT_EQ(fnv1a(serialized(rr.vcfr)), g.vcfr) << what;
    EXPECT_EQ(fnv1a(serialized(rr.naive)), g.naive) << what;
    EXPECT_EQ(rr.placement.size(), g.placed) << what;
  }
}

TEST(SpawnPipelineTest, PlaceRejectsMismatchedReturnOptions) {
  const auto program = rewriter::prepare(workloads::make("bzip2", 0),
                                         rewriter::ReturnPolicy::kArchitectural);
  rewriter::RandomizeOptions options;
  options.return_policy = rewriter::ReturnPolicy::kConservative;
  EXPECT_THROW((void)rewriter::place(program, options), std::invalid_argument);
  options = {};
  options.return_option = rewriter::ReturnOption::kSoftwareRewrite;
  EXPECT_THROW((void)rewriter::place(program, options), std::invalid_argument);
  const auto rr = rewriter::place(program, {});
  EXPECT_EQ(rr.analysis.get(), &program->analysis);
  EXPECT_TRUE(rr.naive.sparse_code.empty());
}

}  // namespace
}  // namespace vcfr::os
