// Spawn pipeline: analyze once, place many. A kernel prepares each
// workload's program (original image, CFG, analysis, table fill order)
// once; every spawn, restart and re-randomization epoch only draws a
// placement of it. These tests pin that the split moves no byte:
// kernel-placed VCFR images serialize exactly as a from-scratch
// randomize() at the same seed, programs are shared within a kernel and
// never across kernels, pool workers can read a shared program
// concurrently, and randomize(), spawns and their loaded memory still
// produce the bytes they produced before the split, before placement
// dropped its per-instruction map, and before the naive-ILR image was cut
// from the VCFR code.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "binary/loader.hpp"
#include "binary/serialize.hpp"
#include "emu/emulator.hpp"
#include "fault/injector.hpp"
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
    EXPECT_EQ(rr.vcfr.tables.rand.size(), g.placed) << what;
  }
}

/// FNV-1a over a table's (key, value) pairs in iteration order, 4-byte
/// little-endian each: pins the slot layout, not just the contents.
uint64_t fnv1a(const binary::FlatMap32& table) {
  std::string bytes;
  for (const auto& [k, v] : table) {
    for (const uint32_t word : {k, v}) {
      for (int i = 0; i < 4; ++i) {
        bytes.push_back(static_cast<char>(word >> (8 * i)));
      }
    }
  }
  return fnv1a(bytes);
}

// Scale-1 programs have longer hash-table growth histories than scale 0.
// The goldens were recorded before placement stopped building a
// per-instruction map: serialized VCFR and naive-ILR images, and the
// derand/rand iteration sequences, for both placement policies.
TEST(SpawnPipelineTest, ScaleOneRandomizeOutputUnchanged) {
  struct Golden {
    const char* workload;
    rewriter::PlacementPolicy placement;
    uint64_t seed;
    uint64_t vcfr;
    uint64_t naive;
    uint64_t derand;
    uint64_t rand;
    size_t placed;
  };
  constexpr auto kFull = rewriter::PlacementPolicy::kFullSpread;
  constexpr auto kPage = rewriter::PlacementPolicy::kPageConfined;
  const Golden golden[] = {
      {"gcc", kFull, 3, 0x17413d54f7a26640ull, 0x703abcafa4474152ull,
       0x26c12704389e0a7dull, 0xe127aa33ef8c68b9ull, 18289},
      {"gcc", kFull, 41, 0xcec607e1d3be4522ull, 0x86eb4e476f3f9a41ull,
       0xc16d7311f434e3e3ull, 0x6b261000d8181b67ull, 18289},
      {"gcc", kPage, 3, 0xdcc013d09acff015ull, 0xee4da49c59972968ull,
       0xcd9e905d2c584eeaull, 0x6bbf7fcc44e0ceeeull, 18289},
      {"gcc", kPage, 41, 0x159b671ae057a5b0ull, 0xe44c9107a5af3d3aull,
       0x7ff43823df4ccb08ull, 0x1a3d09f4be044b10ull, 18289},
      {"xalan", kFull, 3, 0x939e61837b81aa46ull, 0xbd88065063711ae2ull,
       0xb49538bc385d6961ull, 0xb404dc138550eebdull, 19764},
      {"xalan", kFull, 41, 0x097960a0005c6fdbull, 0xe1ddb39c91382361ull,
       0x0fa028c665de2c01ull, 0x8c3b865c80aaff7dull, 19764},
      {"xalan", kPage, 3, 0xf7567b9dd87d2c1aull, 0x522efcf55402b043ull,
       0x32f2b57d27a7b52eull, 0x56e8f72ea76906ceull, 19764},
      {"xalan", kPage, 41, 0x10706a3527c11205ull, 0x4035327028e5af13ull,
       0x397d41385568084dull, 0x708c6aaadc9a5d31ull, 19764},
      {"mcf", kFull, 3, 0x59e61e892501989dull, 0x19a664a45b831f0dull,
       0xf16210f1250c5b39ull, 0x645e8530bf746cc9ull, 15731},
      {"mcf", kFull, 41, 0x2e7ae1f8e3d90eb0ull, 0xff51371ac14b3a43ull,
       0xf40e4f98f511d3ebull, 0x7e3036b0cb8302ffull, 15731},
      {"mcf", kPage, 3, 0x2747ef016cabf7ebull, 0x4f6e81ddd7b92a23ull,
       0x29be45a843740f61ull, 0x73954ad300c2f405ull, 15731},
      {"mcf", kPage, 41, 0x7fec97d5876cc4c6ull, 0x7ea6f4a571207207ull,
       0x52bc8fe67db2e7f9ull, 0x827d4c407bcdbce1ull, 15731},
  };
  for (const Golden& g : golden) {
    rewriter::RandomizeOptions options;
    options.seed = g.seed;
    options.placement = g.placement;
    const auto rr = rewriter::randomize(workloads::make(g.workload, 1), options);
    const std::string what =
        std::string(g.workload) +
        (g.placement == kPage ? " page-confined" : " full-spread") +
        " seed " + std::to_string(g.seed);
    EXPECT_EQ(fnv1a(serialized(rr.vcfr)), g.vcfr) << what;
    EXPECT_EQ(fnv1a(serialized(rr.naive)), g.naive) << what;
    EXPECT_EQ(fnv1a(rr.vcfr.tables.derand), g.derand) << what;
    EXPECT_EQ(fnv1a(rr.vcfr.tables.rand), g.rand) << what;
    EXPECT_EQ(rr.vcfr.tables.rand.size(), g.placed) << what;
  }
}

// Kernel-spawned scale-1 tenants, recorded before the same change: table
// iteration sequences plus the loaded memory's checksum, page count and
// code_version, which pin the bytes store_tables writes and the pages it
// allocates. Then one re-randomization epoch (full rebuild for seed 5,
// incremental for 0x5eed) pins the live table refresh the same way.
TEST(SpawnPipelineTest, SpawnedTablesAndMemoryUnchanged) {
  struct Snapshot {
    uint64_t derand;
    uint64_t rand;
    uint64_t memory;
    uint64_t code_version;
  };
  struct Golden {
    const char* workload;
    uint64_t seed;
    Snapshot spawn;
    size_t pages;
    Snapshot epoch1;
  };
  const Golden golden[] = {
      {"gcc", 5,
       {0x82a1135959952307ull, 0x36ad2b5c0e39a077ull, 0xb66fc6899bb1dd70ull,
        1},
       156,
       {0x0052a6795c2a029full, 0x53a8344096ed72dbull, 0x8b5fe980ab0e71f2ull,
        105163}},
      {"gcc", 0x5eed,
       {0x32b57c1f6d16bb38ull, 0x72f3df41812f588cull, 0x900547cfac1d503eull,
        1},
       156,
       {0x83d7b1c029c7eec4ull, 0xf21194db3bac5678ull, 0xb428248fd219c75cull,
        118}},
      {"xalan", 5,
       {0xe34f714c526ea284ull, 0x514e70f79ad90190ull, 0x212ebd8e58861c14ull,
        1},
       159,
       {0x3272c1f73c3fc081ull, 0x85c11791c365715dull, 0xa6d07c975bed1f3eull,
        114457}},
      {"xalan", 0x5eed,
       {0xa99580d62df64b62ull, 0x7e43ea11fb1d1fbaull, 0xe8a0be7d99597556ull,
        1},
       159,
       {0xb312c680bd920b35ull, 0x6be2be7aba4687a5ull, 0x4f7b5ffeaff4854bull,
        88}},
      {"mcf", 5,
       {0xaafb268ab2ab3d33ull, 0x90eaed7039310077ull, 0x75b0005962b6667aull,
        1},
       216,
       {0xbfc7b03d09fd9deaull, 0x10fc72d8282770e2ull, 0xadd6daeea7d369f6ull,
        90547}},
      {"mcf", 0x5eed,
       {0x95be37e7086eb6cfull, 0xc866a2859deaf7a3ull, 0x2d4602735ec4c014ull,
        1},
       216,
       {0xbab79fcd6e439dadull, 0x01d4560c9496ca55ull, 0xab2b5b36037e065cull,
        650}},
  };
  auto snapshot = [](const Process& p) {
    const auto& tables = p.randomization().vcfr.tables;
    return Snapshot{fnv1a(tables.derand), fnv1a(tables.rand),
                    p.memory().checksum(), p.memory().code_version()};
  };
  auto expect_eq = [](const Snapshot& got, const Snapshot& want,
                      const std::string& what) {
    EXPECT_EQ(got.derand, want.derand) << what;
    EXPECT_EQ(got.rand, want.rand) << what;
    EXPECT_EQ(got.memory, want.memory) << what;
    EXPECT_EQ(got.code_version, want.code_version) << what;
  };
  Kernel kernel(one_core());
  for (const Golden& g : golden) {
    ProcessConfig pc = tenant(g.workload, g.seed);
    pc.scale = 1;
    if (g.seed == 0x5eed) {
      pc.rerandomize.rebuild = RerandomizePolicy::Rebuild::kIncremental;
    }
    Process& p = kernel.process_mut(kernel.spawn(pc));
    const std::string what =
        std::string(g.workload) + " seed " + std::to_string(g.seed);
    expect_eq(snapshot(p), g.spawn, what + " spawn");
    EXPECT_EQ(p.memory().pages_allocated(), g.pages) << what;
    ASSERT_TRUE(p.try_rerandomize()) << what;
    expect_eq(snapshot(p), g.epoch1, what + " epoch 1");
  }
}

// The naive-ILR image as the loader lays it out, recorded while its code
// was still re-encoded per instruction: memory checksum and page count
// after binary::load, and the address and bit a code_byte fault picks.
TEST(SpawnPipelineTest, NaiveImageLoadsUnchanged) {
  struct Golden {
    const char* workload;
    rewriter::PlacementPolicy placement;
    uint64_t seed;
    uint64_t memory;
    size_t pages;
    uint32_t fault_addr;
    uint32_t fault_bit;
  };
  constexpr auto kFull = rewriter::PlacementPolicy::kFullSpread;
  constexpr auto kPage = rewriter::PlacementPolicy::kPageConfined;
  const Golden golden[] = {
      {"gcc", kFull, 3, 0x9121766f13036517ull, 362, 0x4013f74fu, 0},
      {"gcc", kFull, 41, 0x71caa17b83fa8ba5ull, 362, 0x400c6174u, 0},
      {"gcc", kPage, 3, 0x7f591d0a841a62fdull, 31, 0x4001740cu, 0},
      {"gcc", kPage, 41, 0xe7b80396f714b61cull, 31, 0x4000e518u, 0},
      {"xalan", kFull, 3, 0x6a481aa07ffa9159ull, 398, 0x400710f0u, 0},
      {"xalan", kFull, 41, 0x3be0bdc2a3759eb8ull, 398, 0x4011bdb5u, 0},
      {"xalan", kPage, 3, 0xa5380c3a7d679037ull, 40, 0x40008127u, 0},
      {"xalan", kPage, 41, 0x2318754cb8759f42ull, 40, 0x40014bd3u, 0},
      {"mcf", kFull, 3, 0xee85f0cffaaba78eull, 438, 0x40108b34u, 0},
      {"mcf", kFull, 41, 0x349ced53027b8c77ull, 438, 0x400266e9u, 0},
      {"mcf", kPage, 3, 0x5f15bb9840fe80b0ull, 154, 0x400138ddu, 0},
      {"mcf", kPage, 41, 0x9bb3c0c8566de4cdull, 154, 0x40002c3du, 0},
  };
  for (const Golden& g : golden) {
    rewriter::RandomizeOptions options;
    options.seed = g.seed;
    options.placement = g.placement;
    auto rr = rewriter::randomize(workloads::make(g.workload, 1), options);
    const std::string what =
        std::string(g.workload) +
        (g.placement == kPage ? " page-confined" : " full-spread") +
        " seed " + std::to_string(g.seed);
    binary::Memory mem;
    binary::load(rr.naive, mem);
    EXPECT_EQ(mem.checksum(), g.memory) << what;
    EXPECT_EQ(mem.pages_allocated(), g.pages) << what;

    emu::Emulator emu(rr.naive, mem);
    fault::FaultPlan plan;
    plan.site = fault::FaultSite::kCodeByte;
    plan.seed = g.seed * 1000 + 7;
    fault::FaultInjector injector(plan);
    ASSERT_TRUE(injector.apply(rr.naive, mem, emu)) << what;
    EXPECT_EQ(injector.record().address, g.fault_addr) << what;
    EXPECT_EQ(injector.record().bit, g.fault_bit) << what;
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
