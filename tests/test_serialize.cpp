// VXE serialization round-trip and robustness tests.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "binary/serialize.hpp"
#include "emu/emulator.hpp"
#include "isa/assembler.hpp"
#include "rewriter/randomizer.hpp"
#include "workloads/suite.hpp"

namespace vcfr::binary {
namespace {

Image sample_image() {
  return isa::assemble(R"(
    .name sample
    .entry main
    .data 0x10000000
    t:
      .ptr f
      .word 77
    .text
    .func main
    main:
      call f
      out r1
      halt
    .func f
    f:
      mov r1, 42
      ret
  )");
}

/// A naive image's relocated code keyed by address: a loaded image keeps
/// the file's record order, so records are compared as a set.
std::map<uint32_t, std::vector<uint8_t>> by_address(const SparseCode& sparse) {
  std::map<uint32_t, std::vector<uint8_t>> out;
  for (const SparseInstr& s : sparse.instrs) {
    const auto bytes = sparse.bytes_of(s);
    out.emplace(s.addr, std::vector<uint8_t>(bytes.begin(), bytes.end()));
  }
  return out;
}

uint32_t read32_at(const std::string& bytes, size_t at) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[at + i])) << (8 * i);
  }
  return v;
}

/// Offsets of the sparse-code entries' address fields in `bytes`, the
/// serialized form of `img` (see the layout in serialize.hpp).
std::vector<size_t> sparse_addr_offsets(const std::string& bytes,
                                        const Image& img) {
  size_t at = 4 + 1 + 8 + 4 + img.name.size() + 4 + 4 + img.code.size() + 4 +
              4 + img.data.size() + 4 + 4 + 4 * img.relocs.size() + 4;
  for (const auto& f : img.functions) at += 4 + f.name.size() + 4;
  at += 8;  // rand_base, rand_size
  const uint32_t n = read32_at(bytes, at);
  at += 4;
  std::vector<size_t> offsets;
  for (uint32_t i = 0; i < n; ++i) {
    offsets.push_back(at);
    at += 8 + read32_at(bytes, at + 4);
  }
  return offsets;
}

void expect_equal(const Image& a, const Image& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.layout, b.layout);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.code_base, b.code_base);
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.data_base, b.data_base);
  EXPECT_EQ(a.data, b.data);
  EXPECT_EQ(a.entry, b.entry);
  EXPECT_EQ(a.relocs.size(), b.relocs.size());
  EXPECT_EQ(a.functions.size(), b.functions.size());
  EXPECT_EQ(a.rand_base, b.rand_base);
  EXPECT_EQ(a.rand_size, b.rand_size);
  EXPECT_EQ(a.sparse_code.size(), b.sparse_code.size());
  EXPECT_EQ(by_address(a.sparse_code), by_address(b.sparse_code));
  EXPECT_EQ(a.fallthrough, b.fallthrough);
  EXPECT_EQ(a.tables.derand, b.tables.derand);
  EXPECT_EQ(a.tables.rand, b.tables.rand);
  EXPECT_EQ(a.tables.unrandomized, b.tables.unrandomized);
  EXPECT_EQ(a.tables.table_base, b.tables.table_base);
  EXPECT_EQ(a.tables.table_bytes, b.tables.table_bytes);
}

TEST(SerializeTest, OriginalRoundTrip) {
  const Image image = sample_image();
  std::stringstream ss;
  save(image, ss);
  const Image back = load_file(ss);
  expect_equal(image, back);
}

TEST(SerializeTest, RandomizedLayoutsRoundTripAndStillRun) {
  const Image image = sample_image();
  rewriter::RandomizeOptions opts;
  opts.seed = 31337;
  const auto rr = rewriter::randomize(image, opts);
  const auto golden = emu::run_image(rr.vcfr);

  for (const Image* img : {&rr.naive, &rr.vcfr}) {
    std::stringstream ss;
    save(*img, ss);
    const Image back = load_file(ss);
    expect_equal(*img, back);
    const auto r = emu::run_image(back);
    EXPECT_TRUE(r.halted) << r.error;
    EXPECT_EQ(r.output, golden.output);
  }
}

TEST(SerializeTest, WorkloadScaleRoundTrip) {
  const Image image = workloads::make("sjeng", 0);
  std::stringstream ss;
  save(image, ss);
  const Image back = load_file(ss);
  expect_equal(image, back);
}

TEST(SerializeTest, RejectsBadMagic) {
  std::stringstream ss;
  ss << "ELF!this is not a vxe image";
  EXPECT_THROW((void)load_file(ss), std::runtime_error);
}

TEST(SerializeTest, RejectsTruncation) {
  const Image image = sample_image();
  std::stringstream ss;
  save(image, ss);
  const std::string full = ss.str();
  for (size_t cut : {5ul, 20ul, full.size() / 2, full.size() - 3}) {
    std::stringstream part(full.substr(0, cut));
    EXPECT_THROW((void)load_file(part), std::runtime_error) << cut;
  }
}

TEST(SerializeTest, RejectsUnknownLayoutByte) {
  const Image image = sample_image();
  std::stringstream ss;
  save(image, ss);
  std::string bytes = ss.str();
  bytes[4] = 9;  // layout byte
  std::stringstream bad(bytes);
  EXPECT_THROW((void)load_file(bad), std::runtime_error);
}

TEST(SerializeTest, MutationFuzzOnlyEverThrowsFormatError) {
  // Loader-hardening contract: no byte-level mutation or truncation of a
  // valid VXE stream may escape load_file as anything but a typed
  // FormatError (and absolutely not as a crash or a std::bad_alloc from a
  // corrupted count field). A mutation that happens to keep the format
  // valid may still load — that is fine; only the failure *type* is pinned.
  const Image base = sample_image();
  rewriter::RandomizeOptions opts;
  opts.seed = 4242;
  const auto rr = rewriter::randomize(base, opts);

  uint64_t state = 0x5eed;
  auto next = [&state]() {
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };

  size_t loaded = 0, rejected = 0;
  for (const Image* img : {&base, &rr.naive, &rr.vcfr}) {
    std::stringstream ss;
    save(*img, ss);
    const std::string bytes = ss.str();
    for (int round = 0; round < 200; ++round) {
      std::string mutated = bytes;
      switch (next() % 3) {
        case 0:  // single bit flip
          mutated[next() % mutated.size()] ^=
              static_cast<char>(1u << (next() % 8));
          break;
        case 1:  // truncation
          mutated.resize(next() % mutated.size());
          break;
        default:  // burst: four byte overwrites
          for (int i = 0; i < 4; ++i) {
            mutated[next() % mutated.size()] = static_cast<char>(next());
          }
          break;
      }
      std::stringstream in(mutated);
      try {
        const Image back = load_file(in);
        (void)back;
        ++loaded;
      } catch (const FormatError& e) {
        EXPECT_FALSE(format_fault_name(e.fault()).empty());
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "non-FormatError escaped load_file: " << e.what();
      }
    }
  }
  EXPECT_EQ(loaded + rejected, 600u);
  EXPECT_GT(rejected, 0u) << "the fuzzer never hit a framing field";

  // Address mutations that make two sparse-code entries collide: a naive
  // image must never load with one of them silently dropped.
  std::stringstream ss;
  save(rr.naive, ss);
  const std::string naive = ss.str();
  const std::vector<size_t> addrs = sparse_addr_offsets(naive, rr.naive);
  ASSERT_EQ(addrs.size(), rr.naive.sparse_code.size());
  ASSERT_GE(addrs.size(), 2u);
  for (int round = 0; round < 50; ++round) {
    const size_t from = addrs[next() % addrs.size()];
    size_t to = addrs[next() % addrs.size()];
    if (to == from) to = from == addrs[0] ? addrs[1] : addrs[0];
    std::string mutated = naive;
    mutated.replace(to, 4, naive, from, 4);
    std::stringstream in(mutated);
    try {
      (void)load_file(in);
      ADD_FAILURE() << "duplicate sparse-code address loaded";
    } catch (const FormatError& e) {
      EXPECT_EQ(e.fault(), FormatFault::kDuplicate) << e.what();
      EXPECT_EQ(format_fault_name(e.fault()), "duplicate");
    }
  }
}

TEST(SerializeTest, FileRoundTrip) {
  const Image image = sample_image();
  const std::string path = testing::TempDir() + "/vcfr_serialize_test.vxe";
  save(image, path);
  const Image back = load_file(path);
  expect_equal(image, back);
  EXPECT_THROW((void)load_file(path + ".does-not-exist"), std::runtime_error);
}

}  // namespace
}  // namespace vcfr::binary
