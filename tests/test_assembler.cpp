// Tests for the two-pass assembler: directives, operands, labels,
// relocations, and error reporting.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "binary/serialize.hpp"
#include "isa/assembler.hpp"
#include "isa/disassembler.hpp"
#include "isa/encoding.hpp"
#include "workloads/suite.hpp"

namespace vcfr::isa {
namespace {

using binary::Image;

TEST(AssemblerTest, MinimalProgram) {
  const Image img = assemble(R"(
    .name tiny
    .entry main
    main:
      mov r1, 7
      out r1
      halt
  )");
  EXPECT_EQ(img.name, "tiny");
  EXPECT_EQ(img.entry, binary::kDefaultCodeBase);
  const auto listing = disassemble(img);
  ASSERT_EQ(listing.size(), 3u);
  EXPECT_EQ(listing[0].instr.op, Op::kMovRI);
  EXPECT_EQ(listing[1].instr.op, Op::kOut);
  EXPECT_EQ(listing[2].instr.op, Op::kHalt);
}

TEST(AssemblerTest, LabelsResolveForwardAndBackward) {
  const Image img = assemble(R"(
    .entry main
    main:
      jmp fwd
    back:
      halt
    fwd:
      jmp back
  )");
  const auto listing = disassemble(img);
  ASSERT_EQ(listing.size(), 3u);
  EXPECT_EQ(listing[0].instr.imm, listing[2].addr);  // fwd
  EXPECT_EQ(listing[2].instr.imm, listing[1].addr);  // back
}

TEST(AssemblerTest, MemoryOperands) {
  const Image img = assemble(R"(
    ld r1, [r2]
    ld r3, [r4+16]
    st r5, [sp-4]
  )");
  const auto listing = disassemble(img);
  ASSERT_EQ(listing.size(), 3u);
  EXPECT_EQ(listing[0].instr.disp, 0);
  EXPECT_EQ(listing[1].instr.disp, 16);
  EXPECT_EQ(listing[2].instr.rs, kSp);
  EXPECT_EQ(listing[2].instr.disp, -4);
}

TEST(AssemblerTest, DataSectionAndPointers) {
  const Image img = assemble(R"(
    .entry main
    .data 0x10000000
    table:
      .ptr f1
      .ptr f2
      .word 99
      .byte 7
      .space 3
    .text
    main:
      halt
    f1:
      ret
    f2:
      ret
  )");
  ASSERT_EQ(img.relocs.size(), 2u);
  EXPECT_EQ(img.relocs[0].data_addr, 0x10000000u);
  EXPECT_EQ(img.relocs[1].data_addr, 0x10000004u);
  const auto listing = disassemble(img);
  ASSERT_EQ(listing.size(), 3u);
  EXPECT_EQ(img.read_data32(0x10000000), listing[1].addr);  // f1
  EXPECT_EQ(img.read_data32(0x10000004), listing[2].addr);  // f2
  EXPECT_EQ(img.read_data32(0x10000008), 99u);
  EXPECT_EQ(img.data[12], 7u);
  EXPECT_EQ(img.data.size(), 16u);
}

TEST(AssemblerTest, AddressImmediate) {
  const Image img = assemble(R"(
    .data 0x10000000
    buf:
      .space 16
    .text
    mov r1, @buf
    halt
  )");
  const auto listing = disassemble(img);
  EXPECT_EQ(listing[0].instr.imm, 0x10000000u);
}

TEST(AssemblerTest, FunctionSymbols) {
  const Image img = assemble(R"(
    .entry main
    .func main
    main:
      call helper
      halt
    .func helper
    helper:
      ret
  )");
  ASSERT_EQ(img.functions.size(), 2u);
  EXPECT_EQ(img.functions[0].name, "main");
  EXPECT_EQ(img.functions[1].name, "helper");
  EXPECT_EQ(img.functions[1].addr, disassemble(img)[2].addr);
}

TEST(AssemblerTest, ConditionalMnemonics) {
  const Image img = assemble(R"(
    l:
      jeq l
      jne l
      jlt l
      jle l
      jgt l
      jge l
      jb l
      jae l
  )");
  const auto listing = disassemble(img);
  ASSERT_EQ(listing.size(), 8u);
  EXPECT_EQ(listing[0].instr.cond, Cond::kEq);
  EXPECT_EQ(listing[7].instr.cond, Cond::kAe);
}

TEST(AssemblerTest, CommentsAndWhitespace) {
  const Image img = assemble(
      "  ; leading comment\n"
      "main:   # trailing style\n"
      "  nop ; mid\n"
      "\n"
      "  halt\n");
  EXPECT_EQ(disassemble(img).size(), 2u);
}

TEST(AssemblerErrorTest, ReportsLineNumbers) {
  try {
    (void)assemble("nop\nbogus r1\n");
    FAIL() << "expected AsmError";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("asm:2"), std::string::npos);
  }
}

TEST(AssemblerErrorTest, RejectsCommonMistakes) {
  EXPECT_THROW((void)assemble("jmp nowhere\nnowhere_else:\n"), std::runtime_error);
  EXPECT_THROW((void)assemble("mov r1\n"), std::runtime_error);
  EXPECT_THROW((void)assemble("mov r99, 1\n"), std::runtime_error);
  EXPECT_THROW((void)assemble("ld r1, [r2+99999]\n"), std::runtime_error);
  EXPECT_THROW((void)assemble("dup:\ndup:\n"), std::runtime_error);
  EXPECT_THROW((void)assemble(".entry missing\n"), std::runtime_error);
  EXPECT_THROW((void)assemble(".bogus 1\n"), std::runtime_error);
  EXPECT_THROW((void)assemble(".data\n nop\n"), std::runtime_error);
}

uint64_t fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Every workload the suite can build, assembled at scales 0 and 1: FNV-1a
// digests of the serialized images, recorded before the assembler's
// per-line allocations were removed. Pins code, data, relocations,
// symbols and entry byte for byte.
TEST(AssemblerGoldenTest, WorkloadImagesUnchanged) {
  struct Golden {
    const char* workload;
    uint64_t scale0;
    uint64_t scale1;
  };
  const Golden golden[] = {
      {"bzip2", 0x94a56781d21522f2ull, 0x3863329bd75ccb15ull},
      {"gcc", 0xa499dab654dbaeaeull, 0x4ce13a2fba85672eull},
      {"mcf", 0x189448dcaf828c5dull, 0xf29c64b29600f3aeull},
      {"hmmer", 0xc32437d02383da52ull, 0xd64a7cf4296d0e64ull},
      {"sjeng", 0xf682a1e95f702541ull, 0x1211bbd9f81aa9c5ull},
      {"libquantum", 0xa0c60c1145b73cfeull, 0xf30a7b1fc5590d79ull},
      {"h264ref", 0xb0796db1e7384c72ull, 0xf30ac8cc92da84c8ull},
      {"lbm", 0x81d73382da47b619ull, 0x239152fa9224b8c0ull},
      {"xalan", 0xcffb4bea5f908ae5ull, 0x7b10731b181b0d67ull},
      {"namd", 0x99af8fde81847d46ull, 0xae182aec2487702eull},
      {"soplex", 0x43822b8da7a72d0aull, 0x598b442921dac39cull},
      {"memcpy", 0xf6805274917d3625ull, 0x1d8c2d5e752d31bdull},
      {"python", 0x0df9107d65557487ull, 0xa4cdc5f7c7b2b0d2ull},
      {"server", 0xc4473ec80d52d5deull, 0xc4473ec80d52d5deull},
      {"leaky", 0x62529f6eb0ffbac9ull, 0x62529f6eb0ffbac9ull},
  };
  for (const Golden& g : golden) {
    for (const int scale : {0, 1}) {
      std::ostringstream out;
      binary::save(workloads::make(g.workload, scale), out);
      EXPECT_EQ(fnv1a(out.str()), scale == 0 ? g.scale0 : g.scale1)
          << g.workload << " scale " << scale;
    }
  }
}

}  // namespace
}  // namespace vcfr::isa
