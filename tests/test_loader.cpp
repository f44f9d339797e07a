// Memory-model and loader tests: paging semantics, boundary straddles,
// checksum stability, and the serialized translation-table layout.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "binary/loader.hpp"
#include "binary/state_io.hpp"
#include "isa/assembler.hpp"
#include "rewriter/randomizer.hpp"

namespace vcfr::binary {
namespace {

TEST(MemoryTest, UnwrittenBytesReadZero) {
  Memory mem;
  EXPECT_EQ(mem.read8(0x12345678), 0);
  EXPECT_EQ(mem.read32(0xdeadbeef), 0u);
  EXPECT_EQ(mem.pages_allocated(), 0u);
}

TEST(MemoryTest, ByteAndWordRoundTrip) {
  Memory mem;
  mem.write32(0x1000, 0xa1b2c3d4);
  EXPECT_EQ(mem.read32(0x1000), 0xa1b2c3d4u);
  EXPECT_EQ(mem.read8(0x1000), 0xd4);  // little-endian
  EXPECT_EQ(mem.read8(0x1003), 0xa1);
  mem.write8(0x1001, 0xff);
  EXPECT_EQ(mem.read32(0x1000), 0xa1b2ffd4u);
}

TEST(MemoryTest, WordStraddlingPageBoundary) {
  Memory mem;
  const uint32_t addr = Memory::kPageSize - 2;
  mem.write32(addr, 0x11223344);
  EXPECT_EQ(mem.read32(addr), 0x11223344u);
  EXPECT_EQ(mem.pages_allocated(), 2u);
  EXPECT_EQ(mem.read8(Memory::kPageSize), 0x22);
}

TEST(MemoryTest, ReadBlockCrossesPages) {
  Memory mem;
  for (uint32_t i = 0; i < 8; ++i) {
    mem.write8(Memory::kPageSize - 4 + i, static_cast<uint8_t>(i + 1));
  }
  uint8_t buf[8];
  mem.read_block(Memory::kPageSize - 4, buf, 8);
  for (uint32_t i = 0; i < 8; ++i) EXPECT_EQ(buf[i], i + 1);
}

/// Memory::save_state bytes: pages, watched ranges and code version.
std::string saved(const Memory& mem) {
  std::ostringstream out;
  StateWriter w(out);
  mem.save_state(w);
  return out.str();
}

TEST(MemoryTest, WriteBlockMatchesByteWrites) {
  // A page-straddling block over two overlapping watched ranges, written
  // once with write_block and once byte by byte: the same pages, bytes
  // and code_version() bumps (one per watched byte).
  std::vector<uint8_t> block(3 * Memory::kPageSize + 100);
  for (size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<uint8_t>(i * 7 + 1);
  }
  const uint32_t base = 5 * Memory::kPageSize - 40;
  Memory bytes, blocks;
  for (Memory* m : {&bytes, &blocks}) {
    m->watch_code(base + 10, 50);
    m->watch_code(base + 30, 2 * Memory::kPageSize);
  }
  for (size_t i = 0; i < block.size(); ++i) {
    bytes.write8(base + static_cast<uint32_t>(i), block[i]);
  }
  blocks.write_block(base, block.data(), static_cast<uint32_t>(block.size()));
  EXPECT_EQ(blocks.code_version(), 2 * Memory::kPageSize + 20);
  EXPECT_EQ(blocks.code_version(), bytes.code_version());
  EXPECT_EQ(blocks.pages_allocated(), 5u);
  EXPECT_EQ(saved(blocks), saved(bytes));
  uint8_t back[64];
  blocks.read_block(base + Memory::kPageSize - 16, back, sizeof back);
  for (uint32_t i = 0; i < sizeof back; ++i) {
    EXPECT_EQ(back[i], block[Memory::kPageSize - 16 + i]);
  }

  // Unwatched memory: no bumps; an empty block touches nothing.
  Memory plain;
  plain.write_block(base, block.data(), 0);
  EXPECT_EQ(plain.pages_allocated(), 0u);
  plain.write_block(base, block.data(), 80);
  EXPECT_EQ(plain.code_version(), 0u);
  EXPECT_EQ(plain.pages_allocated(), 2u);
}

TEST(MemoryTest, ChecksumIsOrderIndependentAndContentSensitive) {
  Memory a, b;
  a.write8(0x1000, 7);
  a.write8(0x905000, 9);
  b.write8(0x905000, 9);  // same bytes, opposite touch order
  b.write8(0x1000, 7);
  EXPECT_EQ(a.checksum(), b.checksum());
  b.write8(0x1000, 8);
  EXPECT_NE(a.checksum(), b.checksum());
}

TEST(LoaderTest, LoadsAllThreeLayouts) {
  const Image original = isa::assemble(R"(
    .entry main
    .data 0x10000000
    v:
      .word 0xcafe
    .text
    main:
      mov r1, 1
      halt
  )");
  Memory m0;
  load(original, m0);
  EXPECT_EQ(m0.read8(original.code_base),
            static_cast<uint8_t>(isa::Op::kMovRI));
  EXPECT_EQ(m0.read32(0x10000000), 0xcafeu);

  const auto rr = rewriter::randomize(original, {});
  Memory m1;
  load(rr.naive, m1);
  // The original code location is vacated; instructions live at their
  // randomized addresses.
  bool found = false;
  const SparseCode& sparse = rr.naive.sparse_code;
  for (const SparseInstr& s : sparse.instrs) {
    if (s.length != 0 && m1.read8(s.addr) == sparse.bytes_of(s)[0]) {
      found = true;
    }
  }
  EXPECT_TRUE(found);

  Memory m2;
  load(rr.vcfr, m2);
  EXPECT_EQ(m2.read8(rr.vcfr.code_base),
            static_cast<uint8_t>(isa::Op::kMovRI));
  // Serialized tables occupy their pages.
  ASSERT_GT(rr.vcfr.tables.table_bytes, 0u);
  bool any_table_byte = false;
  for (uint32_t off = 0; off < rr.vcfr.tables.table_bytes && !any_table_byte;
       off += 4) {
    any_table_byte = m2.read32(rr.vcfr.tables.table_base + off) != 0;
  }
  EXPECT_TRUE(any_table_byte);
}

TEST(LoaderTest, TableEntryAddrStaysInsideTable) {
  TranslationTables tables;
  tables.table_base = 0x60000000;
  tables.table_bytes = 1 << 12;  // 512 slots
  for (uint32_t k = 0; k < 10000; ++k) {
    const uint32_t e = table_entry_addr(tables, k * 2654435761u);
    EXPECT_GE(e, tables.table_base);
    EXPECT_LT(e + 8, tables.table_base + tables.table_bytes + 8);
    EXPECT_EQ((e - tables.table_base) % 8, 0u);
  }
}

TEST(ImageTest, DataAccessorsBoundsChecked) {
  Image img;
  img.data_base = 0x1000;
  img.data.resize(8, 0);
  img.write_data32(0x1004, 42);
  EXPECT_EQ(img.read_data32(0x1004), 42u);
  EXPECT_THROW((void)img.read_data32(0x0ffc), std::out_of_range);
  EXPECT_THROW((void)img.read_data32(0x1006), std::out_of_range);
  EXPECT_THROW(img.write_data32(0x1008, 1), std::out_of_range);
}

TEST(ImageTest, TranslationTableHelpers) {
  TranslationTables t;
  t.derand[0x40000000] = 0x1000;
  t.rand[0x1000] = 0x40000000;
  t.unrandomized.insert(0x2000);
  EXPECT_EQ(t.to_original(0x40000000), 0x1000u);
  EXPECT_EQ(t.to_original(0x2000), 0x2000u);  // identity fallback
  EXPECT_EQ(t.to_randomized(0x1000), 0x40000000u);
  EXPECT_EQ(t.to_randomized(0x3000), 0x3000u);
  EXPECT_TRUE(t.is_randomized_addr(0x40000000));
  EXPECT_FALSE(t.is_randomized_addr(0x1000));
}

}  // namespace
}  // namespace vcfr::binary
