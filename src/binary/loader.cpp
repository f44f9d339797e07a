#include "binary/loader.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "binary/state_io.hpp"

namespace vcfr::binary {

const Memory::Page* Memory::find_page(uint32_t addr) const {
  auto it = pages_.find(addr >> kPageBits);
  return it == pages_.end() ? nullptr : it->second.get();
}

Memory::Page& Memory::touch_page(uint32_t addr) {
  auto& slot = pages_[addr >> kPageBits];
  if (!slot) slot = std::make_unique<Page>(Page{});
  return *slot;
}

const Memory::Page* Memory::data_page(uint32_t addr) const {
  const uint32_t no = addr >> kPageBits;
  if (no == data_memo_no_) return data_memo_;
  const Page* page = find_page(addr);
  if (page != nullptr) {
    data_memo_no_ = no;
    data_memo_ = page;
  }
  return page;
}

const Memory::Page* Memory::fetch_page(uint32_t addr) const {
  const uint32_t no = addr >> kPageBits;
  if (no == fetch_memo_no_) return fetch_memo_;
  const Page* page = find_page(addr);
  if (page != nullptr) {
    fetch_memo_no_ = no;
    fetch_memo_ = page;
  }
  return page;
}

Memory::Page& Memory::write_page(uint32_t addr) {
  const uint32_t no = addr >> kPageBits;
  if (no == write_memo_no_) return *write_memo_;
  Page& page = touch_page(addr);
  write_memo_no_ = no;
  write_memo_ = &page;
  return page;
}

uint8_t Memory::read8(uint32_t addr) const {
  const Page* page = data_page(addr);
  return page ? (*page)[addr & (kPageSize - 1)] : 0;
}

void Memory::write8(uint32_t addr, uint8_t value) {
  if (!watched_.empty()) note_write(addr, 1);
  write_page(addr)[addr & (kPageSize - 1)] = value;
}

uint32_t Memory::read32(uint32_t addr) const {
  // Fast path when the word does not straddle a page boundary.
  if ((addr & (kPageSize - 1)) <= kPageSize - 4) {
    const Page* page = data_page(addr);
    if (!page) return 0;
    const uint32_t off = addr & (kPageSize - 1);
    return static_cast<uint32_t>((*page)[off]) |
           (static_cast<uint32_t>((*page)[off + 1]) << 8) |
           (static_cast<uint32_t>((*page)[off + 2]) << 16) |
           (static_cast<uint32_t>((*page)[off + 3]) << 24);
  }
  return static_cast<uint32_t>(read8(addr)) |
         (static_cast<uint32_t>(read8(addr + 1)) << 8) |
         (static_cast<uint32_t>(read8(addr + 2)) << 16) |
         (static_cast<uint32_t>(read8(addr + 3)) << 24);
}

void Memory::write32(uint32_t addr, uint32_t value) {
  if ((addr & (kPageSize - 1)) <= kPageSize - 4) {
    if (!watched_.empty()) note_write(addr, 4);
    Page& page = write_page(addr);
    const uint32_t off = addr & (kPageSize - 1);
    page[off] = static_cast<uint8_t>(value);
    page[off + 1] = static_cast<uint8_t>(value >> 8);
    page[off + 2] = static_cast<uint8_t>(value >> 16);
    page[off + 3] = static_cast<uint8_t>(value >> 24);
    return;
  }
  write8(addr, static_cast<uint8_t>(value));
  write8(addr + 1, static_cast<uint8_t>(value >> 8));
  write8(addr + 2, static_cast<uint8_t>(value >> 16));
  write8(addr + 3, static_cast<uint8_t>(value >> 24));
}

void Memory::read_block(uint32_t addr, uint8_t* out, uint32_t n) const {
  while (n > 0) {
    const uint32_t off = addr & (kPageSize - 1);
    const uint32_t chunk = std::min(n, kPageSize - off);
    const Page* page = fetch_page(addr);
    if (page != nullptr) {
      std::memcpy(out, page->data() + off, chunk);
    } else {
      std::memset(out, 0, chunk);
    }
    addr += chunk;
    out += chunk;
    n -= chunk;
  }
}

void Memory::write_block(uint32_t addr, const uint8_t* src, uint32_t n) {
  if (n == 0) return;
  if (!watched_.empty()) {
    // write8 bumps once per byte lying in any watched range: count the
    // bytes of [addr, addr + n) covered by the union of the ranges.
    const uint64_t lo = addr;
    const uint64_t hi = lo + n;
    std::vector<std::pair<uint64_t, uint64_t>> hits;
    for (const auto& [base, end] : watched_) {
      const uint64_t a = std::max<uint64_t>(lo, base);
      const uint64_t b = std::min<uint64_t>(hi, end);
      if (a < b) hits.emplace_back(a, b);
    }
    std::sort(hits.begin(), hits.end());
    uint64_t covered_to = 0;
    for (const auto& [a, b] : hits) {
      const uint64_t from = std::max(a, covered_to);
      if (b > from) code_version_ += b - from;
      covered_to = std::max(covered_to, b);
    }
  }
  while (n > 0) {
    const uint32_t off = addr & (kPageSize - 1);
    const uint32_t chunk = std::min(n, kPageSize - off);
    std::memcpy(write_page(addr).data() + off, src, chunk);
    addr += chunk;
    src += chunk;
    n -= chunk;
  }
}

uint64_t Memory::checksum() const {
  // XOR of per-page FNV-1a hashes keyed by page number, so iteration order
  // over the hash map does not matter.
  uint64_t sum = 0;
  for (const auto& [page_no, page] : pages_) {
    uint64_t h = 1469598103934665603ull ^ (static_cast<uint64_t>(page_no) << 1);
    for (uint8_t b : *page) {
      h ^= b;
      h *= 1099511628211ull;
    }
    sum ^= h;
  }
  return sum;
}

void Memory::save_state(StateWriter& w) const {
  std::vector<uint32_t> page_nos;
  page_nos.reserve(pages_.size());
  for (const auto& [page_no, page] : pages_) page_nos.push_back(page_no);
  std::sort(page_nos.begin(), page_nos.end());
  w.u32(static_cast<uint32_t>(page_nos.size()));
  for (const uint32_t page_no : page_nos) {
    w.u32(page_no);
    w.bytes(pages_.at(page_no)->data(), kPageSize);
  }
  w.u32(static_cast<uint32_t>(watched_.size()));
  for (const auto& [base, end] : watched_) {
    w.u32(base);
    w.u32(end);
  }
  w.u64(code_version_);
}

void Memory::load_state(StateReader& r) {
  pages_.clear();
  data_memo_no_ = kNoPage;
  data_memo_ = nullptr;
  fetch_memo_no_ = kNoPage;
  fetch_memo_ = nullptr;
  write_memo_no_ = kNoPage;
  write_memo_ = nullptr;
  const uint32_t n = r.count(1u << 20);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t page_no = r.u32();
    auto page = std::make_unique<Page>();
    r.bytes(page->data(), kPageSize);
    pages_[page_no] = std::move(page);
  }
  watched_.clear();
  const uint32_t ranges = r.count(1u << 12);
  for (uint32_t i = 0; i < ranges; ++i) {
    const uint32_t base = r.u32();
    const uint32_t end = r.u32();
    watched_.emplace_back(base, end);
  }
  code_version_ = r.u64();
}

void Memory::watch_code(uint32_t base, uint32_t size) {
  if (size == 0) return;
  const auto range = std::make_pair(base, base + size);
  for (const auto& r : watched_) {
    if (r == range) return;
  }
  watched_.push_back(range);
}

uint32_t table_entry_addr(const TranslationTables& tables, uint32_t addr) {
  const uint32_t slots = tables.table_bytes / 8;
  if (slots == 0) return tables.table_base;
  const uint32_t slot = mix32(addr) & (slots - 1);  // table_bytes is pow2*8
  return tables.table_base + slot * 8;
}

void load(const Image& image, Memory& mem) {
  mem.write_block(image.code_base, image.code.data(),
                  static_cast<uint32_t>(image.code.size()));
  mem.write_block(image.data_base, image.data.data(),
                  static_cast<uint32_t>(image.data.size()));
  if (image.layout == Layout::kNaiveIlr) {
    const SparseCode& sparse = image.sparse_code;
    for (const SparseInstr& s : sparse.instrs) {
      mem.write_block(s.addr, sparse.bytes_of(s).data(), s.length);
    }
  }
  if (image.layout == Layout::kVcfr && image.tables.table_bytes != 0) {
    store_tables(image.tables, mem);
  }
}

void store_tables(const TranslationTables& tables, Memory& mem) {
  if (tables.table_bytes == 0) return;
  // Serialize (key, translation) pairs so the tables occupy real cacheable
  // memory. Bucket collisions overwrite; functional translation always
  // uses the exact in-image maps, the serialized form exists to give DRC
  // misses a concrete line to fetch. The flat tables iterate in slot
  // order, so the bytes are deterministic across platforms.
  //
  // Entries go straight into their page, and each page is looked up once
  // (up to 256 pages, a 1 MiB table). The page cache is direct-mapped and
  // on the stack: every served request reloads its tables, and a heap
  // array per call tripled a serving run's minor page faults. The effect
  // is exactly two write32 calls per entry: an entry that straddles a
  // page boundary, and every entry of a table that overlaps a watched
  // range (whose writes must bump code_version) or wraps past the top of
  // the address space, takes the write32 path.
  const uint64_t table_end =
      uint64_t{tables.table_base} + tables.table_bytes;
  bool word_path = table_end > (uint64_t{1} << 32);
  for (const auto& [base, end] : mem.watched_) {
    word_path = word_path || (base < table_end && end > tables.table_base);
  }
  std::array<std::pair<uint32_t, Memory::Page*>, 256> pages{};
  auto put = [](uint8_t* p, uint32_t v) {
    p[0] = static_cast<uint8_t>(v);
    p[1] = static_cast<uint8_t>(v >> 8);
    p[2] = static_cast<uint8_t>(v >> 16);
    p[3] = static_cast<uint8_t>(v >> 24);
  };
  auto store = [&](uint32_t key, uint32_t value) {
    const uint32_t entry = table_entry_addr(tables, key);
    const uint32_t off = entry & (Memory::kPageSize - 1);
    if (word_path || off > Memory::kPageSize - 8) {
      mem.write32(entry, key);
      mem.write32(entry + 4, value);
      return;
    }
    const uint32_t page_no = entry >> Memory::kPageBits;
    auto& [cached_no, page] = pages[page_no % pages.size()];
    if (page == nullptr || cached_no != page_no) {
      page = &mem.touch_page(entry);
      cached_no = page_no;
    }
    put(page->data() + off, key);
    put(page->data() + off + 4, value);
  };
  for (const auto& [r, o] : tables.derand) store(r, o);
  for (const auto& [o, r] : tables.rand) store(o, r);
  mem.bump_code_version();
}

}  // namespace vcfr::binary
