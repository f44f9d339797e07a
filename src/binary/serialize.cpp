#include "binary/serialize.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <unordered_map>

namespace vcfr::binary {
namespace {

constexpr char kMagic[4] = {'V', 'X', 'E', '1'};

/// Hard bound on every count field (relocs, functions, table entries, …).
/// Far above anything the toolchain emits, low enough that a corrupted
/// count can never drive reserve() into bad_alloc/length_error.
constexpr uint32_t kMaxEntries = 1u << 24;

/// A corrupted count field must fail as a typed parse error before it
/// reaches a container reserve.
uint32_t checked_count(uint32_t n, const char* what) {
  if (n > kMaxEntries) {
    throw FormatError(FormatFault::kImplausible,
                      std::string("vxe: implausible ") + what + " count");
  }
  return n;
}

void put8(std::ostream& out, uint8_t v) {
  out.put(static_cast<char>(v));
}

void put32(std::ostream& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) put8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void put64(std::ostream& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) put8(out, static_cast<uint8_t>(v >> (8 * i)));
}

void put_bytes(std::ostream& out, std::span<const uint8_t> bytes) {
  put32(out, static_cast<uint32_t>(bytes.size()));
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void put_string(std::ostream& out, const std::string& s) {
  put32(out, static_cast<uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

uint8_t get8(std::istream& in) {
  const int c = in.get();
  if (c == EOF) throw FormatError(FormatFault::kTruncated, "vxe: truncated file");
  return static_cast<uint8_t>(c);
}

uint32_t get32(std::istream& in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(get8(in)) << (8 * i);
  return v;
}

uint64_t get64(std::istream& in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(get8(in)) << (8 * i);
  return v;
}

/// Reads a length-prefixed byte section and appends it to `out`; returns
/// its length.
uint32_t append_bytes(std::istream& in, std::vector<uint8_t>& out) {
  const uint32_t n = get32(in);
  if (n > (1u << 28)) throw FormatError(FormatFault::kImplausible, "vxe: implausible section size");
  const size_t at = out.size();
  out.resize(at + n);
  in.read(reinterpret_cast<char*>(out.data() + at), n);
  if (static_cast<uint32_t>(in.gcount()) != n) {
    throw FormatError(FormatFault::kTruncated, "vxe: truncated section");
  }
  return n;
}

std::vector<uint8_t> get_bytes(std::istream& in) {
  std::vector<uint8_t> bytes;
  append_bytes(in, bytes);
  return bytes;
}

std::string get_string(std::istream& in) {
  const uint32_t n = get32(in);
  if (n > (1u << 20)) throw FormatError(FormatFault::kImplausible, "vxe: implausible string size");
  std::string s(n, '\0');
  in.read(s.data(), n);
  if (static_cast<uint32_t>(in.gcount()) != n) {
    throw FormatError(FormatFault::kTruncated, "vxe: truncated string");
  }
  return s;
}

}  // namespace

std::string_view format_fault_name(FormatFault fault) {
  switch (fault) {
    case FormatFault::kIo: return "io";
    case FormatFault::kBadMagic: return "bad_magic";
    case FormatFault::kBadLayout: return "bad_layout";
    case FormatFault::kTruncated: return "truncated";
    case FormatFault::kImplausible: return "implausible";
    case FormatFault::kDuplicate: return "duplicate";
  }
  return "unknown";
}

void save(const Image& image, std::ostream& out) {
  out.write(kMagic, 4);
  put8(out, static_cast<uint8_t>(image.layout));
  put64(out, image.seed);
  put_string(out, image.name);
  put32(out, image.code_base);
  put_bytes(out, image.code);
  put32(out, image.data_base);
  put_bytes(out, image.data);
  put32(out, image.entry);

  put32(out, static_cast<uint32_t>(image.relocs.size()));
  for (const auto& r : image.relocs) put32(out, r.data_addr);

  put32(out, static_cast<uint32_t>(image.functions.size()));
  for (const auto& f : image.functions) {
    put_string(out, f.name);
    put32(out, f.addr);
  }

  put32(out, image.rand_base);
  put32(out, image.rand_size);

  // The entries go out in the order the format has always used: that of
  // an std::unordered_map, reserved to the entry count, into which the
  // records were emplaced in their stored order. Replaying the sequence
  // here keeps every serialized naive image byte-identical.
  const SparseCode& sparse = image.sparse_code;
  std::unordered_map<uint32_t, uint32_t> order;
  order.reserve(sparse.size());
  for (uint32_t i = 0; i < sparse.size(); ++i) {
    order.emplace(sparse.instrs[i].addr, i);
  }
  put32(out, static_cast<uint32_t>(order.size()));
  for (const auto& [addr, i] : order) {
    put32(out, addr);
    put_bytes(out, sparse.bytes_of(sparse.instrs[i]));
  }
  put32(out, static_cast<uint32_t>(image.fallthrough.size()));
  for (const auto& [from, to] : image.fallthrough) {
    put32(out, from);
    put32(out, to);
  }

  const auto& t = image.tables;
  put32(out, static_cast<uint32_t>(t.derand.size()));
  for (const auto& [k, v] : t.derand) {
    put32(out, k);
    put32(out, v);
  }
  put32(out, static_cast<uint32_t>(t.rand.size()));
  for (const auto& [k, v] : t.rand) {
    put32(out, k);
    put32(out, v);
  }
  put32(out, static_cast<uint32_t>(t.unrandomized.size()));
  for (uint32_t a : t.unrandomized) put32(out, a);
  put32(out, t.table_base);
  put32(out, t.table_bytes);

  if (!out) throw FormatError(FormatFault::kIo, "vxe: write failed");
}

Image load_file(std::istream& in) {
  char magic[4];
  in.read(magic, 4);
  if (in.gcount() != 4 || std::memcmp(magic, kMagic, 4) != 0) {
    throw FormatError(FormatFault::kBadMagic, "vxe: bad magic (not a VXE image)");
  }
  Image image;
  const uint8_t layout = get8(in);
  if (layout > static_cast<uint8_t>(Layout::kVcfr)) {
    throw FormatError(FormatFault::kBadLayout, "vxe: unknown layout");
  }
  image.layout = static_cast<Layout>(layout);
  image.seed = get64(in);
  image.name = get_string(in);
  image.code_base = get32(in);
  image.code = get_bytes(in);
  image.data_base = get32(in);
  image.data = get_bytes(in);
  image.entry = get32(in);

  const uint32_t n_relocs = checked_count(get32(in), "reloc");
  image.relocs.reserve(n_relocs);
  for (uint32_t i = 0; i < n_relocs; ++i) image.relocs.push_back({get32(in)});

  const uint32_t n_funcs = checked_count(get32(in), "function");
  image.functions.reserve(n_funcs);
  for (uint32_t i = 0; i < n_funcs; ++i) {
    FunctionSymbol f;
    f.name = get_string(in);
    f.addr = get32(in);
    image.functions.push_back(std::move(f));
  }

  image.rand_base = get32(in);
  image.rand_size = get32(in);

  const uint32_t n_sparse = checked_count(get32(in), "sparse-code");
  SparseCode& sparse = image.sparse_code;
  FlatSet32 sparse_addrs;
  for (uint32_t i = 0; i < n_sparse; ++i) {
    const uint32_t addr = get32(in);
    if (!sparse_addrs.insert(addr)) {
      throw FormatError(FormatFault::kDuplicate,
                        "vxe: two sparse-code entries at one address");
    }
    const auto offset = static_cast<uint32_t>(sparse.bytes.size());
    sparse.instrs.push_back({addr, offset, append_bytes(in, sparse.bytes)});
    if (sparse.bytes.size() > (1u << 28)) {
      throw FormatError(FormatFault::kImplausible,
                        "vxe: implausible sparse-code size");
    }
  }
  const uint32_t n_fall = checked_count(get32(in), "fallthrough");
  image.fallthrough.reserve(n_fall);
  for (uint32_t i = 0; i < n_fall; ++i) {
    const uint32_t from = get32(in);
    const uint32_t to = get32(in);
    image.fallthrough.emplace(from, to);
  }

  auto& t = image.tables;
  const uint32_t n_derand = checked_count(get32(in), "derand");
  t.derand.reserve(n_derand);
  for (uint32_t i = 0; i < n_derand; ++i) {
    const uint32_t k = get32(in);
    t.derand.emplace(k, get32(in));
  }
  const uint32_t n_rand = checked_count(get32(in), "rand");
  t.rand.reserve(n_rand);
  for (uint32_t i = 0; i < n_rand; ++i) {
    const uint32_t k = get32(in);
    t.rand.emplace(k, get32(in));
  }
  const uint32_t n_unrand = checked_count(get32(in), "unrandomized");
  t.unrandomized.reserve(n_unrand);
  for (uint32_t i = 0; i < n_unrand; ++i) t.unrandomized.insert(get32(in));
  t.table_base = get32(in);
  t.table_bytes = get32(in);
  return image;
}

void save(const Image& image, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw FormatError(FormatFault::kIo, "vxe: cannot open for writing: " + path);
  save(image, out);
}

Image load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw FormatError(FormatFault::kIo, "vxe: cannot open: " + path);
  return load_file(in);
}

}  // namespace vcfr::binary
