// VXE binary image: the unit the assembler produces, the ILR rewriter
// transforms, and the emulator/simulator execute.
//
// A naive-ILR image keeps its relocated code flat (SparseCode): one
// record per instruction (randomized address, offset, length) and one
// byte blob. The rewriter's blob is the VCFR image's code: a naive
// instruction is the VCFR instruction with the same code-pointer
// immediates rewritten, so its bytes are the VCFR bytes at the same
// offset and nothing is re-encoded.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "binary/flat_map.hpp"

namespace vcfr::binary {

/// How the code bytes of an image are laid out (see DESIGN.md §4).
enum class Layout {
  /// Compiler output: instructions sequential from `code_base`.
  kOriginal,
  /// Fully relocated ILR image: each instruction lives at its randomized
  /// address inside [rand_base, rand_base + rand_size); successor addresses
  /// come from `fallthrough`. Models the paper's "straightforward hardware
  /// support for ILR" (§III).
  kNaiveIlr,
  /// VCFR image: instruction bytes keep the original layout, but direct
  /// control-transfer targets are rewritten into the randomized space and
  /// `tables` carries the randomization/de-randomization mappings (§IV).
  kVcfr,
};

/// A 32-bit slot in the data section that holds a code address (jump-table
/// entry or stored function pointer). The rewriter patches these.
struct Relocation {
  uint32_t data_addr = 0;
};

/// A named function entry point (from `.func` directives).
struct FunctionSymbol {
  std::string name;
  uint32_t addr = 0;
};

/// Randomization / de-randomization tables emitted by the rewriter for
/// kVcfr images. The paper stores these in kernel-protected pages; the
/// simulated layout (for DRC miss cost) is described by table_base/bytes.
///
/// The maps are open-addressing flat tables (binary/flat_map.hpp): they
/// are probed on the emulator's per-instruction hot path, and their
/// deterministic iteration order pins the serialized in-memory form that
/// DRC table walks read (store_tables in loader.cpp).
struct TranslationTables {
  /// randomized address -> original address (the paper's "derand" entries).
  FlatMap32 derand;
  /// original address -> randomized address ("rand" entries; used when a
  /// call must push the randomized return address).
  FlatMap32 rand;
  /// Original addresses left un-randomized as the failover set for
  /// unresolved indirect transfers. Their entries have the randomized tag
  /// cleared; they are the only residual ROP surface (§IV-A, §V-B).
  FlatSet32 unrandomized;
  /// Simulated physical placement of the tables (walked through L2 on DRC
  /// misses).
  uint32_t table_base = 0;
  uint32_t table_bytes = 0;

  /// De-randomizes an address: identity for un-randomized addresses.
  [[nodiscard]] uint32_t to_original(uint32_t addr) const {
    const uint32_t* v = derand.lookup(addr);
    return v == nullptr ? addr : *v;
  }

  /// Randomizes an original address: identity when no mapping exists.
  [[nodiscard]] uint32_t to_randomized(uint32_t addr) const {
    const uint32_t* v = rand.lookup(addr);
    return v == nullptr ? addr : *v;
  }

  [[nodiscard]] bool is_randomized_addr(uint32_t addr) const {
    return derand.contains(addr);
  }
};

/// One relocated instruction of a naive-ILR image: its bytes are
/// SparseCode::bytes[offset, offset + length).
struct SparseInstr {
  /// Randomized address (or the original one, for an instruction left
  /// un-randomized).
  uint32_t addr = 0;
  uint32_t offset = 0;
  uint32_t length = 0;
};

/// The relocated code of a naive-ILR image. Records keep the order they
/// were added in: CFG order for a rewriter product (the blob is then the
/// VCFR code), file order for a loaded image. binary::save derives the
/// serialized order from that sequence alone (see serialize.hpp).
struct SparseCode {
  std::vector<SparseInstr> instrs;
  std::vector<uint8_t> bytes;

  [[nodiscard]] size_t size() const { return instrs.size(); }
  [[nodiscard]] bool empty() const { return instrs.empty(); }

  [[nodiscard]] std::span<const uint8_t> bytes_of(const SparseInstr& s) const {
    return {bytes.data() + s.offset, s.length};
  }
};

/// A complete program image.
struct Image {
  std::string name;
  Layout layout = Layout::kOriginal;

  uint32_t code_base = 0;
  std::vector<uint8_t> code;  // dense bytes for kOriginal / kVcfr

  uint32_t data_base = 0;
  std::vector<uint8_t> data;

  uint32_t entry = 0;

  std::vector<Relocation> relocs;
  std::vector<FunctionSymbol> functions;

  // --- kNaiveIlr only: sparse relocated code -------------------------------
  /// Region holding relocated instructions.
  uint32_t rand_base = 0;
  uint32_t rand_size = 0;
  /// Relocated instructions and their bytes.
  SparseCode sparse_code;
  /// randomized address -> randomized address of the sequential successor.
  /// The paper's straightforward hardware ILR resolves this mapping at zero
  /// cost; only the fetch-locality penalty is modelled. Flat table: probed
  /// on every naive-ILR instruction.
  FlatMap32 fallthrough;

  // --- kVcfr only ----------------------------------------------------------
  TranslationTables tables;

  /// Seed the randomizer used (0 for un-randomized images).
  uint64_t seed = 0;

  [[nodiscard]] uint32_t code_end() const {
    return code_base + static_cast<uint32_t>(code.size());
  }
  [[nodiscard]] bool in_code(uint32_t addr) const {
    return addr >= code_base && addr < code_end();
  }
  [[nodiscard]] uint32_t data_end() const {
    return data_base + static_cast<uint32_t>(data.size());
  }

  /// Reads a 32-bit little-endian value from the data section.
  [[nodiscard]] uint32_t read_data32(uint32_t addr) const;
  /// Writes a 32-bit little-endian value into the data section.
  void write_data32(uint32_t addr, uint32_t value);
};

/// Default section bases shared by the assembler and workload builders.
inline constexpr uint32_t kDefaultCodeBase = 0x0000'1000;
inline constexpr uint32_t kDefaultDataBase = 0x1000'0000;
inline constexpr uint32_t kDefaultStackTop = 0x7fff'0000;
inline constexpr uint32_t kDefaultRandBase = 0x4000'0000;

}  // namespace vcfr::binary
