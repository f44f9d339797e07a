// The ILR randomization software (§IV-A): takes an original-layout binary,
// runs the CFG + target/safety analyses, assigns every randomizable
// instruction a fresh address in the randomized instruction space, and
// emits two executable forms:
//
//   * a *naive-ILR* image: instructions physically relocated to their
//     randomized addresses (plus the fall-through successor map the
//     straightforward hardware resolves at zero cost) — the §III baseline;
//   * a *VCFR* image: instruction bytes kept in the original layout with
//     direct targets, patched immediates, and jump-table slots rewritten
//     into the randomized space, plus the randomization/de-randomization
//     tables the DRC caches at run time — the paper's proposal.
//
// Both images are semantically equivalent to the original program; the
// equivalence property tests exercise this across seeds.
//
// The work splits in two, as the paper's offline rewriter does: prepare()
// runs the seed-independent CFG recovery and analyses once per binary and
// returns an immutable Program; place() does only the seed-dependent part
// (placement, tables, VCFR image) against a shared Program. randomize() is
// prepare + place + the naive-ILR image in one call.
//
// The naive-ILR image re-encodes nothing. Its instructions carry exactly
// the code-pointer rewrites of the VCFR image and differ from it only in
// where they live, so each one's bytes are the VCFR code's bytes at the
// same offset. randomize() copies the VCFR code once as the naive image's
// byte blob, records (randomized address, offset, length) per instruction
// in CFG order (binary::SparseCode), and takes the prepared program's
// image by move instead of copying it.
//
// A placement draws each movable instruction's randomized address into a
// flat array; no per-instruction map is built. The order the derand/rand
// tables are filled in fixes their slot layout and so their serialized
// bytes. That order, and with it the rand table's whole key layout,
// depends only on the sequence of drawn instructions' original addresses,
// never on the addresses drawn. kFullSpread draws in CFG order for every
// seed, so prepare() computes its TableOrder once; a placement then
// inserts only the derand entries and copies the rand layout, filling in
// the values. kPageConfined draws in a per-seed order and computes its
// TableOrder per placement. The VCFR code is shared the same way: a
// placement copies the code of a placement that moves nothing and
// re-encodes only the instructions whose code-pointer immediate moved.
// `vcfr.tables.rand` is the one original -> randomized map a result
// carries.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "binary/image.hpp"
#include "rewriter/analysis.hpp"
#include "rewriter/cfg.hpp"

namespace vcfr::rewriter {

/// How return addresses get randomized (§IV-A):
enum class ReturnOption {
  /// Option 2: the hardware pushes the randomized return address (looked
  /// up in the DRC) and maintains the stack bitmap. Fully transparent,
  /// constant code size.
  kArchitectural,
  /// Option 1: the rewriter replaces each safely-randomizable `call X`
  /// with `push <randomized return>; jmp X` before relocation. No
  /// hardware support needed, but the program grows and call sites whose
  /// callees touch the return address cannot be randomized.
  kSoftwareRewrite,
};

/// Where randomized instructions may land (§IV-D: "control flow
/// randomization can be confined within the same page, which will further
/// reduce its impact to iTLB").
enum class PlacementPolicy {
  /// Complete spread: one instruction per cache-line-sized slot across the
  /// whole randomized region (maximum entropy; the paper's default).
  kFullSpread,
  /// Each original 4 KiB code page gets one dedicated randomized page;
  /// its instructions are shuffled and re-packed inside it. The iTLB
  /// working set stays identical to the baseline at the cost of lower
  /// per-instruction entropy and partially preserved line locality.
  kPageConfined,
};

struct RandomizeOptions {
  uint64_t seed = 1;
  PlacementPolicy placement = PlacementPolicy::kFullSpread;
  /// Base of the randomized instruction space.
  uint32_t rand_base = binary::kDefaultRandBase;
  /// One randomized instruction is placed per slot; with 64-byte slots each
  /// instruction lands in its own cache line, which is what destroys fetch
  /// locality for the naive hardware implementation (§III-A).
  uint32_t slot_bytes = 64;
  /// Region slots = instructions * spread (>= 1.0). Larger values thin the
  /// randomized space further.
  double spread = 1.25;
  ReturnPolicy return_policy = ReturnPolicy::kArchitectural;
  ReturnOption return_option = ReturnOption::kArchitectural;
  /// Simulated placement of the serialized rand/derand tables.
  uint32_t table_base = 0x6000'0000;
};

/// Outcome of the software call rewrite (ReturnOption::kSoftwareRewrite).
struct SoftwareRewriteStats {
  uint32_t calls_rewritten = 0;
  uint32_t code_bytes_before = 0;
  uint32_t code_bytes_after = 0;

  [[nodiscard]] double expansion_percent() const {
    return code_bytes_before == 0
               ? 0.0
               : 100.0 * (static_cast<double>(code_bytes_after) /
                              static_cast<double>(code_bytes_before) -
                          1.0);
  }
};

/// How a placement fills its translation tables, for one sequence of drawn
/// instructions (see the file comment).
struct TableOrder {
  /// Draw positions, in the order the derand table is filled.
  std::vector<uint32_t> order;
  /// original address -> draw position, laid out slot for slot as the
  /// placement's rand table.
  binary::FlatMap32 rand_positions;
};

/// The seed-independent half of a randomization: an original-layout image
/// with its recovered CFG and its target/safety analysis under one return
/// policy. Immutable once prepared; every placement of the image shares it.
struct Program {
  binary::Image image;
  Cfg cfg;
  AnalysisResult analysis;
  ReturnPolicy return_policy = ReturnPolicy::kArchitectural;
  /// cfg.instrs indices of the randomizable instructions, in CFG order:
  /// the order a kFullSpread placement draws their addresses in.
  std::vector<uint32_t> movable;
  /// The table fill order of every kFullSpread placement.
  TableOrder table_order;
  /// The VCFR code of a placement that moves nothing. A placement copies
  /// it and re-encodes only the `code_sites` whose target it moved.
  std::vector<uint8_t> identity_code;
  /// (cfg.instrs index, byte offset in identity_code) of every
  /// instruction whose immediate is a code pointer.
  std::vector<std::pair<uint32_t, uint32_t>> code_sites;
};

struct RandomizeResult {
  /// Empty when the result came from place(); randomize() fills it.
  binary::Image naive;
  binary::Image vcfr;
  /// The analysis the placement honours. A place() result shares its
  /// Program's (and keeps that Program alive); a randomize() result owns
  /// its own and keeps no image copy or CFG.
  std::shared_ptr<const AnalysisResult> analysis;
  /// Populated when return_option == kSoftwareRewrite.
  SoftwareRewriteStats sw_stats;
};

/// Applies the §IV-A option-1 rewrite standalone: every safely
/// randomizable direct call becomes `push <return>; jmp target` (the push
/// immediate still holds the *original* return address; randomize() remaps
/// it like any other code pointer). Returns an expanded original-layout
/// image with all address references (targets, relocations, symbols,
/// entry) re-linked.
[[nodiscard]] binary::Image rewrite_calls_software(
    const binary::Image& image, SoftwareRewriteStats* stats = nullptr);

/// Recovers the CFG of an original-layout image and runs the analyses under
/// `return_policy`. Takes the image by value: move it in to avoid a copy.
/// Throws std::invalid_argument when `image` is already randomized.
[[nodiscard]] std::shared_ptr<const Program> prepare(
    binary::Image image, ReturnPolicy return_policy);

/// Draws one placement of `program`: the translation tables and the VCFR
/// image (`naive` stays empty). The software call rewrite is a transform
/// of the image before prepare(), so `options.return_option` must be
/// kArchitectural and `options.return_policy` must match the program's.
/// Throws std::invalid_argument when the options are inconsistent.
[[nodiscard]] RandomizeResult place(
    const std::shared_ptr<const Program>& program,
    const RandomizeOptions& options);

/// Randomizes an original-layout image: prepare(), place(), plus the
/// naive-ILR image. The result keeps only the analysis of the program it
/// prepared, not its image copy or CFG. Throws
/// std::invalid_argument when `image` is already randomized or options are
/// inconsistent.
[[nodiscard]] RandomizeResult randomize(const binary::Image& image,
                                        const RandomizeOptions& options = {});

}  // namespace vcfr::rewriter
