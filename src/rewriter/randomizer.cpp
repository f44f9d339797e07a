#include "rewriter/randomizer.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <random>
#include <stdexcept>
#include <unordered_map>

#include "isa/encoding.hpp"

namespace vcfr::rewriter {

using isa::Op;

namespace {

/// Whether `entry`'s immediate is a code pointer: a direct transfer
/// target, a proven code-pointer mov, or a PushI return address (produced
/// by the software call rewrite).
bool has_code_imm(const isa::DisasmEntry& entry,
                  const std::unordered_set<uint32_t>& code_imm_sites) {
  const isa::Instr& instr = entry.instr;
  return instr.is_direct_transfer() || instr.op == Op::kPushI ||
         (instr.op == Op::kMovRI && code_imm_sites.contains(entry.addr));
}

/// Rewrites every relocated data slot (jump tables / stored code pointers)
/// into the randomized space.
void patch_data(binary::Image& img, const binary::FlatMap32& rand) {
  for (const auto& r : img.relocs) {
    if (const uint32_t* ra = rand.lookup(img.read_data32(r.data_addr))) {
      img.write_data32(r.data_addr, *ra);
    }
  }
}

/// The table fill order of a placement that draws the instructions at
/// original addresses `keys`, in that sequence. The order is the one in
/// which a std::unordered_map<uint32_t, uint32_t> iterates after `keys`
/// were emplaced into it one by one; it is a function of the key sequence
/// alone. The translation tables have always been filled in this order;
/// keeping it keeps their slot layout, and so every serialized table byte.
TableOrder table_order_of(const std::vector<uint32_t>& keys) {
  std::unordered_map<uint32_t, uint32_t> position;
  for (uint32_t i = 0; i < keys.size(); ++i) position.emplace(keys[i], i);
  TableOrder fill;
  fill.order.reserve(position.size());
  fill.rand_positions.reserve(position.size());
  for (const auto& [key, i] : position) {
    fill.order.push_back(i);
    fill.rand_positions.emplace(key, i);
  }
  return fill;
}

/// Emits the naive-ILR image of a placement: every instruction physically
/// relocated to its randomized address, plus the fall-through map. A
/// naive instruction is its VCFR counterpart (same code-pointer rewrites),
/// so its bytes are cut from the VCFR code, not re-encoded. Takes the
/// program's image; `program` is spent afterwards.
void emit_naive(Program& program, uint64_t seed, RandomizeResult& result) {
  const auto& instrs = program.cfg.instrs;
  const binary::TranslationTables& tables = result.vcfr.tables;
  binary::Image& naive = result.naive;
  naive = std::move(program.image);
  naive.layout = binary::Layout::kNaiveIlr;
  naive.seed = seed;
  naive.code = {};  // all instructions live in sparse_code
  naive.rand_base = result.vcfr.rand_base;
  naive.rand_size = result.vcfr.rand_size;
  binary::SparseCode& sparse = naive.sparse_code;
  sparse.bytes = result.vcfr.code;
  sparse.instrs.reserve(instrs.size());
  uint32_t offset = 0;
  for (size_t i = 0; i < instrs.size(); ++i) {
    const uint32_t addr = tables.to_randomized(instrs[i].addr);
    const uint32_t length = instrs[i].instr.length;
    sparse.instrs.push_back({addr, offset, length});
    offset += length;
    if (i > 0) naive.fallthrough.emplace(sparse.instrs[i - 1].addr, addr);
  }
  patch_data(naive, tables.rand);
  // The mapping exists on the naive hardware too.
  naive.tables = tables;
  naive.entry = tables.to_randomized(naive.entry);
}

uint32_t next_pow2(uint32_t v) {
  return v <= 1 ? 1 : std::bit_ceil(v);
}

/// Recovers the CFG, runs the analyses and fixes the seed-independent
/// placement order of an original-layout image.
std::shared_ptr<Program> build_program(binary::Image image,
                                       ReturnPolicy return_policy) {
  auto program = std::make_shared<Program>();
  program->image = std::move(image);
  program->cfg = build_cfg(program->image);
  program->analysis = analyze(program->image, program->cfg, return_policy);
  program->return_policy = return_policy;
  const auto& instrs = program->cfg.instrs;
  std::vector<uint32_t> keys;
  program->movable.reserve(instrs.size());
  keys.reserve(instrs.size());
  for (uint32_t i = 0; i < instrs.size(); ++i) {
    if (program->analysis.unrandomized.contains(instrs[i].addr)) continue;
    program->movable.push_back(i);
    keys.push_back(instrs[i].addr);
  }
  program->table_order = table_order_of(keys);
  // Encoded lengths depend on the opcode alone, so re-encoding a site with
  // another immediate rewrites exactly its own bytes.
  const auto& code_imm_sites = program->analysis.code_imm_sites;
  for (uint32_t i = 0; i < instrs.size(); ++i) {
    if (has_code_imm(instrs[i], code_imm_sites)) {
      program->code_sites.emplace_back(
          i, static_cast<uint32_t>(program->identity_code.size()));
    }
    isa::encode(instrs[i].instr, program->identity_code);
  }
  return program;
}

/// The seed-dependent half: draws `result`'s VCFR image, tables included.
void place_into(const Program& program, const RandomizeOptions& options,
                RandomizeResult& result) {
  if (options.slot_bytes < isa::kMaxInstrLength + 1) {
    throw std::invalid_argument("randomize: slot_bytes too small");
  }
  if (options.spread < 1.0) {
    throw std::invalid_argument("randomize: spread must be >= 1.0");
  }

  const auto& instrs = program.cfg.instrs;
  const std::vector<uint32_t>& movable = program.movable;

  // --- assign randomized addresses ----------------------------------------
  // drawn[k] (a cfg.instrs index) lands at rand_addr[k]; `fill` orders
  // the table inserts by k.
  std::mt19937_64 rng(options.seed);
  std::vector<uint32_t> rand_addr(movable.size());
  const std::vector<uint32_t>* drawn = &movable;
  const TableOrder* fill = &program.table_order;
  std::vector<uint32_t> page_drawn;
  TableOrder page_fill;

  uint32_t region_size = 0;
  if (options.placement == PlacementPolicy::kFullSpread) {
    const auto slot_count = static_cast<uint32_t>(std::max<double>(
        static_cast<double>(movable.size()),
        static_cast<double>(movable.size()) * options.spread));
    std::vector<uint32_t> slots(slot_count);
    for (uint32_t i = 0; i < slot_count; ++i) slots[i] = i;
    std::shuffle(slots.begin(), slots.end(), rng);

    for (size_t k = 0; k < movable.size(); ++k) {
      const uint32_t jitter = static_cast<uint32_t>(
          rng() % (options.slot_bytes - instrs[movable[k]].instr.length + 1));
      rand_addr[k] = options.rand_base + slots[k] * options.slot_bytes + jitter;
    }
    region_size = slot_count * options.slot_bytes;
  } else {
    // kPageConfined: per original 4 KiB page, shuffle its instructions and
    // re-pack them (with random gaps from the page's slack) into one
    // dedicated randomized region. The region stride carries one cache
    // line of slop beyond the page size: an instruction *starting* in a
    // page's last bytes straddles into the next page, so a group's total
    // can slightly exceed 4096 bytes.
    constexpr uint32_t kPage = 4096;
    constexpr uint32_t kStride = kPage + 64;
    std::map<uint32_t, std::vector<uint32_t>> by_page;  // ordered for determinism
    for (const uint32_t idx : movable) {
      by_page[(instrs[idx].addr - program.image.code_base) / kPage].push_back(
          idx);
    }
    page_drawn.reserve(movable.size());
    std::vector<uint32_t> keys;
    keys.reserve(movable.size());
    uint32_t max_page = 0;
    for (auto& [page, list] : by_page) {
      max_page = std::max(max_page, page);
      std::shuffle(list.begin(), list.end(), rng);
      uint32_t total = 0;
      for (const uint32_t idx : list) total += instrs[idx].instr.length;
      uint32_t slack = kStride > total ? kStride - total : 0;
      uint32_t pos = options.rand_base + page * kStride;
      size_t remaining = list.size();
      for (const uint32_t idx : list) {
        const uint32_t gap_cap =
            remaining > 0 ? static_cast<uint32_t>(2 * slack / remaining + 1)
                          : 1;
        const uint32_t gap = std::min<uint32_t>(slack, rng() % gap_cap);
        pos += gap;
        slack -= gap;
        rand_addr[page_drawn.size()] = pos;
        page_drawn.push_back(idx);
        keys.push_back(instrs[idx].addr);
        pos += instrs[idx].instr.length;
        --remaining;
      }
    }
    region_size = (max_page + 1) * kStride;
    page_fill = table_order_of(keys);
    drawn = &page_drawn;
    fill = &page_fill;
  }

  binary::Image& vcfr = result.vcfr;
  vcfr = program.image;
  vcfr.layout = binary::Layout::kVcfr;
  vcfr.seed = options.seed;
  vcfr.rand_base = options.rand_base;
  vcfr.rand_size = region_size;

  // --- translation tables ------------------------------------------------------
  binary::TranslationTables& tables = vcfr.tables;
  tables.derand.reserve(fill->order.size());
  for (const uint32_t k : fill->order) {
    tables.derand.emplace(rand_addr[k], instrs[(*drawn)[k]].addr);
  }
  tables.rand = fill->rand_positions;
  tables.rand.transform_values([&](uint32_t k) { return rand_addr[k]; });
  tables.unrandomized = program.analysis.unrandomized;
  tables.table_base = options.table_base;
  // Open-addressed table over (derand + rand) entries, 8 bytes each, at
  // ~full occupancy (the walker models a single-probe perfect hash; the
  // size only determines the table's cache footprint).
  tables.table_bytes =
      next_pow2(static_cast<uint32_t>(fill->order.size()) * 2) * 8;

  // --- VCFR image ------------------------------------------------------------
  vcfr.code = program.identity_code;
  std::vector<uint8_t> bytes;
  for (const auto& [i, offset] : program.code_sites) {
    const uint32_t* ra = tables.rand.lookup(instrs[i].instr.imm);
    if (ra == nullptr) continue;
    isa::Instr instr = instrs[i].instr;
    instr.imm = *ra;
    bytes.clear();
    isa::encode(instr, bytes);
    std::copy(bytes.begin(), bytes.end(), vcfr.code.begin() + offset);
  }
  patch_data(vcfr, tables.rand);
}

}  // namespace

binary::Image rewrite_calls_software(const binary::Image& image,
                                     SoftwareRewriteStats* stats) {
  if (image.layout != binary::Layout::kOriginal) {
    throw std::invalid_argument(
        "rewrite_calls_software: requires an original-layout image");
  }
  const Cfg cfg = build_cfg(image);
  // Conservative safety: the software option has no bitmap, so any callee
  // that touches its return address disqualifies the site.
  const AnalysisResult ar = analyze(image, cfg, ReturnPolicy::kConservative);

  // Pass 1: build the transformed instruction list and the old->new
  // address map for instruction starts.
  struct NewInstr {
    isa::Instr instr;
    uint32_t new_addr = 0;
    bool pushi_needs_ret = false;  // imm := address after the next instr
  };
  std::vector<NewInstr> out;
  out.reserve(cfg.instrs.size() + 64);
  std::unordered_map<uint32_t, uint32_t> addr_map;
  addr_map.reserve(cfg.instrs.size());
  uint32_t cursor = image.code_base;
  uint32_t rewritten = 0;

  for (const auto& e : cfg.instrs) {
    addr_map.emplace(e.addr, cursor);
    const uint32_t ret_site = e.addr + e.instr.length;
    const FunctionExtent* callee =
        e.instr.op == Op::kCall ? cfg.function_of(e.instr.imm) : nullptr;
    const bool rewrite = e.instr.op == Op::kCall && callee != nullptr &&
                         callee->has_ret &&
                         !ar.unsafe_return_sites.contains(ret_site) &&
                         cfg.is_instr_start(ret_site);
    if (rewrite) {
      ++rewritten;
      isa::Instr push{.op = Op::kPushI};
      push.length = isa::instr_length(static_cast<uint8_t>(Op::kPushI));
      out.push_back({push, cursor, /*pushi_needs_ret=*/true});
      cursor += push.length;
      isa::Instr jmp{.op = Op::kJmp, .imm = e.instr.imm};
      jmp.length = isa::instr_length(static_cast<uint8_t>(Op::kJmp));
      out.push_back({jmp, cursor, false});
      cursor += jmp.length;
    } else {
      out.push_back({e.instr, cursor, false});
      cursor += e.instr.length;
    }
  }

  // Pass 2: re-link every address reference through addr_map and resolve
  // the push immediates (the return address is the instruction after the
  // jmp, in new-address terms).
  auto remap_old = [&](uint32_t a) {
    auto it = addr_map.find(a);
    return it == addr_map.end() ? a : it->second;
  };
  binary::Image result = image;
  result.code.clear();
  result.code.reserve(cursor - image.code_base);
  for (size_t i = 0; i < out.size(); ++i) {
    isa::Instr instr = out[i].instr;
    if (out[i].pushi_needs_ret) {
      // Skip the jmp that follows this push: the return lands after it.
      instr.imm = i + 2 < out.size() ? out[i + 2].new_addr : cursor;
    } else if (instr.is_direct_transfer() ||
               (instr.op == Op::kMovRI && cfg.is_instr_start(instr.imm))) {
      instr.imm = remap_old(instr.imm);
    }
    isa::encode(instr, result.code);
  }
  for (const auto& r : result.relocs) {
    result.write_data32(r.data_addr, remap_old(result.read_data32(r.data_addr)));
  }
  for (auto& f : result.functions) f.addr = remap_old(f.addr);
  result.entry = remap_old(result.entry);

  if (stats != nullptr) {
    stats->calls_rewritten = rewritten;
    stats->code_bytes_before = static_cast<uint32_t>(image.code.size());
    stats->code_bytes_after = static_cast<uint32_t>(result.code.size());
  }
  return result;
}

std::shared_ptr<const Program> prepare(binary::Image image,
                                       ReturnPolicy return_policy) {
  if (image.layout != binary::Layout::kOriginal) {
    throw std::invalid_argument("prepare: image is already randomized");
  }
  return build_program(std::move(image), return_policy);
}

RandomizeResult place(const std::shared_ptr<const Program>& program,
                      const RandomizeOptions& options) {
  if (options.return_option != ReturnOption::kArchitectural ||
      options.return_policy != program->return_policy) {
    throw std::invalid_argument(
        "place: return options do not match the prepared program");
  }
  RandomizeResult result;
  place_into(*program, options, result);
  // Aliasing pointer: the result keeps the whole shared program alive.
  result.analysis = std::shared_ptr<const AnalysisResult>(
      program, &program->analysis);
  return result;
}

RandomizeResult randomize(const binary::Image& image,
                          const RandomizeOptions& options) {
  if (image.layout != binary::Layout::kOriginal) {
    throw std::invalid_argument("randomize: image is already randomized");
  }
  RandomizeResult result;
  RandomizeOptions inner = options;
  std::shared_ptr<Program> program;
  if (options.return_option == ReturnOption::kSoftwareRewrite) {
    // The remaining (un-rewritten) calls must push original addresses:
    // no architectural return randomization exists in this configuration.
    inner.return_option = ReturnOption::kArchitectural;
    inner.return_policy = ReturnPolicy::kNone;
    program = build_program(rewrite_calls_software(image, &result.sw_stats),
                            inner.return_policy);
  } else {
    program = build_program(image, options.return_policy);
  }
  place_into(*program, inner, result);
  emit_naive(*program, inner.seed, result);
  // Keep only the analysis; the program's CFG dies here.
  result.analysis =
      std::make_shared<const AnalysisResult>(std::move(program->analysis));
  return result;
}

}  // namespace vcfr::rewriter
