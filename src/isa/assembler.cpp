#include "isa/assembler.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/encoding.hpp"

namespace vcfr::isa {
namespace {

using binary::Image;

struct AsmError : std::runtime_error {
  AsmError(size_t line, const std::string& msg)
      : std::runtime_error("asm:" + std::to_string(line) + ": " + msg) {}
};

/// An instruction whose immediate/target may still be symbolic. Labels
/// are views into the source, which outlives the assembler.
struct PendingInstr {
  Instr instr;
  /// Jump/call target or `mov rX, @label` address; empty when numeric.
  std::string_view label;
  size_t line = 0;
};

/// A pending data item.
struct DataItem {
  enum class Kind { kWord, kByte, kSpace, kPtr } kind = Kind::kWord;
  uint32_t value = 0;      // word/byte value or space size
  std::string_view label;  // for kPtr
  size_t line = 0;
  uint32_t addr = 0;
};

/// How a mnemonic's operands are parsed.
enum class Form : uint8_t {
  kNone,      // nop, halt, ret
  kSys,       // sys <int>
  kOneReg,    // out/pop/jmpr/callr <reg>
  kPush,      // push <reg>|<int>
  kRegOrImm,  // mov/add/...: <reg>, <reg>|<int>|@label
  kRegReg,    // div/test <reg>, <reg>
  kMem,       // ld/st/ldb/stb <reg>, [<reg>+disp]
  kDirect,    // jmp/call/j<cond> <int>|<label>
};

/// A mnemonic of up to 7 characters packed with its length into one word;
/// longer names get a key no table entry has.
constexpr uint64_t mnemonic_key(std::string_view name) {
  if (name.size() > 7) return ~uint64_t{0};
  uint64_t key = name.size();
  for (size_t i = 0; i < name.size(); ++i) {
    key |= uint64_t{static_cast<uint8_t>(name[i])} << (8 * (i + 1));
  }
  return key;
}

struct Mnemonic {
  uint64_t key;
  Form form;
  Op op;      // the register (or only) form
  Op op_imm;  // the immediate form of kRegOrImm / kPush
  Cond cond = Cond::kEq;
};

constexpr Mnemonic mn(std::string_view name, Form form, Op op,
                      Op op_imm = Op::kNop, Cond cond = Cond::kEq) {
  return {mnemonic_key(name), form, op, op_imm, cond};
}

constexpr std::array kMnemonics = {
    mn("mov", Form::kRegOrImm, Op::kMovRR, Op::kMovRI),
    mn("ld", Form::kMem, Op::kLd),
    mn("st", Form::kMem, Op::kSt),
    mn("add", Form::kRegOrImm, Op::kAddRR, Op::kAddRI),
    mn("cmp", Form::kRegOrImm, Op::kCmpRR, Op::kCmpRI),
    mn("jmp", Form::kDirect, Op::kJmp),
    mn("call", Form::kDirect, Op::kCall),
    mn("ret", Form::kNone, Op::kRet),
    mn("sub", Form::kRegOrImm, Op::kSubRR, Op::kSubRI),
    mn("and", Form::kRegOrImm, Op::kAndRR, Op::kAndRI),
    mn("or", Form::kRegOrImm, Op::kOrRR, Op::kOrRI),
    mn("xor", Form::kRegOrImm, Op::kXorRR, Op::kXorRI),
    mn("shl", Form::kRegOrImm, Op::kShlRR, Op::kShlRI),
    mn("shr", Form::kRegOrImm, Op::kShrRR, Op::kShrRI),
    mn("mul", Form::kRegOrImm, Op::kMulRR, Op::kMulRI),
    mn("div", Form::kRegReg, Op::kDivRR),
    mn("test", Form::kRegReg, Op::kTestRR),
    mn("ldb", Form::kMem, Op::kLdb),
    mn("stb", Form::kMem, Op::kStb),
    mn("push", Form::kPush, Op::kPushR, Op::kPushI),
    mn("pop", Form::kOneReg, Op::kPopR),
    mn("out", Form::kOneReg, Op::kOut),
    mn("jmpr", Form::kOneReg, Op::kJmpR),
    mn("callr", Form::kOneReg, Op::kCallR),
    mn("nop", Form::kNone, Op::kNop),
    mn("halt", Form::kNone, Op::kHalt),
    mn("sys", Form::kSys, Op::kSys),
    mn("jeq", Form::kDirect, Op::kJcc, Op::kNop, Cond::kEq),
    mn("jne", Form::kDirect, Op::kJcc, Op::kNop, Cond::kNe),
    mn("jlt", Form::kDirect, Op::kJcc, Op::kNop, Cond::kLt),
    mn("jle", Form::kDirect, Op::kJcc, Op::kNop, Cond::kLe),
    mn("jgt", Form::kDirect, Op::kJcc, Op::kNop, Cond::kGt),
    mn("jge", Form::kDirect, Op::kJcc, Op::kNop, Cond::kGe),
    mn("jb", Form::kDirect, Op::kJcc, Op::kNop, Cond::kB),
    mn("jae", Form::kDirect, Op::kJcc, Op::kNop, Cond::kAe),
};

const Mnemonic* find_mnemonic(std::string_view name) {
  const uint64_t key = mnemonic_key(name);
  for (const Mnemonic& m : kMnemonics) {
    if (m.key == key) return &m;
  }
  return nullptr;
}

/// Up to two operands (every form's maximum) plus the count of all
/// non-empty ones, which error messages report.
struct Operands {
  std::array<std::string_view, 2> op;
  size_t count = 0;
};

class Assembler {
 public:
  explicit Assembler(std::string_view source) : source_(source) {}

  Image run() {
    parse();
    resolve();
    return std::move(image_);
  }

 private:
  // ---- lexing helpers -----------------------------------------------------

  /// The C locale's isspace.
  static bool is_space(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  static std::string_view trim(std::string_view s) {
    while (!s.empty() && is_space(s.front())) s.remove_prefix(1);
    while (!s.empty() && is_space(s.back())) s.remove_suffix(1);
    return s;
  }

  /// Splits "a, b" operands on commas, trimming whitespace and dropping
  /// empty pieces.
  static Operands split_operands(std::string_view s) {
    Operands out;
    while (true) {
      const size_t comma = s.find(',');
      const std::string_view piece = trim(s.substr(0, comma));
      if (!piece.empty()) {
        if (out.count < out.op.size()) out.op[out.count] = piece;
        ++out.count;
      }
      if (comma == std::string_view::npos) return out;
      s.remove_prefix(comma + 1);
    }
  }

  static std::optional<int64_t> parse_int(std::string_view s) {
    bool neg = false;
    if (!s.empty() && (s[0] == '-' || s[0] == '+')) {
      neg = s[0] == '-';
      s.remove_prefix(1);
    }
    if (s.empty()) return std::nullopt;
    int base = 10;
    if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
      base = 16;
      s.remove_prefix(2);
    }
    uint64_t value = 0;
    auto [ptr, ec] =
        std::from_chars(s.data(), s.data() + s.size(), value, base);
    if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
    return neg ? -static_cast<int64_t>(value) : static_cast<int64_t>(value);
  }

  static uint8_t expect_reg(std::string_view tok, size_t line) {
    auto reg = parse_reg(tok);
    if (!reg) throw AsmError(line, "expected register, got '" + std::string(tok) + "'");
    return *reg;
  }

  static int64_t expect_int(std::string_view tok, size_t line) {
    auto v = parse_int(tok);
    if (!v) throw AsmError(line, "expected integer, got '" + std::string(tok) + "'");
    return *v;
  }

  // ---- pass 1: parse ------------------------------------------------------

  void parse() {
    instrs_.reserve(std::count(source_.begin(), source_.end(), '\n') + 1);
    size_t line_no = 0;
    size_t pos = 0;
    while (pos <= source_.size()) {
      size_t eol = source_.find('\n', pos);
      if (eol == std::string_view::npos) eol = source_.size();
      std::string_view line = source_.substr(pos, eol - pos);
      pos = eol + 1;
      ++line_no;

      for (size_t i = 0; i < line.size(); ++i) {
        if (line[i] == ';' || line[i] == '#') {
          line = line.substr(0, i);
          break;
        }
      }
      line = trim(line);
      if (line.empty()) continue;

      if (line.back() == ':') {
        define_label(trim(line.substr(0, line.size() - 1)), line_no);
        continue;
      }
      if (line.front() == '.') {
        parse_directive(line, line_no);
        continue;
      }
      parse_instr(line, line_no);
    }
    if (pending_func_.has_value()) {
      throw AsmError(line_no, ".func not followed by a label");
    }
  }

  void define_label(std::string_view name, size_t line) {
    if (name.empty()) throw AsmError(line, "empty label");
    const uint32_t addr = in_data_ ? data_cursor_ : code_cursor_;
    if (!labels_.emplace(name, addr).second) {
      throw AsmError(line, "duplicate label '" + std::string(name) + "'");
    }
    if (pending_func_.has_value()) {
      image_.functions.push_back({std::string(*pending_func_), addr});
      pending_func_.reset();
    }
  }

  void parse_directive(std::string_view line, size_t line_no) {
    const size_t sp = line.find_first_of(" \t");
    std::string_view dir = line.substr(0, sp);
    std::string_view rest =
        sp == std::string_view::npos ? std::string_view{} : trim(line.substr(sp));

    if (dir == ".name") {
      image_.name = std::string(rest);
    } else if (dir == ".code") {
      image_.code_base = static_cast<uint32_t>(expect_int(rest, line_no));
      code_cursor_ = image_.code_base;
      in_data_ = false;
    } else if (dir == ".data") {
      if (!rest.empty()) {
        image_.data_base = static_cast<uint32_t>(expect_int(rest, line_no));
        data_cursor_ = image_.data_base;
      }
      in_data_ = true;
    } else if (dir == ".text") {
      in_data_ = false;
    } else if (dir == ".entry") {
      entry_label_ = rest;
      entry_line_ = line_no;
    } else if (dir == ".func") {
      if (rest.empty()) throw AsmError(line_no, ".func requires a name");
      pending_func_ = rest;
    } else if (dir == ".word") {
      data_items_.push_back({DataItem::Kind::kWord,
                             static_cast<uint32_t>(expect_int(rest, line_no)),
                             {}, line_no, data_cursor_});
      data_cursor_ += 4;
    } else if (dir == ".byte") {
      data_items_.push_back({DataItem::Kind::kByte,
                             static_cast<uint32_t>(expect_int(rest, line_no)),
                             {}, line_no, data_cursor_});
      data_cursor_ += 1;
    } else if (dir == ".space") {
      const auto n = expect_int(rest, line_no);
      if (n < 0) throw AsmError(line_no, ".space size must be non-negative");
      data_items_.push_back({DataItem::Kind::kSpace, static_cast<uint32_t>(n),
                             {}, line_no, data_cursor_});
      data_cursor_ += static_cast<uint32_t>(n);
    } else if (dir == ".ptr") {
      if (rest.empty()) throw AsmError(line_no, ".ptr requires a label");
      data_items_.push_back({DataItem::Kind::kPtr, 0, rest, line_no,
                             data_cursor_});
      data_cursor_ += 4;
    } else {
      throw AsmError(line_no, "unknown directive '" + std::string(dir) + "'");
    }
  }

  /// Parses "[rN]", "[rN+d]", "[rN-d]".
  static std::pair<uint8_t, int32_t> parse_mem(std::string_view tok,
                                               size_t line) {
    if (tok.size() < 3 || tok.front() != '[' || tok.back() != ']') {
      throw AsmError(line, "expected memory operand, got '" + std::string(tok) + "'");
    }
    std::string_view inner = trim(tok.substr(1, tok.size() - 2));
    size_t sign = inner.find_first_of("+-");
    if (sign == std::string_view::npos) {
      return {expect_reg(inner, line), 0};
    }
    const uint8_t base = expect_reg(trim(inner.substr(0, sign)), line);
    const int64_t disp = expect_int(inner.substr(sign), line);
    if (disp < -32768 || disp > 32767) {
      throw AsmError(line, "displacement out of 16-bit range");
    }
    return {base, static_cast<int32_t>(disp)};
  }

  void parse_instr(std::string_view line, size_t line_no) {
    const size_t sp = line.find_first_of(" \t");
    const std::string_view name = line.substr(0, sp);
    const Operands ops = split_operands(
        sp == std::string_view::npos ? std::string_view{} : line.substr(sp));
    const Mnemonic* m = find_mnemonic(name);
    if (m == nullptr) {
      throw AsmError(line_no, "unknown mnemonic '" + std::string(name) + "'");
    }

    PendingInstr p;
    p.line = line_no;
    Instr& in = p.instr;
    in.op = m->op;
    auto need = [&](size_t n) {
      if (ops.count != n) {
        throw AsmError(line_no, std::string(name) + " expects " +
                                    std::to_string(n) + " operand(s), got " +
                                    std::to_string(ops.count));
      }
    };

    switch (m->form) {
      case Form::kNone:
        need(0);
        break;
      case Form::kSys:
        need(1);
        in.imm = static_cast<uint32_t>(expect_int(ops.op[0], line_no));
        break;
      case Form::kOneReg:
        need(1);
        in.rd = expect_reg(ops.op[0], line_no);
        break;
      case Form::kPush:
        need(1);
        if (const auto reg = parse_reg(ops.op[0])) {
          in.rd = *reg;
        } else {
          in.op = m->op_imm;
          in.imm = static_cast<uint32_t>(expect_int(ops.op[0], line_no));
        }
        break;
      case Form::kRegOrImm:
        need(2);
        in.rd = expect_reg(ops.op[0], line_no);
        if (const auto reg = parse_reg(ops.op[1])) {
          in.rs = *reg;
        } else {
          in.op = m->op_imm;
          if (ops.op[1][0] == '@') {
            p.label = ops.op[1].substr(1);
          } else {
            in.imm = static_cast<uint32_t>(expect_int(ops.op[1], line_no));
          }
        }
        break;
      case Form::kRegReg:
        need(2);
        in.rd = expect_reg(ops.op[0], line_no);
        in.rs = expect_reg(ops.op[1], line_no);
        break;
      case Form::kMem: {
        need(2);
        in.rd = expect_reg(ops.op[0], line_no);
        const auto [base, disp] = parse_mem(ops.op[1], line_no);
        in.rs = base;
        in.disp = disp;
        break;
      }
      case Form::kDirect:
        need(1);
        in.cond = m->cond;
        if (const auto v = parse_int(ops.op[0])) {
          in.imm = static_cast<uint32_t>(*v);
        } else {
          p.label = ops.op[0];
        }
        break;
    }
    emit(p);
  }

  void emit(PendingInstr& p) {
    if (in_data_) {
      throw AsmError(p.line, "instruction in data section");
    }
    p.instr.length = instr_length(static_cast<uint8_t>(p.instr.op));
    code_cursor_ += p.instr.length;
    code_bytes_ += p.instr.length;
    instrs_.push_back(p);
  }

  // ---- pass 2: resolve and encode ----------------------------------------

  uint32_t lookup(std::string_view label, size_t line) const {
    auto it = labels_.find(label);
    if (it == labels_.end()) {
      throw AsmError(line, "undefined label '" + std::string(label) + "'");
    }
    return it->second;
  }

  void resolve() {
    image_.code.reserve(code_bytes_);
    for (auto& p : instrs_) {
      if (!p.label.empty()) p.instr.imm = lookup(p.label, p.line);
      encode(p.instr, image_.code);
    }
    image_.data.resize(data_cursor_ - image_.data_base, 0);
    for (const auto& d : data_items_) {
      const uint32_t off = d.addr - image_.data_base;
      switch (d.kind) {
        case DataItem::Kind::kWord:
          image_.write_data32(d.addr, d.value);
          break;
        case DataItem::Kind::kByte:
          image_.data[off] = static_cast<uint8_t>(d.value);
          break;
        case DataItem::Kind::kSpace:
          break;  // already zero-filled
        case DataItem::Kind::kPtr: {
          const uint32_t target = lookup(d.label, d.line);
          image_.write_data32(d.addr, target);
          if (target >= image_.code_base && target < code_cursor_) {
            image_.relocs.push_back({d.addr});
          }
          break;
        }
      }
    }
    if (!entry_label_.empty()) {
      image_.entry = lookup(entry_label_, entry_line_);
    } else {
      image_.entry = image_.code_base;
    }
  }

  std::string_view source_;
  Image image_ = [] {
    Image img;
    img.code_base = binary::kDefaultCodeBase;
    img.data_base = binary::kDefaultDataBase;
    return img;
  }();
  bool in_data_ = false;
  uint32_t code_cursor_ = binary::kDefaultCodeBase;
  uint32_t data_cursor_ = binary::kDefaultDataBase;
  size_t code_bytes_ = 0;
  std::unordered_map<std::string_view, uint32_t> labels_;
  std::vector<PendingInstr> instrs_;
  std::vector<DataItem> data_items_;
  std::optional<std::string_view> pending_func_;
  std::string_view entry_label_;
  size_t entry_line_ = 0;
};

}  // namespace

binary::Image assemble(std::string_view source) {
  return Assembler(source).run();
}

}  // namespace vcfr::isa
