#include "isa/assembler.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

namespace hidisc::isa {
namespace {

struct Line {
  int number = 0;                    // 1-based source line
  std::vector<std::string> labels;   // labels defined on this line
  std::string mnemonic;              // lower-cased; empty for label-only
  std::vector<std::string> operands; // comma-separated operand fields
};

[[nodiscard]] std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

[[nodiscard]] std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

[[nodiscard]] bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}
[[nodiscard]] bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

// Splits a line into labels / mnemonic / operands.  Operand splitting
// respects double-quoted strings (for .asciz).
Line tokenize(int number, std::string_view raw) {
  Line line;
  line.number = number;
  // Strip comments (respecting quotes).
  std::string text;
  bool in_quote = false;
  for (char c : raw) {
    if (c == '"') in_quote = !in_quote;
    if (!in_quote && (c == '#' || c == ';')) break;
    text.push_back(c);
  }
  std::string_view rest = trim(text);
  // Leading labels.
  while (true) {
    std::size_t i = 0;
    while (i < rest.size() && is_ident_char(rest[i])) ++i;
    if (i > 0 && i < rest.size() && rest[i] == ':' &&
        is_ident_start(rest[0])) {
      line.labels.emplace_back(rest.substr(0, i));
      rest = trim(rest.substr(i + 1));
    } else {
      break;
    }
  }
  if (rest.empty()) return line;
  // Mnemonic.
  std::size_t i = 0;
  while (i < rest.size() && !std::isspace(static_cast<unsigned char>(rest[i])))
    ++i;
  line.mnemonic = lower(rest.substr(0, i));
  rest = trim(rest.substr(i));
  // Operands.
  std::string cur;
  in_quote = false;
  for (char c : rest) {
    if (c == '"') in_quote = !in_quote;
    if (c == ',' && !in_quote) {
      line.operands.emplace_back(trim(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!trim(cur).empty() || !line.operands.empty())
    if (!trim(cur).empty()) line.operands.emplace_back(trim(cur));
  return line;
}

const std::map<std::string, Reg, std::less<>>& reg_aliases() {
  static const std::map<std::string, Reg, std::less<>> table = [] {
    std::map<std::string, Reg, std::less<>> t;
    // Not `"r" + std::to_string(i)`: GCC 12 flags that with a false
    // -Wrestrict once it is inlined.
    const auto name = [](char c, int i) {
      return std::string(1, c).append(std::to_string(i));
    };
    for (int i = 0; i < kNumIntRegs; ++i)
      t[name('r', i)] = ir(static_cast<std::uint8_t>(i));
    for (int i = 0; i < kNumFpRegs; ++i)
      t[name('f', i)] = fr(static_cast<std::uint8_t>(i));
    t["zero"] = ir(0); t["at"] = ir(1);
    t["v0"] = ir(2); t["v1"] = ir(3);
    for (int i = 0; i < 4; ++i)
      t[name('a', i)] = ir(static_cast<std::uint8_t>(4 + i));
    for (int i = 0; i < 8; ++i)
      t[name('t', i)] = ir(static_cast<std::uint8_t>(8 + i));
    for (int i = 0; i < 8; ++i)
      t[name('s', i)] = ir(static_cast<std::uint8_t>(16 + i));
    t["t8"] = ir(24); t["t9"] = ir(25);
    t["k0"] = ir(26); t["k1"] = ir(27);
    t["gp"] = ir(28); t["sp"] = ir(29); t["fp"] = ir(30); t["ra"] = ir(31);
    return t;
  }();
  return table;
}

const std::map<std::string, Opcode, std::less<>>& mnemonic_table() {
  static const std::map<std::string, Opcode, std::less<>> table = [] {
    std::map<std::string, Opcode, std::less<>> t;
    for (int i = 0; i < kNumOpcodes; ++i) {
      const auto op = static_cast<Opcode>(i);
      t[std::string(op_info(op).name)] = op;
    }
    return t;
  }();
  return table;
}

class AssemblerImpl {
 public:
  explicit AssemblerImpl(std::string_view source) {
    std::string text(source);
    std::istringstream in(text);
    std::string raw;
    int number = 0;
    while (std::getline(in, raw)) lines_.push_back(tokenize(++number, raw));
  }

  Program run() {
    pass_define_symbols();
    pass_emit();
    if (auto it = prog_.code_labels.find("_start");
        it != prog_.code_labels.end())
      prog_.entry = it->second;
    return std::move(prog_);
  }

 private:
  enum class Section { Text, Data };

  [[nodiscard]] static bool is_directive(const std::string& m) {
    return !m.empty() && m[0] == '.';
  }

  // Size in bytes a data directive contributes; instructions contribute one
  // code slot each (all pseudos are single-instruction).
  void pass_define_symbols() {
    Section sec = Section::Text;
    std::int32_t code_idx = 0;
    std::uint64_t data_off = 0;
    for (const auto& line : lines_) {
      if (line.mnemonic == ".text") { sec = Section::Text; bind(line, sec, code_idx, data_off); continue; }
      if (line.mnemonic == ".data") { sec = Section::Data; bind(line, sec, code_idx, data_off); continue; }
      if (line.mnemonic == ".align" && sec == Section::Data) {
        const auto a = static_cast<std::uint64_t>(parse_int(line, 0));
        if (a != 0 && (a & (a - 1)) == 0) data_off = (data_off + a - 1) & ~(a - 1);
        else throw AsmError(line.number, ".align requires a power of two");
        bind(line, sec, code_idx, data_off);
        continue;
      }
      bind(line, sec, code_idx, data_off);
      if (line.mnemonic.empty()) continue;
      if (sec == Section::Data) {
        data_off += data_size(line);
      } else if (!is_directive(line.mnemonic)) {
        ++code_idx;
      }
    }
  }

  void bind(const Line& line, Section sec, std::int32_t code_idx,
            std::uint64_t data_off) {
    for (const auto& label : line.labels) {
      const bool dup = prog_.code_labels.count(label) ||
                       prog_.data_labels.count(label);
      if (dup) throw AsmError(line.number, "duplicate label: " + label);
      if (sec == Section::Text)
        prog_.code_labels.emplace(label, code_idx);
      else
        prog_.data_labels.emplace(label, prog_.data_base + data_off);
    }
  }

  [[nodiscard]] std::uint64_t data_size(const Line& line) const {
    const auto& m = line.mnemonic;
    const auto n = line.operands.size();
    if (m == ".byte") return n;
    if (m == ".half") return 2 * n;
    if (m == ".word") return 4 * n;
    if (m == ".dword" || m == ".double") return 8 * n;
    if (m == ".space") return static_cast<std::uint64_t>(parse_int(line, 0));
    if (m == ".asciz") {
      if (n != 1) throw AsmError(line.number, ".asciz takes one string");
      return unquote(line, line.operands[0]).size() + 1;
    }
    throw AsmError(line.number, "unknown data directive: " + m);
  }

  void pass_emit() {
    Section sec = Section::Text;
    for (const auto& line : lines_) {
      if (line.mnemonic.empty()) continue;
      if (line.mnemonic == ".text") { sec = Section::Text; continue; }
      if (line.mnemonic == ".data") { sec = Section::Data; continue; }
      if (sec == Section::Data)
        emit_data(line);
      else
        emit_code(line);
    }
  }

  // ---- data emission -----------------------------------------------------

  void append_bytes(const void* src, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(src);
    prog_.data.insert(prog_.data.end(), p, p + n);
  }

  void emit_data(const Line& line) {
    const auto& m = line.mnemonic;
    if (m == ".align") {
      const auto a = static_cast<std::uint64_t>(parse_int(line, 0));
      while (prog_.data.size() % a != 0) prog_.data.push_back(0);
      return;
    }
    if (m == ".space") {
      const auto n = static_cast<std::uint64_t>(parse_int(line, 0));
      prog_.data.insert(prog_.data.end(), n, 0);
      return;
    }
    if (m == ".asciz") {
      const std::string s = unquote(line, line.operands[0]);
      append_bytes(s.data(), s.size());
      prog_.data.push_back(0);
      return;
    }
    if (m == ".double") {
      for (const auto& opnd : line.operands) {
        const double v = parse_double(line, opnd);
        append_bytes(&v, sizeof v);
      }
      return;
    }
    int width = 0;
    if (m == ".byte") width = 1;
    else if (m == ".half") width = 2;
    else if (m == ".word") width = 4;
    else if (m == ".dword") width = 8;
    else throw AsmError(line.number, "unknown data directive: " + m);
    for (const auto& opnd : line.operands) {
      const std::int64_t v = eval_expr(line, opnd);
      append_bytes(&v, static_cast<std::size_t>(width));
    }
  }

  // ---- code emission -----------------------------------------------------

  void emit_code(const Line& line) {
    const auto& m = line.mnemonic;
    if (is_directive(m))
      throw AsmError(line.number, "directive not allowed in .text: " + m);
    Instruction inst;
    if (emit_pseudo(line, inst)) {
      prog_.code.push_back(inst);
      return;
    }
    const auto& table = mnemonic_table();
    auto it = table.find(m);
    if (it == table.end())
      throw AsmError(line.number, "unknown mnemonic: " + m);
    inst.op = it->second;
    parse_operands(line, inst);
    prog_.code.push_back(inst);
  }

  bool emit_pseudo(const Line& line, Instruction& inst) {
    const auto& m = line.mnemonic;
    if (m == "la" || m == "li") {
      need(line, 2);
      inst.op = Opcode::ADDI;
      inst.dst = parse_reg(line, line.operands[0], RegKind::Int);
      inst.src1 = kZero;
      inst.imm = eval_expr(line, line.operands[1]);
      return true;
    }
    if (m == "mv") {
      need(line, 2);
      inst.op = Opcode::ADD;
      inst.dst = parse_reg(line, line.operands[0], RegKind::Int);
      inst.src1 = parse_reg(line, line.operands[1], RegKind::Int);
      inst.src2 = kZero;
      return true;
    }
    if (m == "neg") {
      need(line, 2);
      inst.op = Opcode::SUB;
      inst.dst = parse_reg(line, line.operands[0], RegKind::Int);
      inst.src1 = kZero;
      inst.src2 = parse_reg(line, line.operands[1], RegKind::Int);
      return true;
    }
    if (m == "not") {
      need(line, 2);
      inst.op = Opcode::NOR;
      inst.dst = parse_reg(line, line.operands[0], RegKind::Int);
      inst.src1 = parse_reg(line, line.operands[1], RegKind::Int);
      inst.src2 = kZero;
      return true;
    }
    if (m == "b") {
      need(line, 1);
      inst.op = Opcode::J;
      inst.target = code_target(line, line.operands[0]);
      return true;
    }
    return false;
  }

  void parse_operands(const Line& line, Instruction& inst) {
    const OpInfo& info = inst.info();
    using O = Opcode;
    const RegKind dk = info.is_fp_dst ? RegKind::Fp : RegKind::Int;
    const RegKind sk = info.is_fp_src ? RegKind::Fp : RegKind::Int;
    switch (info.cls) {
      case OpClass::Load: {
        need(line, 2);
        inst.dst = parse_reg(line, line.operands[0], dk);
        parse_mem_operand(line, line.operands[1], inst);
        return;
      }
      case OpClass::Store: {
        need(line, 2);
        inst.src2 = parse_reg(line, line.operands[0], sk);
        parse_mem_operand(line, line.operands[1], inst);
        return;
      }
      case OpClass::Prefetch: {
        need(line, 1);
        parse_mem_operand(line, line.operands[0], inst);
        return;
      }
      case OpClass::Branch: {
        need(line, 3);
        inst.src1 = parse_reg(line, line.operands[0], RegKind::Int);
        inst.src2 = parse_reg(line, line.operands[1], RegKind::Int);
        inst.target = code_target(line, line.operands[2]);
        return;
      }
      case OpClass::Jump: {
        if (inst.op == O::J || inst.op == O::JAL) {
          need(line, 1);
          if (inst.op == O::JAL) inst.dst = kRa;
          inst.target = code_target(line, line.operands[0]);
        } else {  // jr / jalr
          need(line, 1);
          if (inst.op == O::JALR) inst.dst = kRa;
          inst.src1 = parse_reg(line, line.operands[0], RegKind::Int);
        }
        return;
      }
      case OpClass::Halt:
      case OpClass::Nop:
        need(line, 0);
        return;
      case OpClass::Queue: {
        switch (inst.op) {
          case O::PUSHLDQ: case O::PUSHSDQ:
            need(line, 1);
            inst.src1 = parse_reg(line, line.operands[0], RegKind::Int);
            return;
          case O::PUSHLDQF: case O::PUSHSDQF:
            need(line, 1);
            inst.src1 = parse_reg(line, line.operands[0], RegKind::Fp);
            return;
          case O::POPLDQ: case O::POPSDQ:
            need(line, 1);
            inst.dst = parse_reg(line, line.operands[0], RegKind::Int);
            return;
          case O::POPLDQF: case O::POPSDQF:
            need(line, 1);
            inst.dst = parse_reg(line, line.operands[0], RegKind::Fp);
            return;
          case O::BEOD:
            need(line, 1);
            inst.target = code_target(line, line.operands[0]);
            return;
          default:  // puteod / getscq / putscq
            need(line, 0);
            return;
        }
      }
      default: break;
    }
    // ALU forms.
    if (inst.op == O::LUI) {
      need(line, 2);
      inst.dst = parse_reg(line, line.operands[0], RegKind::Int);
      inst.imm = eval_expr(line, line.operands[1]);
      return;
    }
    if (inst.op == O::CVTIF) {
      need(line, 2);
      inst.dst = parse_reg(line, line.operands[0], RegKind::Fp);
      inst.src1 = parse_reg(line, line.operands[1], RegKind::Int);
      return;
    }
    if (inst.op == O::CVTFI) {
      need(line, 2);
      inst.dst = parse_reg(line, line.operands[0], RegKind::Int);
      inst.src1 = parse_reg(line, line.operands[1], RegKind::Fp);
      return;
    }
    if (info.has_imm) {
      need(line, 3);
      inst.dst = parse_reg(line, line.operands[0], dk);
      inst.src1 = parse_reg(line, line.operands[1], sk);
      inst.imm = eval_expr(line, line.operands[2]);
      return;
    }
    if (info.reads_src2) {
      need(line, 3);
      inst.dst = parse_reg(line, line.operands[0], dk);
      inst.src1 = parse_reg(line, line.operands[1], sk);
      inst.src2 = parse_reg(line, line.operands[2], sk);
      return;
    }
    // Unary register ops (fneg/fabs/fmov/fsqrt).
    need(line, 2);
    inst.dst = parse_reg(line, line.operands[0], dk);
    inst.src1 = parse_reg(line, line.operands[1], sk);
  }

  // `imm(reg)` or `label` / `label+off` (absolute, base r0).
  void parse_mem_operand(const Line& line, const std::string& text,
                         Instruction& inst) {
    const auto open = text.find('(');
    if (open == std::string::npos) {
      inst.src1 = kZero;
      inst.imm = eval_expr(line, text);
      return;
    }
    const auto close = text.find(')', open);
    if (close == std::string::npos)
      throw AsmError(line.number, "missing ')' in memory operand");
    const std::string disp(trim(std::string_view(text).substr(0, open)));
    const std::string base(
        trim(std::string_view(text).substr(open + 1, close - open - 1)));
    inst.imm = disp.empty() ? 0 : eval_expr(line, disp);
    inst.src1 = parse_reg(line, base, RegKind::Int);
  }

  void need(const Line& line, std::size_t n) const {
    if (line.operands.size() != n)
      throw AsmError(line.number,
                     "expected " + std::to_string(n) + " operands for '" +
                         line.mnemonic + "', got " +
                         std::to_string(line.operands.size()));
  }

  Reg parse_reg(const Line& line, const std::string& text,
                RegKind expect) const {
    const auto& aliases = reg_aliases();
    auto it = aliases.find(lower(text));
    if (it == aliases.end())
      throw AsmError(line.number, "bad register: " + text);
    if (it->second.kind != expect)
      throw AsmError(line.number,
                     (expect == RegKind::Fp
                          ? "expected FP register, got: "
                          : "expected integer register, got: ") + text);
    return it->second;
  }

  std::int32_t code_target(const Line& line, const std::string& text) const {
    auto it = prog_.code_labels.find(text);
    if (it != prog_.code_labels.end()) return it->second;
    // Numeric absolute index.
    std::int32_t v = 0;
    const auto* b = text.data();
    const auto* e = b + text.size();
    auto [p, ec] = std::from_chars(b, e, v);
    if (ec == std::errc() && p == e) return v;
    throw AsmError(line.number, "unknown code label: " + text);
  }

  std::int64_t parse_int(const Line& line, std::size_t operand) const {
    if (operand >= line.operands.size())
      throw AsmError(line.number, "missing operand");
    return eval_expr(line, line.operands[operand]);
  }

  // Integer expression: [label][(+|-)int] | int (dec or 0x hex, signed).
  std::int64_t eval_expr(const Line& line, const std::string& text) const {
    std::string_view s = trim(text);
    if (s.empty()) throw AsmError(line.number, "empty expression");
    if (is_ident_start(s[0])) {
      std::size_t i = 0;
      while (i < s.size() && is_ident_char(s[i])) ++i;
      const std::string label(s.substr(0, i));
      std::int64_t base = 0;
      if (auto it = prog_.data_labels.find(label);
          it != prog_.data_labels.end()) {
        base = static_cast<std::int64_t>(it->second);
      } else if (auto jt = prog_.code_labels.find(label);
                 jt != prog_.code_labels.end()) {
        base = jt->second;
      } else {
        throw AsmError(line.number, "unknown symbol: " + label);
      }
      s = trim(s.substr(i));
      if (s.empty()) return base;
      if (s[0] != '+' && s[0] != '-')
        throw AsmError(line.number, "bad expression: " + text);
      const bool negate = s[0] == '-';
      const std::int64_t off = parse_literal(line, trim(s.substr(1)));
      return negate ? base - off : base + off;
    }
    return parse_literal(line, s);
  }

  std::int64_t parse_literal(const Line& line, std::string_view s) const {
    bool neg = false;
    if (!s.empty() && (s[0] == '-' || s[0] == '+')) {
      neg = s[0] == '-';
      s.remove_prefix(1);
    }
    int base = 10;
    if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
      base = 16;
      s.remove_prefix(2);
    }
    std::uint64_t v = 0;
    auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v, base);
    if (ec != std::errc() || p != s.data() + s.size())
      throw AsmError(line.number, "bad integer literal");
    const auto sv = static_cast<std::int64_t>(v);
    return neg ? -sv : sv;
  }

  double parse_double(const Line& line, const std::string& text) const {
    try {
      std::size_t pos = 0;
      const double v = std::stod(text, &pos);
      if (pos != text.size()) throw std::invalid_argument(text);
      return v;
    } catch (const std::exception&) {
      throw AsmError(line.number, "bad floating literal: " + text);
    }
  }

  static std::string unquote(const Line& line, const std::string& text) {
    if (text.size() < 2 || text.front() != '"' || text.back() != '"')
      throw AsmError(line.number, "expected quoted string");
    std::string out;
    for (std::size_t i = 1; i + 1 < text.size(); ++i) {
      char c = text[i];
      if (c == '\\' && i + 2 < text.size()) {
        ++i;
        switch (text[i]) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case '0': c = '\0'; break;
          case '\\': c = '\\'; break;
          case '"': c = '"'; break;
          default: c = text[i]; break;
        }
      }
      out.push_back(c);
    }
    return out;
  }

  std::vector<Line> lines_;
  Program prog_;
};

}  // namespace

Program Assembler::assemble(std::string_view source) const {
  return AssemblerImpl(source).run();
}

}  // namespace hidisc::isa
