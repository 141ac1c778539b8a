/**
 * @file
 * Implementation of the canonical-assembly parser.
 *
 * The scanner works directly on std::string_view slices and mimics
 * the legacy splitLine()/strtoll() parser bit-for-bit: whitespace is
 * elided anywhere inside an operand, numeric prefixes follow
 * strtoll's base-10 semantics (optional sign, clamp on overflow,
 * trailing garbage ignored), and a trailing comma is tolerated.
 * tests/test_frontend.cc locks this equivalence in with an A/B run
 * against a copy of the legacy parser.
 */

#include "isa/parse.hh"

#include <cctype>
#include <cstdint>
#include <limits>

#include "base/logging.hh"

namespace difftune::isa
{

namespace
{

inline bool
isBlank(char c)
{
    return std::isspace(static_cast<unsigned char>(c)) != 0;
}

inline bool
allBlank(std::string_view text)
{
    for (char c : text) {
        if (!isBlank(c))
            return false;
    }
    return true;
}

/** Trim surrounding whitespace from @p text (zero-copy). */
inline std::string_view
trimmed(std::string_view text)
{
    size_t begin = 0, end = text.size();
    while (begin < end && isBlank(text[begin]))
        ++begin;
    while (end > begin && isBlank(text[end - 1]))
        --end;
    return text.substr(begin, end - begin);
}

inline bool
hasInteriorBlank(std::string_view text)
{
    for (char c : text) {
        if (isBlank(c))
            return true;
    }
    return false;
}

/**
 * strtoll-compatible base-10 prefix parse: skip leading whitespace,
 * optional sign, greedy digits, clamp to the int64 range on
 * overflow. @p consumed is the number of characters consumed — 0
 * when no digit was found (strtoll's "no conversion" contract),
 * matching the legacy parser's use of the end pointer.
 */
int64_t
parseIntPrefix(std::string_view text, size_t &consumed)
{
    size_t pos = 0;
    while (pos < text.size() && isBlank(text[pos]))
        ++pos;
    bool negative = false;
    if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) {
        negative = text[pos] == '-';
        ++pos;
    }
    const uint64_t limit =
        negative ? uint64_t(1) << 63
                 : uint64_t(std::numeric_limits<int64_t>::max());
    uint64_t magnitude = 0;
    bool overflow = false;
    size_t digits = 0;
    for (; pos < text.size() && text[pos] >= '0' && text[pos] <= '9';
         ++pos, ++digits) {
        const uint64_t digit = uint64_t(text[pos] - '0');
        if (magnitude > (limit - digit) / 10)
            overflow = true;
        else
            magnitude = magnitude * 10 + digit;
    }
    if (digits == 0) {
        consumed = 0;
        return 0;
    }
    consumed = pos;
    if (overflow)
        magnitude = limit;
    // Negate in unsigned arithmetic (wraps modulo 2^64), then
    // convert: uint64 -> int64 is modular since C++20, so the
    // negative limit 2^63 lands exactly on INT64_MIN. Negating
    // int64_t(2^63) instead would overflow a signed value.
    return negative ? int64_t(0 - magnitude) : int64_t(magnitude);
}

/** The mnemonic slice of @p line; @p pos ends just past it. */
inline std::string_view
scanMnemonic(std::string_view line, size_t &pos)
{
    pos = 0;
    while (pos < line.size() && isBlank(line[pos]))
        ++pos;
    const size_t start = pos;
    while (pos < line.size() && !isBlank(line[pos]))
        ++pos;
    return line.substr(start, pos - start);
}

/**
 * Call @p fn for each operand segment of @p rest (the line past its
 * mnemonic): segments split on ',', each trimmed; the final segment
 * is dropped when blank (a trailing comma is legal, as in the
 * legacy parser; an empty segment *between* commas is still handed
 * to @p fn, which rejects it as an empty operand).
 */
template <typename Fn>
inline void
forEachOperand(std::string_view rest, Fn &&fn)
{
    size_t begin = 0;
    while (true) {
        const size_t comma = rest.find(',', begin);
        if (comma == std::string_view::npos) {
            const std::string_view tail = rest.substr(begin);
            if (!allBlank(tail))
                fn(tail);
            return;
        }
        fn(rest.substr(begin, comma - begin));
        begin = comma + 1;
    }
}

/**
 * One '\n'-delimited line of @p text starting at @p pos (getline
 * semantics: the final unterminated segment is a line; @p pos ends
 * past the delimiter).
 */
inline std::string_view
nextLine(std::string_view text, size_t &pos)
{
    const size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) {
        const std::string_view line = text.substr(pos);
        pos = text.size();
        return line;
    }
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    return line;
}

/** Blank or '#'-comment line (parseBlock's skip set, " \t\r"). */
inline bool
skippedLine(std::string_view line)
{
    const size_t first = line.find_first_not_of(" \t\r");
    return first == std::string_view::npos || line[first] == '#';
}

} // namespace

size_t
lexBlock(std::string_view text, std::vector<Lexeme> &out)
{
    out.clear();
    size_t inst_lines = 0;
    uint32_t line_no = 0;
    size_t pos = 0;
    while (pos < text.size()) {
        const std::string_view line = nextLine(text, pos);
        const uint32_t here = line_no++;
        if (skippedLine(line))
            continue;
        ++inst_lines;
        size_t after = 0;
        const std::string_view mnemonic = scanMnemonic(line, after);
        out.push_back(Lexeme{mnemonic, here, true, false});
        forEachOperand(line.substr(after), [&](std::string_view raw) {
            const std::string_view operand = trimmed(raw);
            out.push_back(Lexeme{operand, here, false,
                                 hasInteriorBlank(operand)});
        });
    }
    return inst_lines;
}

Instruction
parseInstruction(std::string_view line)
{
    size_t after = 0;
    const std::string_view op_name = scanMnemonic(line, after);

    OpcodeId opcode = theIsa().opcodeByName(op_name);
    fatal_if(opcode == invalidOpcode, "unknown opcode '{}' in '{}'",
             op_name, line);
    const OpcodeInfo &op = theIsa().info(opcode);

    std::vector<RegId> slots;
    MemRef mem;
    int64_t imm = 0;
    bool saw_imm = false, saw_mem = false;

    forEachOperand(line.substr(after), [&](std::string_view raw) {
        std::string_view operand = trimmed(raw);
        // Cold fallback: the legacy parser elided whitespace
        // *anywhere* in an operand ("%r ax" == "%rax"); compact into
        // a local buffer only when interior blanks actually occur.
        std::string compacted;
        if (hasInteriorBlank(operand)) {
            compacted.reserve(operand.size());
            for (char c : operand) {
                if (!isBlank(c))
                    compacted += c;
            }
            operand = compacted;
        }
        fatal_if(operand.empty(), "empty operand in '{}'", line);
        if (operand[0] == '$') {
            size_t consumed = 0;
            imm = parseIntPrefix(operand.substr(1), consumed);
            saw_imm = true;
        } else if (operand[0] == '%') {
            RegId reg = regFromName(operand.substr(1));
            fatal_if(reg == invalidReg, "unknown register '{}' in '{}'",
                     operand, line);
            slots.push_back(reg);
        } else {
            // disp(%base)
            size_t consumed = 0;
            const int64_t disp = parseIntPrefix(operand, consumed);
            fatal_if(consumed >= operand.size() ||
                         operand[consumed] != '(',
                     "malformed memory operand '{}' in '{}'", operand,
                     line);
            std::string_view base_str = operand.substr(consumed + 1);
            fatal_if(base_str.empty() || base_str.front() != '%' ||
                         base_str.back() != ')',
                     "malformed memory operand '{}' in '{}'", operand,
                     line);
            base_str = base_str.substr(1, base_str.size() - 2);
            RegId base = regFromName(base_str);
            fatal_if(base == invalidReg,
                     "unknown base register in '{}'", operand);
            mem.base = base;
            mem.disp = static_cast<int32_t>(disp);
            saw_mem = true;
        }
    });

    fatal_if(slots.size() != op.numRegOps(),
             "opcode {} takes {} register operands, got {} in '{}'",
             op.name, op.numRegOps(), slots.size(), line);
    fatal_if(op.hasImm && !saw_imm, "opcode {} requires an immediate",
             op.name);
    fatal_if(op.mem != MemMode::None && !op.stackOp && !saw_mem,
             "opcode {} requires a memory operand", op.name);

    return makeInstruction(opcode, slots, mem, imm);
}

BasicBlock
parseBlock(std::string_view text)
{
    BasicBlock block;
    size_t pos = 0;
    while (pos < text.size()) {
        const std::string_view line = nextLine(text, pos);
        if (skippedLine(line))
            continue;
        block.insts.push_back(parseInstruction(line));
    }
    return block;
}

} // namespace difftune::isa
