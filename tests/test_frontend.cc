/**
 * @file
 * Front-end tests: the zero-copy tokenizer/parser (A/B
 * byte-equality against a copy of the legacy string-based parser,
 * malformed-input rejection, zero-copy lexeme slicing), the
 * interning layer (canonical identity, near-miss resolution,
 * capacity fallback, concurrent interning — the TSan target), the
 * runtime matvec dispatch (scalar vs AVX2 bitwise equality, path
 * selection), and the serving front end's intern/encode counters.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "bhive/corpus.hh"
#include "isa/intern.hh"
#include "isa/parse.hh"
#include "nn/matvec_dispatch.hh"
#include "serve/async_engine.hh"

namespace difftune
{
namespace
{

// ------------------------------------------------------------------
// A verbatim copy of the legacy string-based parser (the
// pre-string_view src/isa/parse.cc), kept here as the A/B reference:
// the zero-copy parser must reproduce its output — and its quirks —
// byte for byte.
namespace legacy
{

void
splitLine(const std::string &line, std::string &op_name,
          std::vector<std::string> &operands)
{
    size_t pos = 0;
    while (pos < line.size() && std::isspace(line[pos]))
        ++pos;
    size_t start = pos;
    while (pos < line.size() && !std::isspace(line[pos]))
        ++pos;
    op_name = line.substr(start, pos - start);

    std::string rest = line.substr(pos);
    std::string current;
    for (char c : rest) {
        if (c == ',') {
            operands.push_back(current);
            current.clear();
        } else if (!std::isspace(c)) {
            current += c;
        }
    }
    if (!current.empty())
        operands.push_back(current);
}

isa::Instruction
parseInstruction(const std::string &line)
{
    using namespace isa;
    std::string op_name;
    std::vector<std::string> operand_strs;
    splitLine(line, op_name, operand_strs);

    OpcodeId opcode = theIsa().opcodeByName(op_name);
    fatal_if(opcode == invalidOpcode, "unknown opcode '{}' in '{}'",
             op_name, line);
    const OpcodeInfo &op = theIsa().info(opcode);

    std::vector<RegId> slots;
    MemRef mem;
    int64_t imm = 0;
    bool saw_imm = false, saw_mem = false;

    for (const std::string &operand : operand_strs) {
        fatal_if(operand.empty(), "empty operand in '{}'", line);
        if (operand[0] == '$') {
            imm = std::strtoll(operand.c_str() + 1, nullptr, 10);
            saw_imm = true;
        } else if (operand[0] == '%') {
            RegId reg = regFromName(operand.substr(1));
            fatal_if(reg == invalidReg,
                     "unknown register '{}' in '{}'", operand, line);
            slots.push_back(reg);
        } else {
            char *end = nullptr;
            long disp = std::strtol(operand.c_str(), &end, 10);
            fatal_if(!end || *end != '(',
                     "malformed memory operand '{}' in '{}'", operand,
                     line);
            std::string base_str(end + 1);
            fatal_if(base_str.empty() || base_str[0] != '%' ||
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
    }

    fatal_if(slots.size() != op.numRegOps(),
             "opcode {} takes {} register operands, got {} in '{}'",
             op.name, op.numRegOps(), slots.size(), line);
    fatal_if(op.hasImm && !saw_imm,
             "opcode {} requires an immediate", op.name);
    fatal_if(op.mem != MemMode::None && !op.stackOp && !saw_mem,
             "opcode {} requires a memory operand", op.name);

    return makeInstruction(opcode, slots, mem, imm);
}

isa::BasicBlock
parseBlock(const std::string &text)
{
    isa::BasicBlock block;
    std::istringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) {
        size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos || line[first] == '#')
            continue;
        block.insts.push_back(parseInstruction(line));
    }
    return block;
}

} // namespace legacy

/** Canonical text of @p parse(text), or nullopt if it rejects. */
template <typename Parser>
std::optional<std::string>
canonOrReject(Parser &&parse, const std::string &text)
{
    try {
        return isa::toString(parse(text));
    } catch (const std::runtime_error &) {
        return std::nullopt;
    }
}

/** Both parsers on @p text: same accept/reject, same canonical. */
void
expectParsersAgree(const std::string &text)
{
    const auto legacy_out = canonOrReject(
        [](const std::string &t) { return legacy::parseBlock(t); },
        text);
    const auto fresh_out = canonOrReject(
        [](const std::string &t) { return isa::parseBlock(t); },
        text);
    ASSERT_EQ(legacy_out.has_value(), fresh_out.has_value())
        << "parsers disagree on accepting:\n"
        << text;
    if (legacy_out) {
        EXPECT_EQ(*legacy_out, *fresh_out)
            << "canonical output diverged for:\n"
            << text;
    }
}

/**
 * A near-miss respelling of canonical @p text: random whitespace
 * before the mnemonic and anywhere in the operand region (both
 * parsers elide it), plus occasional comment lines. Deterministic
 * per (text, rng state).
 */
std::string
respell(const std::string &text, std::mt19937_64 &rng)
{
    std::string out;
    auto pad = [&] {
        switch (rng() % 4) {
        case 0:
            out += ' ';
            break;
        case 1:
            out += "  ";
            break;
        case 2:
            out += '\t';
            break;
        default:
            break;
        }
    };
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (rng() % 8 == 0)
            out += "# interleaved comment\n";
        pad();
        const size_t sp = line.find(' ');
        if (sp == std::string::npos) {
            out += line;
        } else {
            out += line.substr(0, sp);
            for (char c : line.substr(sp)) {
                out += c;
                if (rng() % 3 == 0)
                    pad();
            }
        }
        pad();
        out += '\n';
    }
    return out;
}

/** Canonical corpus texts, shared across the suites below. */
const std::vector<std::string> &
corpusTexts()
{
    static const std::vector<std::string> texts = [] {
        const bhive::Corpus corpus =
            bhive::Corpus::generate(200, 0xf407e5d);
        std::vector<std::string> out;
        out.reserve(corpus.size());
        for (const auto &info : corpus.blocks())
            out.push_back(isa::toString(info.block));
        return out;
    }();
    return texts;
}

// ------------------------------------------------------------------
// Tokenizer / parser

TEST(FrontendParser, MatchesLegacyParserByteForByte)
{
    std::mt19937_64 rng(0x70ac3);
    for (const std::string &text : corpusTexts()) {
        // The canonical spelling itself, and three near-miss
        // respellings of it, must all round-trip to the same bytes
        // through both parsers.
        expectParsersAgree(text);
        for (int variant = 0; variant < 3; ++variant) {
            const std::string noisy = respell(text, rng);
            expectParsersAgree(noisy);
            const isa::BasicBlock block = isa::parseBlock(noisy);
            EXPECT_EQ(text, isa::toString(block))
                << "respelling changed the canonical form:\n"
                << noisy;
        }
    }
}

TEST(FrontendParser, QuirkSpellingsMatchLegacy)
{
    // The legacy parser's quirks, locked in one by one: whitespace
    // elided *inside* operands, trailing commas tolerated, strtoll
    // immediate semantics (clamping, trailing garbage, no digits),
    // zero-displacement memory shorthand.
    const std::vector<std::string> quirks = {
        "ADD32rr %e bx, %ecx\n",
        "ADD32rr %ebx , %ecx ,\n",
        "ADD64ri $ 42, %rbx\n",
        "ADD64ri $42garbage, %rbx\n",
        "ADD64ri $, %rbx\n",
        "ADD64ri $9223372036854775808, %rbx\n",
        "ADD64ri $-9223372036854775809, %rbx\n",
        "MOV64rm (%rsi), %rdi\n",
        "MOV64rm - 8 ( % r si ), %rdi\n",
        "MOV64rm 8(%rsi), %rdi\r\n",
        "\t ADD32rr\t%ebx,%ecx\n",
        "# only a comment\nNOP\n\n",
        "NOP",
    };
    for (const std::string &text : quirks)
        expectParsersAgree(text);
}

TEST(FrontendParser, MalformedInputsRejectCleanly)
{
    // Truncated operands, stray bytes, huge tokens, structural
    // nonsense: every entry must throw std::runtime_error from both
    // parsers (never crash — CI runs this suite under ASan/UBSan),
    // and the two must agree.
    std::vector<std::string> bad = {
        "BOGUSOP %rax\n",
        "MOV64rm 8(%rsi\n",
        "MOV64rm 8(, %rdi\n",
        "MOV64rm 8%rsi), %rdi\n",
        "MOV64rm 8(%rsi)x, %rdi\n",
        "MOV64rm 8(%bogus), %rdi\n",
        "MOV64rm 8(%rsi), %rdi, %rax\n",
        "MOV64rm %rdi\n",
        "ADD32rr %ebx\n",
        "ADD32rr %ebx, %ecx, %edx\n",
        "ADD32rr %ebx, , %ecx\n",
        "ADD32rr ,\n",
        "ADD64ri %rbx\n",
        "ADD32rr %ebx, %bogus\n",
        "ADD32rr %ebx, $5\n",
        "NOP %rax\n",
        "$42\n",
        "%rax\n",
        "8(%rax)\n",
        ")(\n",
        "\x01\x02\x7f\n",
        "ADD32rr \x01, \x02\n",
    };
    bad.push_back(std::string(1 << 16, 'a') + "\n");
    bad.push_back("NOP, " + std::string(1 << 16, '%') + "\n");
    for (const std::string &text : bad) {
        EXPECT_THROW((void)isa::parseBlock(text), std::runtime_error)
            << "accepted malformed input:\n"
            << text.substr(0, 80);
        expectParsersAgree(text);
    }
}

TEST(FrontendParser, LexBlockSlicesAreZeroCopy)
{
    const std::string text = "  ADD32rr %e bx , %ecx\n"
                             "# comment\n"
                             "\n"
                             "MOV64rm 8(%rsi), %rdi\n";
    std::vector<isa::Lexeme> lexemes;
    const size_t inst_lines = isa::lexBlock(text, lexemes);
    EXPECT_EQ(2u, inst_lines);
    ASSERT_EQ(6u, lexemes.size());

    // Every lexeme is a trimmed slice *into the input buffer* — the
    // zero-copy contract.
    for (const isa::Lexeme &lex : lexemes) {
        EXPECT_GE(lex.text.data(), text.data());
        EXPECT_LE(lex.text.data() + lex.text.size(),
                  text.data() + text.size());
        if (!lex.text.empty()) {
            EXPECT_FALSE(std::isspace(
                static_cast<unsigned char>(lex.text.front())));
            EXPECT_FALSE(std::isspace(
                static_cast<unsigned char>(lex.text.back())));
        }
    }
    EXPECT_EQ("ADD32rr", lexemes[0].text);
    EXPECT_TRUE(lexemes[0].mnemonic);
    EXPECT_EQ(0u, lexemes[0].line);
    EXPECT_EQ("%e bx", lexemes[1].text);
    EXPECT_TRUE(lexemes[1].spaced);
    EXPECT_EQ("%ecx", lexemes[2].text);
    EXPECT_FALSE(lexemes[2].spaced);
    EXPECT_EQ("MOV64rm", lexemes[3].text);
    EXPECT_EQ(3u, lexemes[3].line);
    EXPECT_EQ("8(%rsi)", lexemes[4].text);
    EXPECT_EQ("%rdi", lexemes[5].text);
    // Lexing never throws, even on garbage.
    EXPECT_EQ(1u, isa::lexBlock("BOGUS ,,$(\x01\n", lexemes));
}

// ------------------------------------------------------------------
// Interning

TEST(FrontendIntern, CanonicalFormsGetOneId)
{
    isa::Interner interner;
    const isa::BasicBlock a =
        isa::parseBlock("ADD32rr %ebx, %ecx\nNOP\n");
    const isa::BasicBlock b =
        isa::parseBlock("  ADD32rr\t%e bx ,%ecx \n # hi\n NOP \n");
    const isa::BasicBlock c = isa::parseBlock("NOP\n");

    bool known = false;
    const isa::BlockId id_a = interner.internBlock(a, known);
    ASSERT_NE(isa::invalidBlockId, id_a);
    EXPECT_FALSE(known);
    // The near-miss spelling resolves to the same id, and reports
    // the block as already known.
    EXPECT_EQ(id_a, interner.internBlock(b, known));
    EXPECT_TRUE(known);
    const isa::BlockId id_c = interner.internBlock(c, known);
    EXPECT_NE(id_a, id_c);
    EXPECT_FALSE(known);

    EXPECT_EQ(2u, interner.numBlocks());
    EXPECT_EQ(2u, interner.numInsts()); // ADD32rr.., NOP shared
    EXPECT_GT(interner.bytes(), 0u);

    // The per-instruction ids and token lanes reproduce the
    // canonical encoding exactly.
    const std::vector<isa::InstId> &ids = interner.instIds(id_a);
    ASSERT_EQ(a.size(), ids.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_NE(isa::invalidInstId, ids[i]);
        EXPECT_EQ(isa::theVocab().encode(a.insts[i]),
                  interner.tokens(ids[i]));
    }
    EXPECT_EQ(ids[1], interner.instIds(id_c)[0]); // shared NOP
}

TEST(FrontendIntern, DistinctCanonicalFormsGetDistinctIds)
{
    isa::Interner interner;
    std::vector<isa::BlockId> ids;
    for (const std::string &text : corpusTexts()) {
        const isa::BlockId id =
            interner.internBlock(isa::parseBlock(text));
        ASSERT_NE(isa::invalidBlockId, id);
        ids.push_back(id);
    }
    // The corpus is deduplicated, so every block is a distinct
    // canonical form and must get a distinct id.
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids.end(), std::adjacent_find(ids.begin(), ids.end()));
    EXPECT_EQ(corpusTexts().size(), interner.numBlocks());
}

TEST(FrontendIntern, FullTablesFallBackToInvalidIds)
{
    isa::Interner tiny(2, 1);
    const isa::Instruction add =
        isa::parseInstruction("ADD32rr %ebx, %ecx");
    const isa::Instruction nop = isa::parseInstruction("NOP");
    const isa::Instruction mul =
        isa::parseInstruction("IMUL64rr %rbx, %rcx");

    const isa::InstId id_add = tiny.internInst(add);
    const isa::InstId id_nop = tiny.internInst(nop);
    ASSERT_NE(isa::invalidInstId, id_add);
    ASSERT_NE(isa::invalidInstId, id_nop);
    // Third distinct instruction: table full, sentinel back.
    EXPECT_EQ(isa::invalidInstId, tiny.internInst(mul));
    // Lookups of already-interned forms still succeed at capacity.
    EXPECT_EQ(id_add, tiny.internInst(add));

    isa::BasicBlock one;
    one.insts.push_back(add);
    bool known = true;
    const isa::BlockId block_one = tiny.internBlock(one, known);
    ASSERT_NE(isa::invalidBlockId, block_one);
    EXPECT_FALSE(known);
    EXPECT_EQ(block_one, tiny.internBlock(one, known));
    EXPECT_TRUE(known);

    // Block table full: a new shape gets the sentinel...
    isa::BasicBlock two;
    two.insts.push_back(nop);
    EXPECT_EQ(isa::invalidBlockId, tiny.internBlock(two, known));
    // ...and a block containing an uninternable instruction can
    // never be interned.
    isa::BasicBlock three;
    three.insts.push_back(mul);
    EXPECT_EQ(isa::invalidBlockId, tiny.internBlock(three, known));
    EXPECT_EQ(1u, tiny.numBlocks());
    EXPECT_EQ(2u, tiny.numInsts());
}

TEST(FrontendIntern, ConcurrentInterningConverges)
{
    // The TSan target: many threads intern overlapping canonical
    // forms concurrently; every thread must see the same id per
    // form, and the tables must end up with exactly one entry per
    // form. (CI runs this suite under TSan; see .github/workflows.)
    std::vector<isa::BasicBlock> blocks;
    for (const std::string &text : corpusTexts())
        blocks.push_back(isa::parseBlock(text));

    isa::Interner interner;
    constexpr int kThreads = 4;
    std::vector<std::vector<isa::BlockId>> seen(
        kThreads, std::vector<isa::BlockId>(blocks.size()));
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Stagger the iteration order so threads collide on
            // different blocks at different times.
            for (size_t i = 0; i < blocks.size(); ++i) {
                const size_t j = (i * 7 + size_t(t) * 13) %
                                 blocks.size();
                seen[size_t(t)][j] =
                    interner.internBlock(blocks[j]);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    for (size_t i = 0; i < blocks.size(); ++i) {
        ASSERT_NE(isa::invalidBlockId, seen[0][i]);
        for (int t = 1; t < kThreads; ++t)
            EXPECT_EQ(seen[0][i], seen[size_t(t)][i])
                << "threads disagree on block " << i;
    }
    EXPECT_EQ(blocks.size(), interner.numBlocks());
    // And the interned token lanes survived the race intact.
    for (size_t i = 0; i < blocks.size(); ++i) {
        const auto &ids = interner.instIds(seen[0][i]);
        ASSERT_EQ(blocks[i].size(), ids.size());
        for (size_t k = 0; k < ids.size(); ++k)
            EXPECT_EQ(isa::theVocab().encode(blocks[i].insts[k]),
                      interner.tokens(ids[k]));
    }
}

// ------------------------------------------------------------------
// Runtime matvec dispatch

TEST(FrontendDispatch, SelectionMatchesEnvironmentAndCpu)
{
    const char *force = std::getenv("DIFFTUNE_FORCE_SCALAR");
    const bool forced =
        force && *force && std::strcmp(force, "0") != 0;
    const nn::MatvecKernels &selected = nn::matvecKernels();
    ASSERT_NE(nullptr, selected.f64);
    if (forced)
        EXPECT_STREQ("scalar (forced)", nn::matvecPathName());
    else if (nn::matvecAvx2Kernels() && nn::cpuSupportsAvx2())
        EXPECT_STREQ("avx2", nn::matvecPathName());
    else
        EXPECT_STREQ("scalar", nn::matvecPathName());
}

TEST(FrontendDispatch, Avx2MatvecBitIdenticalToScalar)
{
    const nn::MatvecKernels *avx2 = nn::matvecAvx2Kernels();
    if (!avx2 || !nn::cpuSupportsAvx2())
        GTEST_SKIP() << "AVX2 kernels unavailable on this host";
    const nn::MatvecKernels &scalar = nn::matvecScalarKernels();

    std::mt19937_64 rng(0xb17e5);
    std::normal_distribution<double> dist(0.0, 3.0);
    // Cover every row/col remainder class of the kernel (4 rows x 4
    // cols blocks, two row blocks per pass), plus larger shapes.
    const int rows_set[] = {1, 2, 3, 4, 5, 7, 8, 9, 16, 23, 40, 256};
    const int cols_set[] = {1, 2, 3, 4, 5, 7, 8, 9, 33, 64, 81};
    for (int rows : rows_set) {
        for (int cols : cols_set) {
            std::vector<double> w(size_t(rows) * size_t(cols));
            std::vector<double> x(size_t(cols), 0.0);
            for (double &v : w)
                v = dist(rng);
            for (double &v : x)
                v = dist(rng);
            std::vector<double> ref(size_t(rows), 0.0);
            std::vector<double> got(size_t(rows), 0.0);
            scalar.f64(w.data(), x.data(), ref.data(), rows, cols);
            avx2->f64(w.data(), x.data(), got.data(), rows, cols);
            EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                                     ref.size() * sizeof(double)))
                << "f64 diverged at " << rows << "x" << cols;
        }
    }
}

/**
 * The f64 lanes entry, AVX2 against the scalar lanes entry and
 * against one single-vector call per lane (both paths). Lane counts
 * cross the 8-lane group boundary; rows and columns cover every
 * remainder class of the 4 x 4 blocks. Some lanes carry signed
 * zeros, an inf or a NaN. Each lane holds at most one inf and one
 * NaN, so no row sum ever adds two different NaNs, whose result
 * would depend on operand order rather than on the kernel.
 */
TEST(FrontendDispatch, Avx2LanesBitIdenticalToScalar)
{
    const nn::MatvecKernels *avx2 = nn::matvecAvx2Kernels();
    if (!avx2 || !nn::cpuSupportsAvx2())
        GTEST_SKIP() << "AVX2 kernels unavailable on this host";
    const nn::MatvecKernels &scalar = nn::matvecScalarKernels();

    std::mt19937_64 rng(0x1a9e5);
    std::normal_distribution<double> dist(0.0, 3.0);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const int lanes_set[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17};
    const int rows_set[] = {1, 3, 4, 5, 8, 256};
    const int cols_set[] = {1, 2, 3, 4, 5, 6, 7, 8,
                            9, 17, 31, 32, 33, 64, 81};
    for (int lanes : lanes_set) {
        for (int rows : rows_set) {
            for (int cols : cols_set) {
                std::vector<double> w(size_t(rows) * size_t(cols));
                for (double &v : w)
                    v = dist(rng);
                std::vector<std::vector<double>> xs(
                    static_cast<size_t>(lanes));
                for (size_t j = 0; j < xs.size(); ++j) {
                    std::vector<double> &x = xs[j];
                    x.resize(size_t(cols));
                    // Lanes 1 and 2 mod 5: every third entry a signed
                    // zero. Lane 2 mod 5: one inf; lane 3 mod 5: an
                    // inf and a NaN. The period is prime to the group
                    // width, so every group slot also sees finite
                    // lanes, whose sums show any rounding change.
                    for (size_t k = 0; k < x.size(); ++k) {
                        x[k] = dist(rng);
                        if ((j % 5 == 1 || j % 5 == 2) && k % 3 == 0)
                            x[k] = k % 2 ? -0.0 : 0.0;
                    }
                    if (j % 5 == 2 || j % 5 == 3)
                        x[rng() % x.size()] = rng() % 2 ? inf : -inf;
                    if (j % 5 == 3)
                        x[rng() % x.size()] = nan;
                }
                std::vector<const double *> xp;
                for (const auto &x : xs)
                    xp.push_back(x.data());
                // Per-lane outputs: single-vector calls, the scalar
                // lanes entry and the AVX2 lanes entry.
                std::vector<double> one(size_t(lanes) * size_t(rows), 1.0);
                std::vector<double> ref = one, got = one;
                const auto lanePtrs = [&](std::vector<double> &buf) {
                    std::vector<double *> ptrs;
                    for (int j = 0; j < lanes; ++j)
                        ptrs.push_back(buf.data() + size_t(j) * rows);
                    return ptrs;
                };
                std::vector<double *> one_p = lanePtrs(one);
                std::vector<double *> ref_p = lanePtrs(ref);
                std::vector<double *> got_p = lanePtrs(got);
                for (int j = 0; j < lanes; ++j)
                    scalar.f64(w.data(), xp[size_t(j)],
                               one_p[size_t(j)], rows, cols);
                scalar.lanesF64(w.data(), xp.data(), ref_p.data(),
                                lanes, rows, cols);
                avx2->lanesF64(w.data(), xp.data(), got_p.data(), lanes,
                               rows, cols);
                // Zero lanes leave the buffers empty (and data() null,
                // which memcmp must not see).
                const size_t bytes = one.size() * sizeof(double);
                EXPECT_TRUE(bytes == 0 ||
                            std::memcmp(one.data(), ref.data(), bytes) == 0)
                    << "scalar lanes diverged at " << lanes << " lanes, "
                    << rows << "x" << cols;
                EXPECT_TRUE(bytes == 0 ||
                            std::memcmp(one.data(), got.data(), bytes) == 0)
                    << "avx2 lanes diverged at " << lanes << " lanes, "
                    << rows << "x" << cols;
                // And the AVX2 single-vector entry lane by lane.
                std::vector<double> single(static_cast<size_t>(rows));
                for (int j = 0; j < lanes; ++j) {
                    avx2->f64(w.data(), xp[size_t(j)], single.data(),
                              rows, cols);
                    EXPECT_EQ(0, std::memcmp(single.data(),
                                             one_p[size_t(j)],
                                             single.size() *
                                                 sizeof(double)))
                        << "avx2 f64 diverged at lane " << j << ", "
                        << rows << "x" << cols;
                }
            }
        }
    }
}

/**
 * The two f64 backward entries, AVX2 against scalar, and both
 * against the plain one-pass-per-term loop they must equal. Signed
 * zeros appear in dz, in the values and in the starting gradient;
 * every term whose dz is zero carries inf/NaN values, so a kernel
 * that stopped skipping those terms (or skipped them branch-free
 * with a multiply by zero) turns the sum into NaN.
 */
TEST(FrontendDispatch, Avx2BackwardBitIdenticalToScalar)
{
    const nn::MatvecKernels *avx2 = nn::matvecAvx2Kernels();
    if (!avx2 || !nn::cpuSupportsAvx2())
        GTEST_SKIP() << "AVX2 kernels unavailable on this host";
    const nn::MatvecKernels &scalar = nn::matvecScalarKernels();

    std::mt19937_64 rng(0xbac4);
    std::normal_distribution<double> dist(0.0, 3.0);
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // Mostly normal draws, with +0.0 and -0.0 one time in eight each.
    const auto draw = [&] {
        switch (rng() % 8) {
        case 0:
            return 0.0;
        case 1:
            return -0.0;
        default:
            return dist(rng);
        }
    };
    const auto poison = [&](double *v, int n) {
        for (int k = 0; k < n; ++k)
            v[k] = k % 3 == 0 ? inf : k % 3 == 1 ? -inf : nan;
    };
    // Every other gradient element starts at -0.0.
    const auto startGrad = [&](size_t n) {
        std::vector<double> grad(n);
        for (size_t e = 0; e < n; ++e)
            grad[e] = e % 2 == 0 ? -0.0 : dist(rng);
        return grad;
    };
    const auto sameBits = [](const std::vector<double> &a,
                             const std::vector<double> &b) {
        return a.size() == b.size() &&
               std::memcmp(a.data(), b.data(),
                           a.size() * sizeof(double)) == 0;
    };

    // Every column remainder class of the 32/4/1-column blocking.
    const int rows_set[] = {1, 4, 5, 256};
    const int cols_set[] = {1, 2, 3, 4, 5, 6, 7, 8,
                            9, 17, 31, 32, 33, 64, 81};
    const size_t count_set[] = {0, 1, 3, 40};
    for (int rows : rows_set) {
        for (int cols : cols_set) {
            // xgrad += W^T dz; the rows of W with a zero dz are
            // poisoned.
            std::vector<double> w(size_t(rows) * size_t(cols));
            std::vector<double> dz(size_t(rows), 0.0);
            for (double &v : w)
                v = draw();
            for (int i = 0; i < rows; ++i) {
                dz[size_t(i)] = draw();
                if (dz[size_t(i)] == 0.0)
                    poison(w.data() + size_t(i) * cols, cols);
            }
            const std::vector<double> xgrad0 = startGrad(size_t(cols));
            std::vector<double> oracle = xgrad0;
            for (int i = 0; i < rows; ++i) {
                if (dz[size_t(i)] == 0.0)
                    continue;
                for (int k = 0; k < cols; ++k)
                    oracle[size_t(k)] +=
                        w[size_t(i) * cols + k] * dz[size_t(i)];
            }
            std::vector<double> ref = xgrad0, got = xgrad0;
            scalar.inputGradF64(w.data(), dz.data(), ref.data(), rows, cols);
            avx2->inputGradF64(w.data(), dz.data(), got.data(), rows, cols);
            EXPECT_TRUE(sameBits(oracle, ref))
                << "scalar input grad diverged at " << rows << "x" << cols;
            EXPECT_TRUE(sameBits(ref, got))
                << "avx2 input grad diverged at " << rows << "x" << cols;

            // grad += sum_r dz_r x_r^T; each record's zero dz_r[i]
            // entries pair with a poisoned x_r only when the whole
            // record is zero (a live entry must not meet inf/NaN).
            for (size_t count : count_set) {
                std::vector<std::vector<double>> dzs(count), xs(count);
                std::vector<const double *> dzp, xp;
                for (size_t r = 0; r < count; ++r) {
                    dzs[r].resize(size_t(rows));
                    xs[r].resize(size_t(cols));
                    const bool dead = r % 3 == 2;
                    for (double &v : dzs[r])
                        v = dead ? (rng() % 2 ? 0.0 : -0.0) : draw();
                    if (dead)
                        poison(xs[r].data(), cols);
                    else
                        for (double &v : xs[r])
                            v = draw();
                    dzp.push_back(dzs[r].data());
                    xp.push_back(xs[r].data());
                }
                const std::vector<double> grad0 =
                    startGrad(size_t(rows) * size_t(cols));
                std::vector<double> oracle_w = grad0;
                for (size_t r = 0; r < count; ++r)
                    for (int i = 0; i < rows; ++i) {
                        const double d = dzs[r][size_t(i)];
                        if (d == 0.0)
                            continue;
                        for (int k = 0; k < cols; ++k)
                            oracle_w[size_t(i) * cols + k] +=
                                xs[r][size_t(k)] * d;
                    }
                std::vector<double> ref_w = grad0, got_w = grad0;
                scalar.outerF64(ref_w.data(), dzp.data(), xp.data(),
                                count, rows, cols);
                avx2->outerF64(got_w.data(), dzp.data(), xp.data(),
                               count, rows, cols);
                EXPECT_TRUE(sameBits(oracle_w, ref_w))
                    << "scalar outer product diverged at " << rows
                    << "x" << cols << ", " << count << " records";
                EXPECT_TRUE(sameBits(ref_w, got_w))
                    << "avx2 outer product diverged at " << rows << "x"
                    << cols << ", " << count << " records";
            }
        }
    }
}

// ------------------------------------------------------------------
// Serving front end

surrogate::ModelConfig
tinyConfig()
{
    surrogate::ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 10;
    cfg.tokenLayers = 1;
    cfg.blockLayers = 1;
    cfg.paramDim = 0;
    cfg.seed = 11;
    return cfg;
}

io::Checkpoint
ithemalCheckpoint()
{
    io::Checkpoint ckpt;
    ckpt.model = std::make_unique<surrogate::Model>(
        tinyConfig(), isa::theVocab().size());
    ckpt.vocabSize = isa::theVocab().size();
    return ckpt;
}

TEST(FrontendServe, InternAndEncodeCountersTrack)
{
    // Single worker, one stripe, tiny prediction/text LRUs:
    // re-requesting an evicted block must re-forward with its token
    // lanes taken from the interner (encode hit), and a respelled
    // known block must resolve through the interner (intern hit)
    // into the prediction LRU.
    serve::AsyncConfig cfg;
    cfg.workers = 1;
    cfg.cacheStripes = 1;
    cfg.cacheCapacity = 4;
    serve::AsyncEngine engine(ithemalCheckpoint(), cfg);
    const serve::ServeStats &stats = engine.stats();

    std::vector<std::string> texts(corpusTexts().begin(),
                                   corpusTexts().begin() + 8);
    ASSERT_EQ(8u, texts.size());
    std::vector<double> first;
    for (const std::string &text : texts)
        first.push_back(engine.predict(text));
    EXPECT_EQ(8u, stats.requests.load());
    EXPECT_EQ(8u, stats.misses.load());
    EXPECT_EQ(8u, stats.forwards.load());
    EXPECT_EQ(0u, stats.internHits.load());
    // Every block was interned before it forwarded, so every
    // forward took its lanes from the interner.
    EXPECT_EQ(8u, stats.encodeHits.load());
    EXPECT_EQ(8u, engine.interner().numBlocks());

    // texts[0] fell out of every capacity-4 LRU, but its canonical
    // form is interned: the re-request re-forwards with the
    // interner's lanes, bit-identical to the uncached reference.
    const double again = engine.predict(texts[0]);
    EXPECT_EQ(first[0], again);
    EXPECT_EQ(engine.predictUncached(texts[0]), again);
    EXPECT_EQ(1u, stats.internHits.load());
    EXPECT_EQ(9u, stats.encodeHits.load());
    EXPECT_EQ(9u, stats.forwards.load());

    // texts[7] is still in the raw-text front cache: no parse, no
    // intern involved.
    EXPECT_EQ(first[7], engine.predict(texts[7]));
    EXPECT_EQ(1u, stats.textHits.load());
    EXPECT_EQ(1u, stats.internHits.load());

    // A respelling of texts[6] misses the front cache but resolves
    // through the interner straight to the cached prediction — no
    // forward pass.
    std::mt19937_64 rng(0x5e11);
    EXPECT_EQ(first[6], engine.predict(respell(texts[6], rng)));
    EXPECT_EQ(2u, stats.internHits.load());
    EXPECT_EQ(9u, stats.forwards.load());
    EXPECT_EQ(9u, stats.encodeHits.load());
    EXPECT_EQ(8u, engine.interner().numBlocks()); // nothing new

    // The PR-5 stats reconciliation still holds with the new
    // counters in play.
    EXPECT_EQ(stats.requests.load(),
              stats.textHits.load() + stats.textMisses.load());
    EXPECT_EQ(stats.requests.load(),
              stats.hits.load() + stats.misses.load());

    // And every cached/interned/encoded answer is bit-identical to
    // the uncached sequential reference.
    for (size_t i = 0; i < texts.size(); ++i)
        EXPECT_EQ(engine.predictUncached(texts[i]), first[i]) << i;
}

TEST(FrontendServe, FullInternerStillServesCorrectly)
{
    // Interner exhaustion may only cost speed, never change an
    // answer or break the stats reconciliation: past the intern
    // bound, blocks are served without canonical-level caching.
    serve::AsyncConfig cfg;
    cfg.workers = 1;
    cfg.cacheStripes = 1;
    serve::AsyncConfig tiny_cfg = cfg;
    tiny_cfg.internCapacity = 4;
    serve::AsyncEngine roomy(ithemalCheckpoint(), cfg);
    serve::AsyncEngine cramped(ithemalCheckpoint(), tiny_cfg);
    // 16 distinct single-instruction canonical forms (so the first
    // four fit the cramped engine's instruction table too).
    const char *regs[] = {"%rax", "%rbx", "%rcx", "%rdx"};
    std::vector<std::string> texts;
    for (int k = 0; k < 16; ++k)
        texts.push_back("ADD64ri $" + std::to_string(k) + ", " +
                        regs[k % 4] + "\n");
    for (const std::string &text : texts)
        EXPECT_EQ(roomy.predict(text), cramped.predict(text));
    const serve::ServeStats &stats = cramped.stats();
    EXPECT_EQ(4u, cramped.interner().numBlocks());
    EXPECT_EQ(16u, stats.forwards.load());

    // An uninterned block re-arriving under a new spelling cannot
    // probe the canonical caches — it forwards again, yet still
    // answers bit-identically.
    std::mt19937_64 rng(0x1d1e);
    EXPECT_EQ(cramped.predictUncached(texts[10]),
              cramped.predict(respell(texts[10], rng)));
    EXPECT_EQ(17u, stats.forwards.load());
    // The same respelling of an *interned* block is a cache hit.
    EXPECT_EQ(cramped.predictUncached(texts[2]),
              cramped.predict(respell(texts[2], rng)));
    EXPECT_EQ(17u, stats.forwards.load());
    // Only the four interned blocks' forwards took their lanes from
    // the interner; the other 13 forwards ran encodeBlock.
    EXPECT_EQ(4u, stats.encodeHits.load());

    EXPECT_EQ(stats.requests.load(),
              stats.textHits.load() + stats.textMisses.load());
    EXPECT_EQ(stats.requests.load(),
              stats.hits.load() + stats.misses.load());
}

} // namespace
} // namespace difftune
