/**
 * @file
 * Semantic diff over .preds prediction artifacts.
 *
 * compare() matches blocks across two artifacts by canonical text
 * and classifies every block (see DiffClass). Classification is the
 * heart of the `difftune compare` contract (docs/COMPARE.md):
 *
 *   bit-exact         identical IEEE-754 bit patterns
 *   within-tolerance  both finite, symmetric relative error
 *                     |a-b| / max(|a|,|b|) <= tolerance (default
 *                     1e-5: room for rounding-level drift such as
 *                     another libm, while a changed weight or a
 *                     broken kernel still diverges); the +0.0 /
 *                     -0.0 pair lands here (rel error 0)
 *   diverged          relative error above tolerance, or either
 *                     value NaN/Inf with differing bits (a
 *                     non-finite value never gets tolerance credit)
 *   only-in-a/b       block text present in one artifact only
 *
 * The report carries per-opcode and per-block-length breakdowns so
 * a divergence localizes to the kernel that caused it, and renders
 * as a human table or machine-readable JSON. Exit-code contract
 * (CI-gateable): 0 all bit-exact, 1 within-tolerance only, 2 any
 * divergence or missing block.
 */

#ifndef DIFFTUNE_COMPARE_COMPARE_HH
#define DIFFTUNE_COMPARE_COMPARE_HH

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compare/preds.hh"

namespace difftune::compare
{

/** Classification of one block across two artifacts. */
enum class DiffClass : uint8_t
{
    kBitExact,
    kWithinTolerance,
    kDiverged,
    kOnlyInA, ///< block text missing from artifact B
    kOnlyInB, ///< block text missing from artifact A
    kNumClasses,
};

inline constexpr int numDiffClasses = int(DiffClass::kNumClasses);

/** @return e.g. "bit-exact" (stable; scripts and JSON key on it). */
const char *diffClassName(DiffClass cls);

/** Comparison knobs. */
struct CompareConfig
{
    /** Symmetric relative-error bound for within-tolerance; the
     *  1e-5 default admits rounding-level drift (e.g. another libm)
     *  and nothing larger. The boundary is inclusive: rel ==
     *  tolerance classifies as within. */
    double tolerance = 1e-5;
};

/**
 * Classify one prediction pair. @p rel_error (optional) receives
 * the symmetric relative error when both values are finite (0 when
 * bit-exact; untouched otherwise).
 */
DiffClass classifyPair(uint64_t bits_a, uint64_t bits_b,
                       double tolerance, double *rel_error = nullptr);

/** Per-class block counters. */
struct ClassCounts
{
    std::array<uint64_t, numDiffClasses> counts{};

    uint64_t &operator[](DiffClass cls)
    {
        return counts[size_t(cls)];
    }
    uint64_t operator[](DiffClass cls) const
    {
        return counts[size_t(cls)];
    }

    uint64_t total() const;
};

/** One classified block. */
struct BlockDiff
{
    std::string text;    ///< canonical block text
    int64_t indexA = -1; ///< position in artifact A (-1: absent)
    int64_t indexB = -1; ///< position in artifact B (-1: absent)
    uint64_t bitsA = 0;  ///< prediction bits in A (if present)
    uint64_t bitsB = 0;  ///< prediction bits in B (if present)
    DiffClass cls = DiffClass::kBitExact;
    double relError = 0.0; ///< symmetric rel error (matched finite)
};

/** The full result of comparing two artifacts. */
struct CompareReport
{
    EngineInfo engineA, engineB;
    CompareConfig config;
    bool digestMatch = true; ///< corpus digests were equal
    ClassCounts counts;
    /** Every block: A's in order, then B-only blocks in B order. */
    std::vector<BlockDiff> blocks;
    /** Per distinct opcode occurring in a block (sorted by name). */
    std::map<std::string, ClassCounts> byOpcode;
    /** Per block length in instructions. */
    std::map<size_t, ClassCounts> byLength;

    /** 0 all bit-exact; 1 within-tolerance only; 2 any diverged or
     *  missing block. */
    int exitCode() const;
};

/** Diff @p a against @p b (block matching is by canonical text). */
CompareReport compare(const PredsArtifact &a, const PredsArtifact &b,
                      CompareConfig config = {});

/**
 * Human-readable report: engine configs, a script-parseable
 * `summary:` line, per-opcode and per-length breakdown tables, and
 * one `diff <class> ...` line per non-bit-exact block.
 */
std::string renderTable(const CompareReport &report);

/** Machine-readable report (obs JSON style: hand-rendered, sorted
 *  keys, deterministic float formatting). Non-bit-exact blocks only
 *  appear in the "diffs" array. */
std::string renderJson(const CompareReport &report);

// ---- Text introspection helpers (shared with the CLI dump verb).

/** Distinct opcode mnemonics of a canonical block text, sorted. */
std::vector<std::string> distinctOpcodes(const std::string &text);

/** Number of instruction lines in a canonical block text. */
size_t instructionCount(const std::string &text);

} // namespace difftune::compare

#endif // DIFFTUNE_COMPARE_COMPARE_HH
