/**
 * @file
 * The .preds prediction artifact: a snapshot of what one version of
 * this repo (a checkpoint served by this build, or a live difftuned
 * daemon) predicts for every block of a declared corpus.
 *
 * A .preds file is the unit of the `difftune compare` workflow
 * (docs/COMPARE.md): snapshot two versions over the same corpus,
 * then diff the artifacts — cross-version prediction equivalence is
 * the correctness contract every refactor must preserve (golden
 * files pin one trajectory; a .preds artifact pins a whole corpus).
 *
 * # File format
 *
 * A .preds file reuses the checkpoint container machinery
 * (io::ChunkWriter / io::ChunkReader — magic header, version gate,
 * CRC-32-guarded chunks, strict truncation/corruption rejection)
 * under its own magic "DTPREDS\0", so the two file types can never
 * be confused. Chunks:
 *
 *   "PMET"  artifact metadata: corpus digest, block count, engine
 *           info (source, precision, matvec kernel path, workers)
 *   "PBLK"  per block, in corpus order: canonical text (the block's
 *           identity) + the prediction as its raw IEEE-754 f64 bit
 *           pattern (bit-exact round trips, including NaN payloads)
 *
 * Canonical texts are unique within an artifact (snapshots dedup
 * their corpus; loads reject duplicates as corruption), so the
 * comparison side can match blocks across artifacts by text.
 */

#ifndef DIFFTUNE_COMPARE_PREDS_HH
#define DIFFTUNE_COMPARE_PREDS_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "io/checkpoint.hh"

namespace difftune::compare
{

/** The .preds container type (io::ChunkWriter/ChunkReader kind). */
inline constexpr char predsMagic[8] = {'D', 'T', 'P', 'R',
                                       'E', 'D', 'S', '\0'};
inline constexpr uint32_t predsVersion = 1;
inline constexpr io::ContainerKind predsContainer{
    predsMagic, predsVersion, "predictions artifact"};

/** Chunk tags. */
inline constexpr const char *tagPredsMeta = "PMET";
inline constexpr const char *tagPredsBlocks = "PBLK";

/** The engine configuration a snapshot ran under (metadata only —
 *  compare reports it so a diff names both configurations, but block
 *  matching never depends on it). */
struct EngineInfo
{
    std::string source;    ///< checkpoint path / "daemon host:port"
    std::string precision; ///< "f64" (engines) or "daemon"
    std::string kernel;    ///< nn::matvecPathName() or "daemon"
    int32_t workers = 0;   ///< pool size (0: remote/unknown)
};

/** One block's snapshot: canonical identity + prediction bits. */
struct BlockPreds
{
    std::string text; ///< canonical block text (isa::toString form)
    uint64_t bits = 0; ///< IEEE-754 bit pattern of the prediction

    double value() const { return std::bit_cast<double>(bits); }
};

/** A full prediction snapshot over one corpus. */
struct PredsArtifact
{
    EngineInfo engine;
    uint64_t corpusDigest = 0; ///< corpusDigest() of the texts
    std::vector<BlockPreds> blocks; ///< corpus order, texts unique
};

/**
 * Order-sensitive FNV-1a digest of a corpus's canonical texts. Two
 * artifacts with equal digests snapshotted the same declared corpus
 * in the same order; compare() reports a mismatch (and classifies
 * the asymmetric blocks) rather than refusing.
 */
uint64_t corpusDigest(const std::vector<std::string> &texts);

/** Encode @p artifact as .preds bytes (exposed for tests). */
std::string encodePreds(const PredsArtifact &artifact);

/**
 * Decode .preds bytes; fatal on any structural defect (bad magic,
 * truncation, CRC mismatch, duplicate block text, digest drift).
 * @p source names the artifact in error messages.
 */
PredsArtifact decodePreds(std::string bytes, std::string source = "");

/** encodePreds to @p path (fatal on I/O failure). */
void savePreds(const std::string &path, const PredsArtifact &artifact);

/** Load and validate a .preds file (errors name the path). */
PredsArtifact loadPreds(const std::string &path);

// ---- Corpus declaration.

/**
 * Resolve a corpus spec into canonical block texts:
 *
 *   "gen:<count>:<seed>"  deterministic bhive::Corpus::generate
 *   "file:<path>"         blocks separated by blank lines, each
 *                         parsed and re-rendered canonically
 *
 * Duplicate canonical texts are dropped (first occurrence wins), so
 * the result is directly snapshotable.
 */
std::vector<std::string> resolveCorpus(const std::string &spec);

/** The default corpus spec (tools/compare_smoke.sh and the CI
 *  reference artifact both use it). */
inline constexpr const char *defaultCorpusSpec = "gen:48:0xbe7c";

// ---- Snapshotting.

/** Engine knobs for a local snapshot run. */
struct SnapshotOptions
{
    int workers = 0; ///< pool size (<= 0: library default)
};

/**
 * Serve @p checkpoint_path over @p texts with a fresh local engine
 * and capture every prediction's bit pattern. The artifact's engine
 * info records the checkpoint path, precision ("f64"), selected
 * matvec kernel and worker count.
 */
PredsArtifact snapshotCheckpoint(const std::string &checkpoint_path,
                                 const std::vector<std::string> &texts,
                                 SnapshotOptions options = {});

/**
 * Snapshot a live difftuned daemon over loopback: one predict per
 * text through serve::DaemonClient, whose wire format carries raw
 * f64 bit patterns — a daemon snapshot is bit-exact against the
 * daemon's in-process engine. Throws serve::DaemonError on
 * connection or protocol failures.
 */
PredsArtifact snapshotDaemon(const std::string &host, uint16_t port,
                             const std::string &model,
                             const std::vector<std::string> &texts);

} // namespace difftune::compare

#endif // DIFFTUNE_COMPARE_PREDS_HH
