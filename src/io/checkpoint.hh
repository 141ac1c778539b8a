/**
 * @file
 * Versioned binary checkpoint container.
 *
 * The byte-level specification lives in docs/CHECKPOINT_FORMAT.md —
 * keep the two in sync. Layout sketch (all integers little-endian;
 * see io/serialize.hh):
 *
 *     magic   "DTCHKPT\0"                    8 bytes
 *     u32     format version (1)
 *     u32     chunk count
 *     chunk*  [ tag (4 bytes) | u64 payload size | payload
 *               | u32 CRC-32 of payload ]
 *
 * Chunks are independent sections (model config, weights, parameter
 * table, sampling distribution) looked up by tag, so readers tolerate
 * optional sections and future writers can append new ones without
 * breaking old files. Validation is strict: bad magic, unsupported
 * version, truncation anywhere, duplicate tags and CRC mismatches all
 * raise fatal() with a precise message — a corrupt file can never be
 * half-loaded.
 *
 * High-level save/load covers the repo's three durable artifacts: a
 * trained surrogate::Model (config + weights + vocabulary size), the
 * params::SamplingDist it was trained under (needed to rebuild the
 * input normalizer when serving a paramDim > 0 surrogate), and a
 * learned params::ParamTable. Round trips are bit-exact.
 *
 * Model weights have one encoding, "WTS0" (doubles, bit-exact).
 * Version 2, which added a float weights chunk, is retired: this
 * build reads and writes version 1 only, so a leftover version-2
 * file fails the version gate instead of being half loaded. See docs/CHECKPOINT_FORMAT.md for the payload schemas and
 * the exact rejection behavior.
 */

#ifndef DIFFTUNE_IO_CHECKPOINT_HH
#define DIFFTUNE_IO_CHECKPOINT_HH

#include <memory>
#include <optional>
#include <vector>

#include "io/serialize.hh"
#include "params/sampling.hh"
#include "surrogate/model.hh"

namespace difftune::io
{

/** Container magic: 8 bytes at offset 0 of every checkpoint. */
inline constexpr char checkpointMagic[8] = {'D', 'T', 'C', 'H',
                                            'K', 'P', 'T', '\0'};

/**
 * The container format version this build reads and writes. Version
 * 2 (the retired float weights chunk) is rejected; the next format
 * change must take version 3.
 */
inline constexpr uint32_t checkpointVersion = 1;

/** Well-known chunk tags. */
inline constexpr const char *tagModelConfig = "MCFG";
inline constexpr const char *tagModelWeights = "WTS0";
inline constexpr const char *tagParamTable = "PTBL";
inline constexpr const char *tagSamplingDist = "DIST";

/**
 * One chunked-container file type. The checkpoint machinery — magic
 * header, version gate, tagged CRC-guarded chunks, strict truncation
 * and duplicate rejection — is format-agnostic; a ContainerKind
 * binds it to a concrete file type (the checkpoint itself, the
 * compare module's .preds prediction artifact). Distinct magics keep
 * the types honest: a .preds file can never half-load as a
 * checkpoint or vice versa.
 */
struct ContainerKind
{
    const char *magic;   ///< exactly 8 bytes at offset 0
    uint32_t maxVersion; ///< newest format this build reads/writes
    const char *what;    ///< noun used in error messages
};

/** The checkpoint container (the default kind everywhere). */
inline constexpr ContainerKind checkpointContainer{
    checkpointMagic, checkpointVersion, "checkpoint"};

/** Assembles a chunked container in memory. */
class ChunkWriter
{
  public:
    explicit ChunkWriter(
        const ContainerKind &kind = checkpointContainer)
        : kind_(kind)
    {
    }

    /** Append a chunk; @p tag must be exactly 4 characters. */
    void add(std::string_view tag, std::string payload);

    /** Serialize header + all chunks. */
    std::string serialize() const;

    /** serialize() to @p path (fatal on I/O failure). */
    void writeFile(const std::string &path) const;

  private:
    struct Chunk
    {
        std::string tag;
        std::string payload;
    };

    ContainerKind kind_;
    std::vector<Chunk> chunks_;
};

/** Parses and validates a chunked container. */
class ChunkReader
{
  public:
    /**
     * Parse @p bytes; fatal on any structural defect. @p source
     * names the container in every error message — fromFile passes
     * the file path, so a bad file is always identified by name
     * (empty: @p kind's noun is used).
     */
    explicit ChunkReader(std::string bytes, std::string source = "",
                         const ContainerKind &kind =
                             checkpointContainer);

    /** Read and parse @p path (errors name the path). */
    static ChunkReader
    fromFile(const std::string &path,
             const ContainerKind &kind = checkpointContainer);

    bool has(std::string_view tag) const;

    /** Payload of the chunk tagged @p tag (fatal if absent). */
    std::string_view payload(std::string_view tag) const;

    size_t numChunks() const { return chunks_.size(); }

    /** The container name used in error messages. */
    const std::string &source() const { return source_; }

  private:
    struct Chunk
    {
        std::string tag;
        std::string_view payload; ///< view into bytes_
    };

    std::string bytes_;
    std::string source_;
    std::vector<Chunk> chunks_;
};

// ---- Section payload codecs (exposed for tests).

/** Encode all tensors of @p params (bit-exact). */
std::string encodeParamSet(const nn::ParamSet &params);

/**
 * Decode weights encoded by encodeParamSet into @p params. Tensor
 * count and shapes must match the registered parameters exactly.
 */
void decodeParamSet(std::string_view payload, nn::ParamSet &params);

std::string encodeParamTable(const params::ParamTable &table);
params::ParamTable decodeParamTable(std::string_view payload);

std::string encodeSamplingDist(const params::SamplingDist &dist);
params::SamplingDist decodeSamplingDist(std::string_view payload);

// ---- High-level checkpoint API.

/** Everything a checkpoint can carry; absent sections stay empty. */
struct Checkpoint
{
    /** Trained surrogate/Ithemal model (config + weights). */
    std::unique_ptr<surrogate::Model> model;
    /** Vocabulary size the model was built against. */
    size_t vocabSize = 0;
    /** Sampling distribution (input normalizer for paramDim > 0). */
    std::optional<params::SamplingDist> dist;
    /** Learned simulator parameter table. */
    std::optional<params::ParamTable> table;
};

/**
 * Save a checkpoint to @p path. Null/absent sections are omitted; at
 * least one section must be present.
 */
void saveCheckpoint(const std::string &path,
                    const surrogate::Model *model,
                    const params::SamplingDist *dist,
                    const params::ParamTable *table);

/** Convenience: table-only checkpoint (tuner artifacts). */
void saveTableCheckpoint(const std::string &path,
                         const params::ParamTable &table);

/** Load and validate a checkpoint saved by saveCheckpoint. */
Checkpoint loadCheckpoint(const std::string &path);

} // namespace difftune::io

#endif // DIFFTUNE_IO_CHECKPOINT_HH
