/**
 * @file
 * The Ithemal-style basic-block model and its DiffTune-surrogate
 * variant (Figure 3 of the paper).
 *
 * Architecture: a token embedding table maps each instruction's
 * canonicalized tokens to vectors; a stacked token-level LSTM folds
 * each instruction's tokens into an instruction vector; a stacked
 * block-level LSTM folds the instruction vectors into a block vector;
 * a final linear layer produces the timing prediction.
 *
 * With paramDim > 0 the model is the DiffTune surrogate: a
 * per-instruction parameter vector (the instruction's simulator
 * parameters concatenated with the global parameters) is appended to
 * each instruction vector before the block LSTM — the paper's "‖"
 * concatenation. With paramDim == 0 it is the plain Ithemal baseline.
 */

#ifndef DIFFTUNE_SURROGATE_MODEL_HH
#define DIFFTUNE_SURROGATE_MODEL_HH

#include <memory>
#include <unordered_map>

#include "isa/intern.hh"
#include "isa/tokens.hh"
#include "nn/modules.hh"

namespace difftune::surrogate
{

/** Token sequences of one block, precomputed once per block. */
using EncodedBlock = std::vector<std::vector<isa::TokenId>>;

/**
 * Memo table from an instruction's interned id (isa::InstId) to its
 * token-level LSTM hidden state, for batched inference over *frozen*
 * weights (Model::predictBatch): with the weights fixed, that hidden
 * state is a pure function of the token sequence, and an InstId
 * names exactly one canonical token sequence (isa/intern.hh), so
 * instructions shared across blocks — pervasive in real block
 * corpora — skip the token LSTM entirely on every reuse at the cost
 * of one u32 hash probe instead of a token-vector hash. Reuse is
 * bit-exact: the stored vector is the exact value the executor
 * produced.
 *
 * Bounded: at @p capacity entries the cache stops inserting (no
 * eviction — the instruction vocabulary of a serving workload is
 * small and stable). Not thread-safe: give each serving shard its
 * own (caches only affect speed, never results, so sharding them
 * preserves determinism).
 */
class InstHiddenCache
{
  public:
    explicit InstHiddenCache(size_t capacity = size_t(1) << 16)
        : capacity_(capacity)
    {
    }

    size_t size() const { return map_.size(); }

  private:
    friend class Model;

    struct TokenSeqHash
    {
        size_t
        operator()(const std::vector<isa::TokenId> &tokens) const
        {
            // FNV-1a over the token ids.
            uint64_t hash = 0xcbf29ce484222325ULL;
            for (isa::TokenId token : tokens) {
                hash ^= uint64_t(uint32_t(token));
                hash *= 0x100000001b3ULL;
            }
            return size_t(hash);
        }
    };

    size_t capacity_;
    std::unordered_map<isa::InstId, std::vector<double>> map_;
};

/** Model hyperparameters. */
struct ModelConfig
{
    int embedDim = 32;   ///< token embedding width
    int hidden = 40;     ///< LSTM hidden width (both levels)
    int tokenLayers = 2; ///< stacked LSTMs at the token level
    int blockLayers = 2; ///< stacked LSTMs at the block level
    int paramDim = 0;    ///< per-instruction parameter input width
    uint64_t seed = 0x5eedface;
};

/** The Ithemal / DiffTune-surrogate model. */
class Model
{
  public:
    Model(const ModelConfig &config, size_t vocab_size);

    /**
     * Forward pass for one block.
     *
     * @param ctx graph/params/sink context (sink null = frozen)
     * @param block precomputed token sequences
     * @param inst_params one (paramDim x 1) Var per instruction; must
     *        be empty iff the config's paramDim is 0
     * @return a scalar Var: the timing prediction
     */
    nn::Var forward(nn::Ctx &ctx, const EncodedBlock &block,
                    const std::vector<nn::Var> &inst_params) const;

    /**
     * The block half of forward(): appends each instruction's
     * parameter column to its instruction vector, then runs the
     * block-level LSTM and the head. forward() is instVectors()
     * followed by this, so a caller that feeds frozen instruction
     * hiddens back in as graph inputs (see instHiddens()) gets
     * forward()'s bits.
     *
     * @param inst_vecs one (hidden x 1) Var per instruction
     * @param inst_params as for forward()
     */
    nn::Var blockForward(nn::Ctx &ctx,
                         const std::vector<nn::Var> &inst_vecs,
                         const std::vector<nn::Var> &inst_params) const;

    /**
     * instVectors() values under the current weights, one
     * (hidden x 1) tensor per instruction. With the weights frozen
     * they are a pure function of the block, so phase 4 of DiffTune
     * computes them once per table-training segment.
     */
    std::vector<nn::Tensor> instHiddens(const EncodedBlock &block) const;

    /** Inference without parameter inputs (Ithemal mode). */
    double predict(const EncodedBlock &block) const;

    /**
     * Batched forward for many blocks on @p bf (see nn/batched.hh):
     * the token-level LSTM runs over all instructions of all blocks
     * in lockstep, then the block-level LSTM over all blocks, with
     * one set of weight reads per step. Writes the raw head outputs
     * (the same pre-exp value forward() produces) to @p out, aligned
     * with @p blocks.
     *
     * The results are bit-identical to running forward() per
     * block.
     *
     * Identical instructions are deduplicated within the batch (one
     * token-level lane serves every occurrence), and, when
     * @p inst_cache is given, across batches too — valid whenever
     * the weights are frozen between calls, as in serving.
     *
     * Cross-batch caching is keyed by interned instruction ids:
     * when @p inst_cache is given, @p inst_ids must be given too
     * (one id sequence per block, aligned with its instructions,
     * from the same isa::Interner for the cache's whole lifetime).
     * Instructions carrying isa::invalidInstId — the interner's
     * table was full — still deduplicate within the batch by token
     * sequence; they just never enter the cross-batch cache.
     *
     * @param inst_params per-block, per-instruction parameter-input
     *        columns (each paramDim x 1); must be empty iff the
     *        config's paramDim is 0
     * @param inst_cache optional cross-batch instruction-hidden
     *        memo table (see InstHiddenCache)
     * @param inst_ids per-block interned instruction ids (null
     *        entries allowed per block); required with @p inst_cache
     */
    void predictBatch(
        nn::BatchedForward &bf,
        const std::vector<const EncodedBlock *> &blocks,
        const std::vector<std::vector<const nn::Tensor *>>
            &inst_params,
        std::vector<double> &out,
        InstHiddenCache *inst_cache = nullptr,
        const std::vector<const std::vector<isa::InstId> *>
            *inst_ids = nullptr) const;

    const ModelConfig &config() const { return config_; }
    nn::ParamSet &params() { return params_; }
    const nn::ParamSet &params() const { return params_; }

  private:
    /**
     * The instruction half of forward(): each instruction's
     * token-level LSTM output, one (hidden x 1) Var per instruction.
     */
    std::vector<nn::Var> instVectors(nn::Ctx &ctx,
                                     const EncodedBlock &block) const;

    ModelConfig config_;
    nn::ParamSet params_;
    std::unique_ptr<nn::Embedding> embed_;
    std::unique_ptr<nn::LstmStack> tokenLstm_;
    std::unique_ptr<nn::LstmStack> blockLstm_;
    std::unique_ptr<nn::Linear> head_;
};

/** Encode a block with the shared vocabulary. */
EncodedBlock encodeBlock(const isa::BasicBlock &block);

/**
 * Freeze @p model's weights into a shareable nn::WeightSnapshot
 * that keeps the model alive (the snapshot borrows the ParamSet
 * storage in place and holds the model as its owner). Every
 * nn::BatchedForward bound to the snapshot — across any number of
 * serving shards or engines — shares one copy of the derived
 * input-projection tables. The model must not be trained
 * further while the snapshot exists.
 */
std::shared_ptr<nn::WeightSnapshot>
makeWeightSnapshot(std::shared_ptr<const Model> model);

} // namespace difftune::surrogate

#endif // DIFFTUNE_SURROGATE_MODEL_HH
