/**
 * @file
 * Model implementation.
 */

#include "surrogate/model.hh"

#include <algorithm>

#include "obs/metrics.hh"

namespace difftune::surrogate
{

namespace
{

/**
 * Process-wide batched-forward telemetry, resolved from the global
 * registry on the first batched call (per obs's contract that
 * instrumentation samples the kill switch when constructed). All
 * pointers stay null when observability was disabled at that point;
 * enabled() is still consulted per call so a setEnabled(false) run
 * measured against an earlier-enabled process stays quiet.
 */
struct PredictBatchMetrics
{
    obs::Counter *calls = nullptr;
    obs::Counter *blocks = nullptr;
    obs::Counter *instCacheHits = nullptr;
    obs::Counter *tokenLanes = nullptr;
    obs::LatencyHistogram *width = nullptr;
};

const PredictBatchMetrics &
predictBatchMetrics()
{
    static const PredictBatchMetrics metrics = [] {
        PredictBatchMetrics m;
        if (!obs::enabled())
            return m;
        obs::MetricRegistry &reg = obs::MetricRegistry::global();
        m.calls = &reg.counter("surrogate.predict_batch.calls");
        m.blocks = &reg.counter("surrogate.predict_batch.blocks");
        m.instCacheHits =
            &reg.counter("surrogate.predict_batch.inst_cache_hits");
        m.tokenLanes =
            &reg.counter("surrogate.predict_batch.token_lanes");
        m.width =
            &reg.histogram("surrogate.predict_batch.width");
        return m;
    }();
    return metrics;
}

} // namespace

Model::Model(const ModelConfig &config, size_t vocab_size)
    : config_(config)
{
    Rng rng(config.seed);
    embed_ = std::make_unique<nn::Embedding>(params_, int(vocab_size),
                                             config.embedDim, rng);
    tokenLstm_ = std::make_unique<nn::LstmStack>(
        params_, config.embedDim, config.hidden, config.tokenLayers, rng);
    blockLstm_ = std::make_unique<nn::LstmStack>(
        params_, config.hidden + config.paramDim, config.hidden,
        config.blockLayers, rng);
    head_ = std::make_unique<nn::Linear>(params_, config.hidden, 1, rng);
}

nn::Var
Model::forward(nn::Ctx &ctx, const EncodedBlock &block,
               const std::vector<nn::Var> &inst_params) const
{
    return blockForward(ctx, instVectors(ctx, block), inst_params);
}

std::vector<nn::Var>
Model::instVectors(nn::Ctx &ctx, const EncodedBlock &block) const
{
    std::vector<nn::Var> inst_vecs;
    inst_vecs.reserve(block.size());
    std::vector<nn::Var> token_vecs;
    for (const std::vector<isa::TokenId> &tokens : block) {
        token_vecs.clear();
        for (isa::TokenId token : tokens)
            token_vecs.push_back(embed_->forward(ctx, int(token)));
        inst_vecs.push_back(tokenLstm_->runSequence(ctx, token_vecs));
    }
    return inst_vecs;
}

nn::Var
Model::blockForward(nn::Ctx &ctx, const std::vector<nn::Var> &inst_vecs,
                    const std::vector<nn::Var> &inst_params) const
{
    panic_if(inst_vecs.empty(), "surrogate forward on an empty block");
    panic_if(config_.paramDim == 0
                 ? !inst_params.empty()
                 : inst_params.size() != inst_vecs.size(),
             "got {} parameter vectors for {} instructions "
             "(paramDim {})",
             inst_params.size(), inst_vecs.size(), config_.paramDim);

    std::vector<nn::Var> block_in = inst_vecs;
    if (config_.paramDim > 0) {
        for (size_t i = 0; i < block_in.size(); ++i)
            block_in[i] = ctx.graph.concat({inst_vecs[i], inst_params[i]});
    }
    return head_->forward(ctx, blockLstm_->runSequence(ctx, block_in));
}

std::vector<nn::Tensor>
Model::instHiddens(const EncodedBlock &block) const
{
    // One reusable graph per thread, as in predict().
    static thread_local nn::Graph graph;
    graph.clear();
    nn::Ctx ctx{graph, params_, nullptr};
    std::vector<nn::Tensor> hiddens;
    hiddens.reserve(block.size());
    for (nn::Var v : instVectors(ctx, block)) {
        const nn::TensorView view = graph.value(v);
        nn::Tensor &hidden = hiddens.emplace_back(view.rows, view.cols);
        std::copy(view.data, view.data + view.size(), hidden.data.begin());
    }
    return hiddens;
}

void
Model::predictBatch(
    nn::BatchedForward &bf,
    const std::vector<const EncodedBlock *> &blocks,
    const std::vector<std::vector<const nn::Tensor *>> &inst_params,
    std::vector<double> &out, InstHiddenCache *inst_cache,
    const std::vector<const std::vector<isa::InstId> *> *inst_ids)
    const
{
    const bool has_params = config_.paramDim > 0;
    panic_if(has_params ? inst_params.size() != blocks.size()
                        : !inst_params.empty(),
             "predictBatch: {} parameter-input blocks for {} blocks "
             "(paramDim {})",
             inst_params.size(), blocks.size(), config_.paramDim);
    panic_if(inst_cache && !inst_ids,
             "predictBatch: the cross-batch cache is keyed by "
             "interned ids; pass inst_ids alongside inst_cache");
    panic_if(inst_ids && inst_ids->size() != blocks.size(),
             "predictBatch: {} id sequences for {} blocks",
             inst_ids->size(), blocks.size());
    out.resize(blocks.size());
    if (blocks.empty())
        return;

    // Token level: one lane per *distinct* instruction across the
    // whole batch (embedding rows gathered straight from the table).
    // Instructions found in inst_cache skip the LSTM entirely.
    // Distinctness is a u32 probe when the caller interned the
    // instruction; only invalid-id instructions (interner full) pay
    // the token-vector hash, and those never enter the cross-batch
    // cache.
    struct InstSrc
    {
        int lane = -1; ///< token lane in this batch, or -1
        const std::vector<double> *cached = nullptr;
    };
    std::vector<InstSrc> sources;
    std::unordered_map<isa::InstId, int> id_lanes;
    std::unordered_map<std::vector<isa::TokenId>, int,
                       InstHiddenCache::TokenSeqHash>
        token_lanes;
    auto addTokenLane = [&](const std::vector<isa::TokenId> &tokens,
                            int &lane) {
        if (lane >= 0)
            return;
        lane = bf.addLane(int(tokens.size()));
        for (size_t t = 0; t < tokens.size(); ++t)
            bf.setInputParamRow(lane, int(t), 0,
                                embed_->tableIndex(),
                                int(tokens[t]));
    };
    bf.begin(config_.embedDim);
    for (size_t b = 0; b < blocks.size(); ++b) {
        const EncodedBlock *block = blocks[b];
        panic_if(block->empty(), "predictBatch on an empty block");
        const std::vector<isa::InstId> *ids =
            inst_ids ? (*inst_ids)[b] : nullptr;
        panic_if(ids && ids->size() != block->size(),
                 "predictBatch: block {} has {} interned ids for "
                 "{} instructions",
                 b, ids->size(), block->size());
        for (size_t i = 0; i < block->size(); ++i) {
            const std::vector<isa::TokenId> &tokens = (*block)[i];
            const isa::InstId id =
                ids ? (*ids)[i] : isa::invalidInstId;
            InstSrc src;
            if (id != isa::invalidInstId) {
                if (inst_cache) {
                    auto hit = inst_cache->map_.find(id);
                    if (hit != inst_cache->map_.end()) {
                        src.cached = &hit->second;
                        sources.push_back(src);
                        continue;
                    }
                }
                auto [slot, fresh] = id_lanes.try_emplace(id, -1);
                if (fresh)
                    addTokenLane(tokens, slot->second);
                src.lane = slot->second;
            } else {
                auto [slot, fresh] =
                    token_lanes.try_emplace(tokens, -1);
                if (fresh)
                    addTokenLane(tokens, slot->second);
                src.lane = slot->second;
            }
            sources.push_back(src);
        }
    }
    bf.run(tokenLstm_->batchedRef());
    if (inst_cache) {
        for (auto &[id, lane] : id_lanes) {
            if (inst_cache->map_.size() >= inst_cache->capacity_)
                break;
            std::vector<double> hidden(size_t(config_.hidden));
            bf.finalHidden(lane, hidden.data());
            inst_cache->map_.emplace(id, std::move(hidden));
        }
    }

    // Block level: one lane per block; each step's input is the
    // instruction's token-level hidden state, with the parameter
    // column appended for a paramDim > 0 surrogate (the paper's "‖"
    // concatenation).
    bf.begin(config_.hidden + config_.paramDim);
    size_t inst = 0;
    for (size_t b = 0; b < blocks.size(); ++b) {
        const EncodedBlock &block = *blocks[b];
        panic_if(has_params &&
                     inst_params[b].size() != block.size(),
                 "predictBatch: block {} has {} parameter columns "
                 "for {} instructions",
                 b, inst_params[b].size(), block.size());
        const int lane = bf.addLane(int(block.size()));
        for (size_t i = 0; i < block.size(); ++i, ++inst) {
            const InstSrc &src = sources[inst];
            if (src.cached)
                bf.setInput(lane, int(i), 0, src.cached->data(),
                            config_.hidden);
            else
                bf.setInputPrevHidden(lane, int(i), 0, src.lane);
            if (has_params) {
                const nn::Tensor &col = *inst_params[b][i];
                panic_if(col.rows != config_.paramDim ||
                             col.cols != 1,
                         "predictBatch: parameter column is "
                         "{}x{}, expected {}x1",
                         col.rows, col.cols, config_.paramDim);
                bf.setInput(lane, int(i), config_.hidden,
                            col.data.data(), config_.paramDim);
            }
        }
    }
    bf.run(blockLstm_->batchedRef());
    bf.headAll(head_->batchedRef(), out.data());

    // A handful of relaxed atomic bumps per *batch* (not per block):
    // negligible next to the two LSTM sweeps above. Thread-safe —
    // concurrent shard executors land on the same counters.
    const PredictBatchMetrics &m = predictBatchMetrics();
    if (m.calls != nullptr && obs::enabled()) {
        m.calls->inc();
        m.blocks->inc(blocks.size());
        m.instCacheHits->inc(uint64_t(std::count_if(
            sources.begin(), sources.end(),
            [](const InstSrc &src) { return src.cached != nullptr; })));
        m.tokenLanes->inc(id_lanes.size() + token_lanes.size());
        m.width->record(blocks.size());
    }
}

double
Model::predict(const EncodedBlock &block) const
{
    // One reusable arena-backed graph per thread: predict() runs in
    // tight per-block loops (evaluation, benches), where clear()
    // reuse makes tape construction allocation-free.
    static thread_local nn::Graph graph;
    graph.clear();
    nn::Ctx ctx{graph, params_, nullptr};
    nn::Var pred = forward(ctx, block, {});
    return graph.scalarValue(pred);
}

EncodedBlock
encodeBlock(const isa::BasicBlock &block)
{
    return isa::theVocab().encode(block);
}

std::shared_ptr<nn::WeightSnapshot>
makeWeightSnapshot(std::shared_ptr<const Model> model)
{
    panic_if(!model, "makeWeightSnapshot: null model");
    const nn::ParamSet &params = model->params();
    return std::make_shared<nn::WeightSnapshot>(params,
                                                std::move(model));
}

} // namespace difftune::surrogate
