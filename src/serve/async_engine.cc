/**
 * @file
 * AsyncEngine implementation.
 *
 * Locking: queueMutex_ guards only the worker queues and the
 * stop/flush flags; the cache stripes are leaf locks taken with no
 * other lock held. Each worker's executor is touched by its own
 * thread only, so batches need no lock at all: a worker serves with
 * no queue lock held, and clients keep submitting while it runs.
 */

#include "serve/async_engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "base/env.hh"
#include "base/parallel.hh"
#include "core/raw_table.hh"
#include "isa/parse.hh"
#include "obs/stage_timer.hh"

namespace difftune::serve
{

namespace
{

int
cacheStripes(const AsyncConfig &config)
{
    return config.cacheStripes > 0 ? config.cacheStripes : 8;
}

} // namespace

AsyncEngine::AsyncEngine(io::ModelSnapshot artifact,
                         AsyncConfig config)
    : artifact_(std::move(artifact)),
      workers_(config.workers > 0 ? config.workers : workerThreads()),
      config_(config),
      interner_(config.internCapacity > 0 ? 2 * config.internCapacity
                                          : size_t(1) << 17,
                config.internCapacity > 0 ? config.internCapacity
                                          : size_t(1) << 16),
      textCache_(config.cacheCapacity, cacheStripes(config),
                 config.cachePolicy),
      cache_(config.cacheCapacity, cacheStripes(config),
             config.cachePolicy)
{
    fatal_if(!artifact_.model || !artifact_.weights,
             "AsyncEngine needs a promoted ModelSnapshot "
             "(io::makeModelSnapshot)");

    const int param_dim = artifact_.model->config().paramDim;
    if (param_dim > 0) {
        // A DiffTune surrogate needs its frozen inputs: the learned
        // table and the sampling distribution whose widths normalize
        // the table entries.
        fatal_if(!artifact_.table,
                 "surrogate checkpoint (paramDim {}) carries no "
                 "parameter table",
                 param_dim);
        fatal_if(!artifact_.dist,
                 "surrogate checkpoint (paramDim {}) carries no "
                 "sampling distribution",
                 param_dim);
        const params::ParamTable &table = *artifact_.table;
        fatal_if(table.numOpcodes() != isa::theIsa().numOpcodes(),
                 "checkpoint table has {} opcodes, ISA has {}",
                 table.numOpcodes(), isa::theIsa().numOpcodes());
        const core::ParamNormalizer norm(*artifact_.dist);
        fatal_if(norm.paramDim() != param_dim,
                 "checkpoint sampling distribution implies paramDim "
                 "{}, model expects {}",
                 norm.paramDim(), param_dim);
        // The table is frozen from here on, so each opcode's input
        // column is a constant. They live in the shared snapshot:
        // a sibling engine that already completed them makes them
        // visible through hasInputColumns and we skip the whole
        // computation; in a genuine construction race both compute
        // identical columns (pure function of the frozen
        // checkpoint) and setInputColumns keeps the winner's with
        // proper synchronization.
        if (!artifact_.weights->hasInputColumns()) {
            std::vector<nn::Tensor> columns;
            columns.reserve(table.numOpcodes());
            for (size_t op = 0; op < table.numOpcodes(); ++op)
                columns.push_back(core::opcodeParamInput(
                    table, isa::OpcodeId(op), norm));
            artifact_.weights->setInputColumns(std::move(columns));
        }
    }
    snapshot_ = artifact_.weights;

    registerMetrics();

    // One executor + instruction-hidden memo per worker, all
    // borrowing the one snapshot: every input projection happens
    // once per engine (or once per *artifact*, when engines share),
    // not once per executor. Every worker is built before any
    // thread starts, so pool_ is immutable from here on and workers
    // index siblings' queues without further coordination.
    pool_.reserve(size_t(workers_));
    for (int w = 0; w < workers_; ++w) {
        pool_.push_back(std::make_unique<Worker>());
        pool_.back()->batched =
            std::make_unique<nn::BatchedForward>(snapshot_);
    }
    try {
        for (size_t w = 0; w < pool_.size(); ++w)
            pool_[w]->thread =
                std::thread(&AsyncEngine::dispatchLoop, this, w);
    } catch (...) {
        // No destructor runs for a throwing constructor: join the
        // threads that did start and drop the counter mirrors here.
        shutdown();
        if (registry_)
            registry_->unlinkCounters(metricPrefix_ + ".");
        throw;
    }
}

void
AsyncEngine::registerMetrics()
{
    // The kill switch: with DIFFTUNE_OBS_OFF set (or setEnabled
    // false) every stage pointer stays null and the spans below
    // degrade to single branches — no clock reads, no records, no
    // registry entries. Sampled once here; the engine's lifetime
    // pins the answer.
    if (!obs::enabled())
        return;
    static std::atomic<uint64_t> nextEngineId{0};
    metricPrefix_ =
        config_.metricPrefix.empty()
            ? "serve.engine" + std::to_string(nextEngineId.fetch_add(
                                   1, std::memory_order_relaxed))
            : config_.metricPrefix;
    registry_ = config_.registry ? config_.registry
                                 : &obs::MetricRegistry::global();
    const std::string p = metricPrefix_ + ".";
    std::vector<std::string> linked;
    try {
        // ServeStats mirrors: the registry reads the live atomics
        // (no second copy to drift); ~AsyncEngine unlinks them.
        const std::pair<const char *, const std::atomic<uint64_t> *>
            mirrors[] = {
                {"requests", &stats_.requests},
                {"text_hits", &stats_.textHits},
                {"text_misses", &stats_.textMisses},
                {"hits", &stats_.hits},
                {"misses", &stats_.misses},
                {"forwards", &stats_.forwards},
                {"batches", &stats_.batches},
                {"intern_hits", &stats_.internHits},
                {"encode_hits", &stats_.encodeHits},
            };
        for (const auto &[field, source] : mirrors) {
            registry_->linkCounter(p + field, source);
            linked.push_back(p + field);
        }
        // Registry-owned stage instrumentation (immortal; engines
        // reusing an explicit prefix sequentially accumulate into
        // the same histograms).
        stage_.request = &registry_->histogram(p + "request_ns");
        stage_.parse = &registry_->histogram(p + "stage.parse_ns");
        stage_.intern = &registry_->histogram(p + "stage.intern_ns");
        stage_.predCache =
            &registry_->histogram(p + "stage.pred_cache_ns");
        stage_.encode = &registry_->histogram(p + "stage.encode_ns");
        stage_.forward =
            &registry_->histogram(p + "stage.forward_ns");
        stage_.queueWait =
            &registry_->histogram(p + "stage.queue_wait_ns");
        stage_.coalesce =
            &registry_->histogram(p + "stage.coalesce_ns");
        stage_.batchSize =
            &registry_->histogram(p + "batch_size");
        stage_.queueDepth = &registry_->gauge(p + "queue_depth");
    } catch (...) {
        // A prefix collision (two live engines sharing a prefix)
        // aborts construction; drop exactly the links THIS call
        // made — a prefix-wide unlink would tear down the other
        // live engine's mirrors — so no dangling ServeStats
        // pointer survives this engine.
        for (const std::string &name : linked)
            registry_->unlinkCounter(name);
        stage_ = {};
        registry_ = nullptr;
        throw;
    }
}

AsyncEngine::AsyncEngine(io::Checkpoint checkpoint, AsyncConfig config)
    : AsyncEngine(io::makeModelSnapshot(std::move(checkpoint)),
                  std::move(config))
{
}

std::unique_ptr<AsyncEngine>
AsyncEngine::loadFromFile(const std::string &path, AsyncConfig config)
{
    io::ModelSnapshot artifact = io::loadModelSnapshot(path);
    try {
        return std::make_unique<AsyncEngine>(std::move(artifact),
                                             std::move(config));
    } catch (const std::exception &error) {
        fatal("cannot serve checkpoint '{}': {}", path,
              stripErrorPrefix(error.what()));
    }
}

AsyncEngine::~AsyncEngine()
{
    shutdown();
    // The registry must stop reading this engine's ServeStats before
    // the struct dies; the stage histograms stay behind, frozen.
    if (registry_)
        registry_->unlinkCounters(metricPrefix_ + ".");
}

void
AsyncEngine::shutdown()
{
    stopped_.store(true, std::memory_order_release);
    {
        std::lock_guard lock(queueMutex_);
        stopping_ = true;
        ++flushes_;
    }
    queueCv_.notify_all();
    // Exactly one caller joins (joinable() goes false afterwards);
    // shutdownMutex_ makes concurrent shutdown() calls — including
    // one racing the destructor — serialize instead of double-join,
    // and every caller returns only once the drain is complete.
    std::lock_guard lock(shutdownMutex_);
    for (const auto &worker : pool_)
        if (worker->thread.joinable())
            worker->thread.join();
}

// --------------------------------------------------------------- intake

std::vector<std::future<double>>
AsyncEngine::enqueue(const std::vector<std::string> &texts, bool group,
                     bool sampled, bool caller_timed)
{
    // Intake closes atomically at shutdown — even for requests the
    // caches could still answer, so "closed" is unambiguous.
    // Rejection is a catchable EngineStoppedError, never fatal():
    // the daemon must survive clients racing a drain.
    if (stopped_.load(std::memory_order_acquire))
        throw EngineStoppedError();
    // Chained laps: each stage boundary is one clock read shared
    // with the next stage (N stages cost N+1 reads, not 2N), and
    // only sampled calls (see kStageSamplePeriod) record laps.
    obs::StageClock clk(sampled);
    std::vector<std::future<double>> futures;
    futures.reserve(texts.size());
    std::vector<Pending> misses;
    /** In-call raw-text dedup: the queued miss of each text. */
    std::unordered_map<std::string_view, size_t> raw_index;
    /** In-call canonical dedup, by interned id. */
    std::unordered_map<isa::BlockId, size_t> id_index;

    for (const std::string &text : texts) {
        std::promise<double> promise;
        futures.push_back(promise.get_future());
        ++stats_.requests;
        if (std::optional<double> hit = textCache_.get(text)) {
            ++stats_.textHits;
            ++stats_.hits;
            promise.set_value(*hit);
            continue;
        }
        ++stats_.textMisses;
        // An exact repeat of a text queued by this call: wait on
        // the same forward. It counts as a miss — it was in no
        // cache when served (ServeStats::hits means answered from
        // an LRU).
        if (auto it = raw_index.find(text); it != raw_index.end()) {
            ++stats_.misses;
            misses[it->second].promises.push_back(std::move(promise));
            continue;
        }
        clk.restart();
        isa::BasicBlock block;
        try {
            block = isa::parseBlock(text);
            fatal_if(block.empty(), "cannot predict an empty block");
        } catch (...) {
            // Per-request failure: this request's future carries the
            // error; the rest of the call is served normally.
            ++stats_.misses;
            promise.set_exception(std::current_exception());
            continue;
        }
        clk.lap(stage_.parse);
        // Resolve the parsed block to its interned canonical id —
        // the key for the prediction cache. A near-miss spelling of
        // a known block lands on its existing id here, with no
        // canonical string ever built.
        bool known = false;
        const isa::BlockId id = interner_.internBlock(block, known);
        if (known)
            ++stats_.internHits;
        clk.lap(stage_.intern);
        if (id != isa::invalidBlockId) {
            std::optional<double> hit = cache_.get(id);
            clk.lap(stage_.predCache);
            if (hit) {
                ++stats_.hits;
                promise.set_value(*hit);
                textCache_.put(text, *hit);
                continue;
            }
        }
        ++stats_.misses;
        // Canonical dedup: another spelling of a block this call
        // already queued shares its forward. An uninterned block
        // (interner full) is served uncachably on its own.
        size_t slot = misses.size();
        if (id != isa::invalidBlockId)
            slot = id_index.try_emplace(id, misses.size()).first->second;
        if (slot == misses.size())
            misses.push_back(
                Pending{id, std::move(block), {}, {}, 0, caller_timed});
        misses[slot].promises.push_back(std::move(promise));
        misses[slot].texts.push_back(text);
        raw_index.emplace(text, slot); // views into texts: stable
    }
    if (misses.empty())
        return futures;
    // A group's misses split into contiguous ranges, range r to
    // worker r — the same blocks reach the same executor (and its
    // instruction memo) for a given group at any load. A single
    // takes the next round-robin stripe; the draw sits outside the
    // lock, since it only has to distribute, not order.
    const size_t first =
        group ? 0
              : size_t(intakeStripe_.fetch_add(
                    1, std::memory_order_relaxed));
    const size_t chunk = shardChunk(misses.size(), pool_.size());
    // One timestamp for the whole call, and none for a call the
    // caches answered: the warm path stays free of clock reads.
    const uint64_t enqueued = stage_.on() ? obs::nowNs() : 0;
    {
        std::lock_guard lock(queueMutex_);
        // Rejected misses were already counted (hits + misses ==
        // requests still holds).
        if (stopping_)
            throw EngineStoppedError();
        for (size_t i = 0; i < misses.size(); ++i) {
            misses[i].enqueuedNs = enqueued;
            pool_[(first + i / chunk) % pool_.size()]->queue.push_back(
                std::move(misses[i]));
        }
        totalQueued_ += misses.size();
        if (stage_.on())
            stage_.queueDepth->set(int64_t(totalQueued_));
        // A group is all here already: let the workers skip the
        // coalescing wait.
        if (group)
            ++flushes_;
    }
    // One worker suffices for one single — unless it lands while the
    // only awake worker is mid-coalesce on another queue, which a
    // pool avoids by waking everyone (cheap at pool sizes).
    if (!group && pool_.size() == 1)
        queueCv_.notify_one();
    else
        queueCv_.notify_all();
    return futures;
}

bool
AsyncEngine::sampleTick()
{
    return stage_.on() &&
           stageSampleTick_.fetch_add(1, std::memory_order_relaxed) %
                   kStageSamplePeriod ==
               0;
}

std::future<double>
AsyncEngine::submit(std::string block_text)
{
    std::vector<std::string> one;
    one.push_back(std::move(block_text));
    return std::move(enqueue(one, false, sampleTick(), false)[0]);
}

std::vector<std::future<double>>
AsyncEngine::submitAll(std::vector<std::string> block_texts)
{
    return enqueue(block_texts, true, sampleTick(), false);
}

double
AsyncEngine::predict(const std::string &block_text)
{
    const bool sampled = sampleTick();
    obs::StageTimer span(sampled ? stage_.request : nullptr);
    return enqueue({block_text}, true, sampled, true)[0].get();
}

std::vector<double>
AsyncEngine::predictAll(const std::vector<std::string> &block_texts)
{
    // Every request in the group completes when this call returns,
    // so the call span is each one's end-to-end latency: one pair of
    // clock reads, recorded once per request.
    const uint64_t begin = stage_.on() ? obs::nowNs() : 0;
    std::vector<std::future<double>> futures =
        enqueue(block_texts, true, sampleTick(), true);
    std::vector<double> results;
    results.reserve(futures.size());
    for (std::future<double> &future : futures)
        results.push_back(future.get());
    if (stage_.on() && !block_texts.empty()) {
        const uint64_t elapsed = obs::elapsedNs(begin, obs::nowNs());
        for (size_t i = 0; i < block_texts.size(); ++i)
            stage_.request->record(elapsed);
    }
    return results;
}

// ----------------------------------------------------------- batch core

void
AsyncEngine::serveBatch(Worker &worker, std::vector<Pending> &batch)
{
    ++stats_.batches;
    // Singles from concurrent clients may repeat a block (or a
    // racing batch may have published it since the intake probe):
    // forward each distinct uncached block once.
    std::vector<double> values(batch.size(), 0.0);
    std::vector<const Pending *> forward;
    std::vector<size_t> forward_of(batch.size(), SIZE_MAX);
    std::unordered_map<isa::BlockId, size_t> first_of;
    for (size_t i = 0; i < batch.size(); ++i) {
        const isa::BlockId id = batch[i].id;
        if (id != isa::invalidBlockId) {
            if (std::optional<double> hit = cache_.get(id)) {
                values[i] = *hit;
                continue;
            }
            auto [it, fresh] = first_of.try_emplace(id, forward.size());
            if (!fresh) {
                forward_of[i] = it->second;
                continue;
            }
        }
        forward_of[i] = forward.size();
        forward.push_back(&batch[i]);
    }
    stats_.forwards += forward.size();

    if (!forward.empty()) {
        obs::StageTimer forward_span(stage_.forward);
        const std::vector<double> predictions =
            forwardMisses(worker, forward);
        for (size_t i = 0; i < batch.size(); ++i)
            if (forward_of[i] != SIZE_MAX)
                values[i] = predictions[forward_of[i]];
    }

    // Publish, then fulfill: a client woken by its future must find
    // the caches already warm.
    for (size_t i = 0; i < batch.size(); ++i) {
        if (forward_of[i] != SIZE_MAX &&
            batch[i].id != isa::invalidBlockId)
            cache_.put(batch[i].id, values[i]);
        for (const std::string &text : batch[i].texts)
            textCache_.put(text, values[i]);
    }
    for (size_t i = 0; i < batch.size(); ++i)
        for (std::promise<double> &promise : batch[i].promises)
            promise.set_value(values[i]);
}

std::vector<double>
AsyncEngine::forwardMisses(Worker &worker,
                           const std::vector<const Pending *> &misses)
{
    const std::vector<nn::Tensor> &columns = snapshot_->inputColumns();
    const size_t count = misses.size();
    std::vector<surrogate::EncodedBlock> encoded(count);
    std::vector<const surrogate::EncodedBlock *> blocks;
    std::vector<const std::vector<isa::InstId> *> inst_ids;
    std::vector<std::vector<const nn::Tensor *>> inst_params;
    blocks.reserve(count);
    inst_ids.reserve(count);
    for (size_t m = 0; m < count; ++m) {
        // Per-miss lane acquisition span; pool workers record
        // concurrently (record() is wait-free).
        obs::StageTimer encode_span(stage_.encode);
        const Pending &miss = *misses[m];
        if (miss.id != isa::invalidBlockId) {
            // An interned block's lanes come from the interner's
            // per-instruction token storage — exactly encodeBlock's
            // output (intern.hh stores the canonical encoding at
            // intern time).
            ++stats_.encodeHits;
            inst_ids.push_back(&interner_.instIds(miss.id));
            encoded[m].reserve(inst_ids.back()->size());
            for (isa::InstId inst : *inst_ids.back())
                encoded[m].push_back(interner_.tokens(inst));
        } else {
            // Interner full: encode from scratch.
            inst_ids.push_back(nullptr);
            encoded[m] = surrogate::encodeBlock(miss.block);
        }
        blocks.push_back(&encoded[m]);
    }
    if (!columns.empty()) {
        inst_params.reserve(count);
        for (const Pending *miss : misses) {
            inst_params.emplace_back();
            inst_params.back().reserve(miss->block.size());
            for (const auto &inst : miss->block.insts)
                inst_params.back().push_back(
                    &columns[size_t(inst.opcode)]);
        }
    }
    std::vector<double> heads;
    artifact_.model->predictBatch(*worker.batched, blocks, inst_params,
                                  heads, &worker.instCache, &inst_ids);
    // Same expression as Graph::exp (the sequential path's final
    // node), so the kF64 batched prediction is bit-identical to
    // forwardEncoded's.
    for (double &head : heads)
        head = std::exp(std::min(head, 30.0));
    return heads;
}

double
AsyncEngine::forwardEncoded(nn::Graph &graph,
                            const surrogate::EncodedBlock &encoded,
                            const isa::BasicBlock &block) const
{
    fatal_if(block.empty(), "cannot predict an empty block");
    const std::vector<nn::Tensor> &columns = snapshot_->inputColumns();
    nn::Ctx ctx{graph, artifact_.model->params(), nullptr};
    std::vector<nn::Var> inputs;
    if (!columns.empty()) {
        inputs.reserve(block.size());
        for (const auto &inst : block.insts)
            inputs.push_back(
                graph.input(columns[size_t(inst.opcode)]));
    }
    nn::Var pred = graph.exp(
        artifact_.model->forward(ctx, encoded, inputs));
    return graph.scalarValue(pred);
}

double
AsyncEngine::predictUncached(const std::string &block_text) const
{
    const isa::BasicBlock block = isa::parseBlock(block_text);
    nn::Graph graph;
    return forwardEncoded(graph, surrogate::encodeBlock(block), block);
}

// ----------------------------------------------------------- dispatcher

void
AsyncEngine::dispatchLoop(size_t self)
{
    // Async end-to-end latency: submit-time stamp to future
    // fulfillment, one clock read per micro-batch. (Requests the
    // intake answered from a cache never reach this histogram;
    // predict / predictAll time their own calls.)
    auto recordRequests = [this](const std::vector<Pending> &batch) {
        if (!stage_.on())
            return;
        const uint64_t now = obs::nowNs();
        for (const Pending &pending : batch)
            if (!pending.callerTimed)
                for (size_t k = 0; k < pending.promises.size(); ++k)
                    stage_.request->record(
                        obs::elapsedNs(pending.enqueuedNs, now));
    };
    Worker &me = *pool_[self];
    std::vector<Pending> batch;
    uint64_t served_flushes = 0;
    while (true) {
        {
            std::unique_lock lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return stopping_ || totalQueued_ > 0;
            });
            if (totalQueued_ == 0)
                return; // stopping and fully drained
            // Coalescing window: an undersized batch of this
            // worker's own traffic waits briefly for company —
            // unless a flush (a group, shutdown) already
            // promised none is coming. A worker woken only to
            // steal (own queue empty) skips the wait: a backlog on
            // a busy sibling is dense traffic, and its owner
            // already paid any coalescing delay.
            if (!stopping_ && !me.queue.empty() &&
                me.queue.size() < kMaxBatch &&
                served_flushes == flushes_) {
                obs::StageTimer coalesce_span(stage_.coalesce);
                queueCv_.wait_for(
                    lock, std::chrono::microseconds(kMaxWaitMicros),
                    [this, &me, served_flushes] {
                        return stopping_ ||
                               me.queue.size() >= kMaxBatch ||
                               served_flushes != flushes_;
                    });
            }
            // Intake: drain the own queue first (striped FIFO
            // affinity), then — only when idle — steal from loaded
            // siblings, oldest requests first, scanning round-robin
            // from the next worker up.
            std::deque<Pending> &own = me.queue;
            const size_t own_take = std::min(own.size(), kMaxBatch);
            batch.reserve(own_take);
            for (size_t i = 0; i < own_take; ++i) {
                batch.push_back(std::move(own.front()));
                own.pop_front();
            }
            if (batch.empty()) {
                for (size_t step = 1;
                     step < pool_.size() && batch.size() < kMaxBatch;
                     ++step) {
                    std::deque<Pending> &victim =
                        pool_[(self + step) % pool_.size()]->queue;
                    while (!victim.empty() && batch.size() < kMaxBatch) {
                        batch.push_back(std::move(victim.front()));
                        victim.pop_front();
                    }
                }
            }
            totalQueued_ -= batch.size();
            if (stage_.on()) {
                // Pool-correct accounting: the gauge mirrors the
                // backlog summed over every per-worker queue, and
                // each request's queue wait runs from its enqueue
                // on the owning queue to this pop — stolen requests
                // keep their original stamp.
                stage_.queueDepth->set(int64_t(totalQueued_));
                const uint64_t now = obs::nowNs();
                size_t requests = 0;
                for (const Pending &pending : batch) {
                    requests += pending.promises.size();
                    for (size_t k = 0; k < pending.promises.size(); ++k)
                        stage_.queueWait->record(
                            obs::elapsedNs(pending.enqueuedNs, now));
                }
                if (requests > 0) // not a sibling's drained backlog
                    stage_.batchSize->record(requests);
            }
            // Only a fully-drained intake re-arms the coalescing
            // wait: a remainder (the tail of an oversized group, or
            // a backlog of singles deeper than kMaxBatch) is dense
            // traffic that must be served immediately, not held for
            // company that is already here.
            served_flushes =
                totalQueued_ == 0 ? flushes_ : flushes_ - 1;
        }
        if (batch.empty())
            continue; // a sibling drained the backlog first

        // Serve with no queue lock held, on this worker's own
        // executor, so clients keep submitting and batches on other
        // pool workers run concurrently while this one executes.
        try {
            serveBatch(me, batch);
        } catch (...) {
            // Parse errors never get here (the intake answers them);
            // anything that still escapes (allocation failure) fails
            // the whole micro-batch rather than abandoning the
            // futures. serveBatch fulfills nothing before it is done.
            for (Pending &pending : batch)
                for (std::promise<double> &promise : pending.promises)
                    promise.set_exception(std::current_exception());
        }
        recordRequests(batch);
        batch.clear(); // frees the blocks outside queueMutex_
    }
}

} // namespace difftune::serve
