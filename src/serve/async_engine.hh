/**
 * @file
 * Serving API v2: a thread-safe, asynchronously-batched prediction
 * engine over one shared frozen WeightSnapshot.
 *
 * AsyncEngine is the only serving engine; docs/SERVING.md has the
 * full contract and the migration note from the removed v1
 * synchronous wrapper. Its shape:
 *
 *  - **One knob, one executor per worker.** AsyncConfig::workers
 *    sizes a dispatcher pool. Each pool worker owns an intake queue,
 *    exactly one nn::BatchedForward executor and its
 *    instruction-hidden memo, and runs its micro-batches on that
 *    executor alone — there is no second, nested fork-join level.
 *    All executors borrow one nn::WeightSnapshot (weights,
 *    input-projection tables, per-opcode parameter-input columns),
 *    so per-engine weight allocations do not scale with the worker
 *    count — and engines built from the same io::ModelSnapshot
 *    share too.
 *
 *  - **One intake.** submit, submitAll, predict and predictAll all
 *    enter through the same intake, which runs the whole front end
 *    on the calling thread — raw-text cache, parse, intern,
 *    prediction cache, with raw and canonical dedup across the
 *    call — so only true misses queue for the pool. A single submit
 *    stripes round-robin over the worker queues and waits up to
 *    kMaxWaitMicros for company (idle workers steal from loaded
 *    siblings); a group (submitAll, and predict / predictAll, which
 *    are submitAll followed by get()) splits its misses over the
 *    workers by the contiguous partition of base/parallel.hh's
 *    shardChunk and flushes the coalescing wait.
 *
 *  - **Thread safety.** Any number of client threads may call any
 *    combination of the entry points concurrently. Caches are
 *    sharded-mutex LRUs and stats are atomic.
 *
 * The front end behind the intake is a two-level cache key
 * hierarchy (docs/FRONTEND.md): raw text -> interned canonical
 * BlockId. A miss in the raw-text front cache parses once, resolves
 * to a dense BlockId in the engine's append-only isa::Interner, and
 * probes the prediction cache by that id — no canonical-text string
 * is built on the hot path. A forwarded interned block takes its
 * token lanes straight from the interner, which stores each
 * instruction's encoding once.
 *
 * # Determinism contract
 *
 * A prediction is a pure function of the canonical block text and
 * the frozen checkpoint. Batching, arrival order, micro-batch
 * composition, worker count, cache state and client thread count
 * can therefore never change a result: every answer is
 * bit-identical to the sequential reference path.
 *
 * # Shutdown
 *
 * shutdown() (also run by the destructor) stops intake, drains
 * every intake queue — every already-submitted future still
 * completes — and joins the dispatcher pool. Every entry point
 * (predict and predictAll included) throws EngineStoppedError
 * afterwards — a catchable rejection, not a process fatal: a
 * serving daemon must survive a client racing a drain (the
 * difftuned connection handler turns it into a "draining" wire
 * status and keeps running).
 */

#ifndef DIFFTUNE_SERVE_ASYNC_ENGINE_HH
#define DIFFTUNE_SERVE_ASYNC_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "io/snapshot.hh"
#include "isa/intern.hh"
#include "obs/metrics.hh"
#include "serve/sharded_cache.hh"

namespace difftune::serve
{

/** AsyncEngine tuning knobs. */
struct AsyncConfig
{
    /**
     * Dispatcher-pool size, the engine's one parallelism knob (<= 0:
     * library default, workerThreads()). Each pool worker owns one
     * intake queue and one executor, so micro-batches on different
     * workers overlap on a multi-core box. By the determinism
     * contract it can never change a result (docs/TRAFFIC_LAB.md).
     */
    int workers = 0;
    size_t cacheCapacity = 8192; ///< LRU entries (each cache)
    /** Lock stripes per LRU cache (<= 0: library default). */
    int cacheStripes = 0;
    /**
     * Interned canonical blocks bound (0: library default, 64Ki;
     * the instruction table gets 2x this). The interner is
     * append-only, so this bounds its lifetime footprint; past it,
     * new canonical forms are served without canonical-level
     * caching (correct, just unmemoized).
     */
    size_t internCapacity = 0;
    /**
     * Telemetry name prefix (docs/OBSERVABILITY.md): every metric
     * this engine registers — the mirrored ServeStats counters, the
     * per-stage latency histograms, the queue gauges — is named
     * "<metricPrefix>.<metric>", so multiple engines/models in one
     * process stay distinguishable in a single /statsz dump. Empty
     * selects a unique "serve.engine<N>" automatically. Two live
     * engines must not share a prefix (fatal at construction).
     */
    std::string metricPrefix;
    /**
     * Registry the engine's metrics register in (null: the
     * process-wide obs::MetricRegistry::global()). Tests point this
     * at a private registry for isolated golden dumps. Ignored —
     * like all telemetry — when obs::enabled() is false at
     * construction (the DIFFTUNE_OBS_OFF kill switch).
     */
    obs::MetricRegistry *registry = nullptr;
    /**
     * Replacement/admission policy for the serving caches, built
     * per stripe (null: classic LRU — decision-identical to the
     * pre-lab engine). Policies are speed-only by the determinism
     * contract; see lab/policy.hh and docs/TRAFFIC_LAB.md.
     */
    lab::PolicyFactory cachePolicy;
};

/**
 * Monotonic serving counters. All atomic: any thread may read them
 * at any time; a concurrent reader sees each counter individually
 * consistent (sums across counters may be mid-update unless the
 * engine is quiescent).
 *
 * Not engine-private: unless telemetry is disabled
 * (DIFFTUNE_OBS_OFF), every counter here is mirrored live into the
 * engine's obs::MetricRegistry under its metric prefix
 * ("<prefix>.requests", "<prefix>.text_hits", ...), so a /statsz
 * dump (obs::renderStatsz) reports them next to the per-stage
 * latency histograms. On a quiescent engine the mirrored values
 * reconcile exactly:
 *
 *   requests == text_hits + text_misses == hits + misses
 *
 * with intern_hits/encode_hits (and forwards/batches) outside that
 * invariant, as documented per field. The mirror reads this struct
 * directly (no second copy to drift); the engine unlinks it at
 * destruction. See docs/OBSERVABILITY.md.
 */
struct ServeStats
{
    std::atomic<uint64_t> requests{0};   ///< predictions asked for
    std::atomic<uint64_t> textHits{0};   ///< raw-text front-cache hits
    std::atomic<uint64_t> textMisses{0}; ///< past the front cache
    std::atomic<uint64_t> hits{0};       ///< answered from either LRU
    std::atomic<uint64_t> misses{0};     ///< in no cache when served
    std::atomic<uint64_t> forwards{0};   ///< LSTM forward passes run
    std::atomic<uint64_t> batches{0};    ///< batches executed
    /**
     * Parsed blocks whose canonical form the interner had already
     * seen — the near-miss traffic (same canonical block, different
     * raw spelling or whitespace) that resolves to an existing
     * BlockId without building a canonical string. Outside the
     * requests == hits + misses reconciliation: an intern hit may
     * still go on to a prediction-cache hit or a forward pass.
     */
    std::atomic<uint64_t> internHits{0};
    /**
     * Forward-pass blocks whose token lanes came from the interner's
     * per-instruction encodings rather than from a fresh
     * surrogate::encodeBlock. At most one per entry of forwards:
     * forwards - encodeHits counts the uninterned forwards (blocks
     * served past a full interner).
     */
    std::atomic<uint64_t> encodeHits{0};
};

/**
 * Thrown by every entry point once shutdown() has closed intake.
 * Deliberately an ordinary catchable exception (derived from
 * std::runtime_error, so pre-existing catch sites keep working)
 * rather than fatal(): a client racing a graceful drain is an
 * expected serving condition, not a process-ending error — the
 * daemon answers it with a "draining" status and carries on.
 */
class EngineStoppedError : public std::runtime_error
{
  public:
    EngineStoppedError()
        : std::runtime_error(
              "AsyncEngine: submit after shutdown (engine draining)")
    {
    }
};

/** Thread-safe micro-batching engine over one frozen snapshot. */
class AsyncEngine
{
  public:
    /**
     * Serve @p artifact (from io::makeModelSnapshot /
     * io::loadModelSnapshot; must carry a model, and — for a
     * paramDim > 0 surrogate — the parameter table and sampling
     * distribution). Binding several engines to one artifact shares
     * its WeightSnapshot; construct them from one thread.
     */
    explicit AsyncEngine(io::ModelSnapshot artifact,
                         AsyncConfig config = {});

    /** Convenience: promote @p checkpoint, then serve it. */
    explicit AsyncEngine(io::Checkpoint checkpoint,
                         AsyncConfig config = {});

    /**
     * Load @p path once and serve it (errors name the path). The
     * engine is immovable, so the factory hands back a unique_ptr.
     */
    static std::unique_ptr<AsyncEngine>
    loadFromFile(const std::string &path, AsyncConfig config = {});

    /** shutdown()s (draining pending requests) and joins. */
    ~AsyncEngine();

    AsyncEngine(const AsyncEngine &) = delete;
    AsyncEngine &operator=(const AsyncEngine &) = delete;

    /** Micro-batcher: max queued misses coalesced into one batch. */
    static constexpr size_t kMaxBatch = 64;
    /**
     * Micro-batcher: longest a single submit waits for company
     * before being dispatched undersized. Groups (submitAll,
     * predict, predictAll) flush and never pay this.
     */
    static constexpr int kMaxWaitMicros = 100;

    // ---- Asynchronous API (micro-batched, any thread)

    /**
     * Queue one block for prediction; the future completes when its
     * micro-batch executes, or before submit returns when a cache
     * answers it. Parse/validation errors surface through the
     * future.
     */
    std::future<double> submit(std::string block_text);

    /**
     * Queue a group; futures align with @p block_texts. The whole
     * group is enqueued atomically, split over the workers in
     * contiguous ranges (base/parallel.hh shardChunk), and flushes
     * the micro-batcher (no coalescing delay).
     */
    std::vector<std::future<double>>
    submitAll(std::vector<std::string> block_texts);

    // ---- Synchronous API (submitAll + get(), any thread)

    /**
     * Predict one block given in canonical assembly syntax; parse
     * errors are rethrown here.
     */
    double predict(const std::string &block_text);

    /**
     * Predict a batch; results align with @p block_texts. The first
     * failing request (in order) rethrows its error.
     */
    std::vector<double>
    predictAll(const std::vector<std::string> &block_texts);

    /**
     * The uncached, unbatched reference path: parse + encode + one
     * fresh double-precision graph per call. The ground truth every
     * answer must match bit-exactly.
     */
    double predictUncached(const std::string &block_text) const;

    // ---- Lifecycle

    /**
     * Stop intake, drain every queued request, join the pool.
     * Idempotent and safe to call from any thread (concurrent
     * callers serialize; each returns only once the drain is
     * complete); the destructor calls it too. Futures already
     * handed out all complete before this returns.
     */
    void shutdown();

    // ---- Introspection

    const ServeStats &stats() const { return stats_; }
    const surrogate::Model &model() const { return *artifact_.model; }
    /** Learned parameter table (shared with the artifact; may be
     *  null for an Ithemal-mode checkpoint). */
    const std::shared_ptr<const params::ParamTable> &
    table() const
    {
        return artifact_.table;
    }
    /** The frozen snapshot every executor of this engine borrows. */
    const nn::WeightSnapshot &snapshot() const { return *snapshot_; }
    std::shared_ptr<const nn::WeightSnapshot>
    snapshotPtr() const
    {
        return snapshot_;
    }
    int workers() const { return workers_; }
    const AsyncConfig &config() const { return config_; }
    /** The engine's interned canonical tables (sizes/footprint). */
    const isa::Interner &interner() const { return interner_; }
    /**
     * The telemetry name prefix this engine registered under
     * (config or auto-assigned), or empty when telemetry was
     * disabled at construction.
     */
    const std::string &metricPrefix() const { return metricPrefix_; }

    /**
     * Bytes of weight-derived state this engine shares through its
     * snapshot: the projection tables (one copy per *executor*
     * before v2) plus the per-opcode input columns (one copy per
     * *engine* before v2). Constant in workers() by
     * construction, and shared further across engines built from
     * one io::ModelSnapshot.
     */
    size_t
    sharedWeightBytes() const
    {
        return snapshot_->sharedBytes();
    }

  private:
    /**
     * One queued miss: a block the intake could not answer from any
     * cache, with every request of its group waiting on it (raw and
     * canonical repeats within a group share one entry).
     */
    struct Pending
    {
        /** Interned canonical id, or invalidBlockId (interner full:
         *  served uncachably, bit-identically). */
        isa::BlockId id = isa::invalidBlockId;
        isa::BasicBlock block;
        /** Raw spellings to publish to the front cache. */
        std::vector<std::string> texts;
        std::vector<std::promise<double>> promises;
        /** Enqueue instant (0 with telemetry off): the worker
         *  records queue-wait and end-to-end spans from it. */
        uint64_t enqueuedNs = 0;
        /** predict / predictAll time the whole call themselves, so
         *  the worker records no request_ns for these. */
        bool callerTimed = false;
    };

    /**
     * One dispatcher-pool worker: an intake queue (guarded by
     * queueMutex_ like all queue state), the one executor and
     * instruction-hidden memo its thread serves batches on, and the
     * thread. unique_ptr entries in pool_ keep addresses stable.
     */
    struct Worker
    {
        std::deque<Pending> queue;
        std::unique_ptr<nn::BatchedForward> batched;
        surrogate::InstHiddenCache instCache; ///< speed only
        std::thread thread;
    };

    /**
     * The one intake behind every entry point, on the calling
     * thread: front-cache probe, then parse -> intern -> prediction
     * cache, with raw and canonical dedup across @p texts; only the
     * remaining misses queue. A @p group splits its misses over the
     * workers in contiguous shardChunk ranges (worker 0 first) and
     * flushes the coalescing wait; a single request takes the next
     * round-robin stripe and may wait for company. @p sampled turns
     * the front-end stage laps on; @p caller_timed marks the queued
     * misses (see Pending).
     */
    std::vector<std::future<double>>
    enqueue(const std::vector<std::string> &texts, bool group,
            bool sampled, bool caller_timed);

    /**
     * Forward @p batch on @p worker's executor as one lane batch
     * (deduplicated by canonical id), publish to the caches and
     * fulfill every waiting promise.
     */
    void serveBatch(Worker &worker, std::vector<Pending> &batch);

    /** Run @p misses through @p worker's executor as one lane batch;
     *  @return their predictions, in order. */
    std::vector<double>
    forwardMisses(Worker &worker,
                  const std::vector<const Pending *> &misses);

    /** Forward one encoded block on @p graph; returns exp(head). */
    double forwardEncoded(nn::Graph &graph,
                          const surrogate::EncodedBlock &encoded,
                          const isa::BasicBlock &block) const;

    /** Pool worker @p self: pop/steal, coalesce, serve, fulfill. */
    void dispatchLoop(size_t self);

    io::ModelSnapshot artifact_;
    std::shared_ptr<const nn::WeightSnapshot> snapshot_;
    int workers_;
    AsyncConfig config_;

    /**
     * Interned canonical tables: every parsed block resolves to a
     * dense BlockId here (append-only, lock-free reads), and the
     * BlockId keys the prediction cache — no canonical-text string
     * is built on the hot path. Its per-instruction token storage
     * supplies a forwarded block's lanes. Private to this engine:
     * its ids never mean anything to another engine's caches.
     */
    isa::Interner interner_;
    /** Front cache keyed by the *raw* request text. */
    ShardedLruCache<std::string, double> textCache_;
    /** Main cache: interned canonical block -> prediction. */
    ShardedLruCache<isa::BlockId, double> cache_;
    ServeStats stats_;

    /**
     * Per-stage telemetry (docs/OBSERVABILITY.md): registry-owned
     * histograms/gauges resolved once at construction. All null
     * when obs::enabled() was false — the StageTimer/StageClock
     * spans then cost one branch each (the kill-switch contract).
     * Histogram units are nanoseconds except batchSize (requests
     * per dispatcher micro-batch).
     */
    struct StageMetrics
    {
        obs::LatencyHistogram *request = nullptr;   ///< end-to-end
        obs::LatencyHistogram *parse = nullptr;     ///< tokenize+parse
        obs::LatencyHistogram *intern = nullptr;    ///< canonical id
        obs::LatencyHistogram *predCache = nullptr; ///< BlockId probe
        obs::LatencyHistogram *encode = nullptr;    ///< lane lookup
        obs::LatencyHistogram *forward = nullptr;   ///< LSTM batch
        obs::LatencyHistogram *queueWait = nullptr; ///< submit->pop
        obs::LatencyHistogram *coalesce = nullptr;  ///< batcher wait
        obs::LatencyHistogram *batchSize = nullptr; ///< reqs/batch
        obs::Gauge *queueDepth = nullptr;

        bool on() const { return request != nullptr; }
    };

    /**
     * Head-based trace sampling: 1 in this many intake calls is
     * sampled — a sampled call records its front-end stage laps
     * (parse, intern, prediction-cache probe), and a sampled predict
     * its request_ns span (hits included). The decision is made once
     * up front, so a sampled call yields one coherent trace. A clock
     * read costs ~30 ns on shared runners and the warm hit path is
     * only a few us, so always-on laps would blow bench_serve's 5%
     * overhead gate; sampling keeps the percentiles representative
     * at ~1/8 the cost. The worker records queue-wait, encode and
     * forward spans for every queued miss, and request_ns for every
     * queued submit / submitAll request: its clock reads amortize
     * across the batch.
     */
    static constexpr uint64_t kStageSamplePeriod = 8;

    /** Draw one sampling decision (false when telemetry is off). */
    bool sampleTick();

    /** Resolve stage_ and mirror stats_ (constructor tail). */
    void registerMetrics();

    StageMetrics stage_;
    std::atomic<uint64_t> stageSampleTick_{0};
    obs::MetricRegistry *registry_ = nullptr;
    std::string metricPrefix_;

    /**
     * One mutex guards every per-worker queue plus the stop/flush
     * flags: queue operations are tiny next to batch execution, so
     * striping the *lock* would buy nothing — what the per-worker
     * queues buy is contiguous group ranges, striped assignment of
     * singles, per-worker coalescing and idle-steal, and above all
     * one executor per worker so batch *execution* overlaps.
     */
    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    /** workers_ entries, built and started at construction. */
    std::vector<std::unique_ptr<Worker>> pool_;
    /** Round-robin intake stripe counter (singles pick a queue). */
    std::atomic<uint64_t> intakeStripe_{0};
    /** Sum of all per-worker queue sizes (guarded by queueMutex_);
     *  what the queue_depth gauge mirrors — one worker's queue
     *  alone would under-report the backlog. */
    size_t totalQueued_ = 0;
    uint64_t flushes_ = 0; ///< group/shutdown flush generation
    bool stopping_ = false;
    /** Fast intake-closed check (set before stopping_ is taken). */
    std::atomic<bool> stopped_{false};
    /** Serializes shutdown(): exactly one caller joins. */
    std::mutex shutdownMutex_;
};

} // namespace difftune::serve

#endif // DIFFTUNE_SERVE_ASYNC_ENGINE_HH
