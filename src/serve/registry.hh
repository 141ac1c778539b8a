/**
 * @file
 * Multi-model registry with zero-downtime hot-swap.
 *
 * The train-once/serve-many north star needs one process serving
 * *many* checkpoints — per-uarch surrogates, A/B candidates, a
 * retrained model rolling out — behind one endpoint. ModelRegistry
 * maps a model name to a serve::AsyncEngine and lets an operator
 * atomically replace the engine behind a name while traffic flows:
 *
 *  - **Readers never block on a swap.** acquire(name) hands back a
 *    shared_ptr<AsyncEngine>; the map lookup is a brief mutex hold
 *    and the returned reference keeps the engine (and its frozen
 *    nn::WeightSnapshot) alive for however long the caller uses it.
 *
 *  - **Swaps drop zero requests.** load(name, ...) constructs the
 *    replacement engine completely *outside* the map lock (readers
 *    keep acquiring the old engine meanwhile), then swaps one
 *    shared_ptr. In-flight requests finish on the engine they
 *    acquired; the old engine is destroyed — its destructor drains
 *    every pending future — only when the last such reference
 *    releases. The PR-5 snapshot design makes this nearly free: the
 *    two engines never share mutable state, and a checkpoint's
 *    weights live behind shared_ptr<const> for exactly this
 *    handover.
 *
 *  - **Swaps fail closed.** If the replacement checkpoint does not
 *    load or validate, load() throws and the previous engine keeps
 *    serving untouched.
 *
 * # Telemetry
 *
 * Every engine registers its metrics under
 * "<metricRoot>.<name>.g<generation>" (generation increments per
 * load of a name and survives remove(): an outgoing — or removed —
 * engine is still live, and still linked, while references to it
 * last, so no two engines ever share a prefix; see
 * obs::MetricRegistry::linkCounter). The registry additionally
 * owns immortal counters "<metricRoot>.registry.{loads,swaps}" and
 * gauge "<metricRoot>.registry.models" that survive engine
 * turnover, all feeding the same /statsz dump
 * (obs::renderStatsz). See docs/SERVING.md ("Running difftuned").
 */

#ifndef DIFFTUNE_SERVE_REGISTRY_HH
#define DIFFTUNE_SERVE_REGISTRY_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/async_engine.hh"

namespace difftune::serve
{

/** ModelRegistry tuning knobs. */
struct RegistryConfig
{
    /**
     * Template for every engine the registry constructs. metricPrefix
     * and registry are managed by the ModelRegistry itself (see
     * metricRoot below); the remaining knobs — workers, cache
     * capacities, batcher limits — apply to each model.
     */
    AsyncConfig engine;
    /**
     * Root of every metric name this registry emits (model engines
     * under "<root>.<name>.g<gen>.", registry counters under
     * "<root>.registry."). Restricted, like all metric names, to
     * [A-Za-z0-9._-].
     */
    std::string metricRoot = "model";
    /**
     * Metric registry for the registry counters and every engine
     * (null: the process-wide global). Tests point this at a private
     * registry.
     */
    obs::MetricRegistry *registry = nullptr;
};

/**
 * Thrown by acquire() for a name no model was loaded under, and by
 * load() after drain() closed the registry.
 */
class UnknownModelError : public std::runtime_error
{
  public:
    explicit UnknownModelError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Name -> engine map with atomic, zero-downtime engine replacement. */
class ModelRegistry
{
  public:
    explicit ModelRegistry(RegistryConfig config = {});

    /** drain()s: every engine's pending futures complete first. */
    ~ModelRegistry();

    ModelRegistry(const ModelRegistry &) = delete;
    ModelRegistry &operator=(const ModelRegistry &) = delete;

    /**
     * Install @p artifact under @p name, or — if @p name is already
     * serving — hot-swap it: the replacement engine is built first
     * (readers keep hitting the old one), then one pointer swap
     * publishes it. Throws without touching the live engine if the
     * artifact does not validate. @p name must be non-empty and
     * metric-safe ([A-Za-z0-9._-]).
     */
    void load(const std::string &name, io::ModelSnapshot artifact);

    /** loadModelSnapshot(@p path), then load(). Errors name the path. */
    void loadFromFile(const std::string &name, const std::string &path);

    /**
     * The engine currently serving @p name. The returned reference
     * stays valid (and the engine keeps answering) across any number
     * of subsequent swaps. Throws UnknownModelError for an unknown
     * name.
     */
    std::shared_ptr<AsyncEngine> acquire(const std::string &name) const;

    /** acquire() that returns null instead of throwing. */
    std::shared_ptr<AsyncEngine>
    find(const std::string &name) const noexcept;

    /**
     * Remove @p name. In-flight holders of the engine finish
     * normally; the engine drains and dies with its last reference.
     * @return whether the name was present.
     */
    bool remove(const std::string &name);

    /** Currently-registered names, sorted. */
    std::vector<std::string> names() const;

    size_t size() const;

    /** Hot-swaps performed (loads over an already-serving name). */
    uint64_t swaps() const;

    /**
     * Close the registry: shut down every engine (draining all
     * pending futures before returning) and refuse further load()s.
     * acquire() keeps resolving so late callers get an engine whose
     * submit throws EngineStoppedError rather than a missing name.
     * Idempotent; called by the destructor.
     */
    void drain();

    bool draining() const;

  private:
    struct Entry
    {
        std::shared_ptr<AsyncEngine> engine;
        uint64_t generation = 0; ///< metric-prefix generation
    };

    RegistryConfig config_;
    obs::MetricRegistry *metrics_ = nullptr; ///< null: obs disabled
    obs::Counter *loads_ = nullptr;
    obs::Counter *swapCounter_ = nullptr;
    obs::Gauge *models_ = nullptr;

    /**
     * Serializes load()/remove()/drain() so concurrent swaps of one
     * name cannot interleave generations. Never held while an engine
     * constructs or is destroyed... except destruction via the map
     * entry reset, which is safe: destroying an AsyncEngine joins
     * only its own dispatcher. Taken before mapMutex_ (lock order).
     */
    mutable std::mutex adminMutex_;
    /** Guards the map itself; acquire() holds only this, briefly. */
    mutable std::mutex mapMutex_;
    std::map<std::string, Entry> entries_;
    /**
     * Next metric-prefix generation per name. Deliberately outlives
     * remove(): a removed engine may still be referenced (and its
     * counters linked), so a later reload of the same name must not
     * reuse its prefix. Guarded by adminMutex_.
     */
    std::map<std::string, uint64_t> nextGeneration_;
    bool draining_ = false;
    std::atomic<uint64_t> swaps_{0};
};

} // namespace difftune::serve

#endif // DIFFTUNE_SERVE_REGISTRY_HH
