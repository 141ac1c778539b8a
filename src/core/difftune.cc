/**
 * @file
 * DiffTune pipeline implementation.
 */

#include "core/difftune.hh"

#include <algorithm>

#include "base/env.hh"
#include "base/logging.hh"
#include "base/parallel.hh"
#include "core/evaluate.hh"
#include "core/trainer.hh"
#include "io/checkpoint.hh"

namespace difftune::core
{

DiffTune::DiffTune(const params::Simulator &sim,
                   const bhive::Dataset &dataset, params::ParamTable base,
                   DiffTuneConfig config)
    : sim_(sim), dataset_(dataset), base_(std::move(base)),
      config_(config), norm_(config.dist), rng_(config.seed)
{
    panic_if(base_.numOpcodes() != isa::theIsa().numOpcodes(),
             "base table has {} opcodes, ISA has {}", base_.numOpcodes(),
             isa::theIsa().numOpcodes());
    config_.model.paramDim = norm_.paramDim();

    // Token-encode every corpus block once.
    const auto &corpus = dataset_.corpus();
    encoded_.resize(corpus.size());
    parallelFor(corpus.size(), config_.workers, [&](size_t i) {
        encoded_[i] = surrogate::encodeBlock(corpus[i].block);
    });
}

DiffTune::~DiffTune() = default;

params::ParamTable
DiffTune::sampleTable(const SimSample &sample) const
{
    Rng rng(sample.tableSeed);
    if (sample.snapshotId < 0)
        return config_.dist.sample(rng, base_);
    return neighborhoodSample(rng, snapshots_[sample.snapshotId]);
}

params::ParamTable
DiffTune::neighborhoodSample(Rng &rng,
                             const params::ParamTable &center) const
{
    // Resample a fraction of the per-opcode records (and, with the
    // same probability, the globals) from the sampling distribution;
    // keep the rest at the current estimate. The result covers the
    // surrounding region of parameter space that further gradient
    // steps are likely to visit.
    params::ParamTable randomized = config_.dist.sample(rng, base_);
    params::ParamTable result(center);
    for (size_t op = 0; op < result.numOpcodes(); ++op) {
        if (rng.uniformReal() < config_.refineResampleProb)
            result.perOpcode[op] = randomized.perOpcode[op];
    }
    if (config_.dist.mask.globals &&
        rng.uniformReal() < config_.refineResampleProb) {
        result.dispatchWidth = randomized.dispatchWidth;
        result.reorderBufferSize = randomized.reorderBufferSize;
    }
    return result;
}

void
DiffTune::collectSimulatedDataset()
{
    const auto &train = dataset_.train();
    panic_if(train.empty(), "cannot run DiffTune with an empty train set");
    const size_t count =
        size_t(config_.simulatedMultiple * double(train.size()));

    simulated_.clear();
    simulated_.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        SimSample sample;
        sample.entryIdx = uint32_t(rng_.uniformInt(0, train.size() - 1));
        sample.snapshotId = -1;
        sample.tableSeed = rng_.next();
        sample.simTiming = 0.0;
        simulated_.push_back(sample);
    }
    parallelFor(simulated_.size(), config_.workers, [&](size_t i) {
        auto &sample = simulated_[i];
        const auto &entry = train[sample.entryIdx];
        const params::ParamTable theta = sampleTable(sample);
        sample.simTiming = sim_.timing(dataset_.block(entry), theta);
    });
    simulatorEvals_ += long(simulated_.size());
    inform("collected simulated dataset: {} samples", simulated_.size());
}

namespace
{

/** One shuffled pass over a sample range with minibatch Adam. */
template <typename SampleBody>
double
runEpoch(Rng &rng, size_t count, int batch_size, BatchRunner &runner,
         nn::ParamSet &params, nn::Adam &adam, double clip,
         const SampleBody &body)
{
    std::vector<uint32_t> order(count);
    for (size_t i = 0; i < count; ++i)
        order[i] = uint32_t(i);
    rng.shuffle(order);

    double total = 0.0;
    size_t batches = 0;
    for (size_t start = 0; start < count; start += batch_size) {
        const size_t end = std::min(count, start + size_t(batch_size));
        total += runner.runBatch(
            start, end,
            [&](size_t idx, nn::Graph &graph, nn::Grads &grads) {
                return body(order[idx], graph, grads);
            });
        runner.apply(params, adam, clip);
        ++batches;
    }
    return total / double(std::max<size_t>(1, batches));
}

} // namespace

double
DiffTune::trainSurrogate()
{
    panic_if(simulated_.empty(),
             "collectSimulatedDataset() must run before trainSurrogate()");
    model_ = std::make_unique<surrogate::Model>(
        config_.model, isa::theVocab().size());

    nn::Adam adam(config_.surrogateLr);
    BatchRunner runner(model_->params(), config_.workers);

    auto sample_body = [&](size_t idx, nn::Graph &graph,
                           nn::Grads &grads) {
        const SimSample &sample = simulated_[idx];
        const auto &entry = dataset_.train()[sample.entryIdx];
        const params::ParamTable theta = sampleTable(sample);
        const auto &block = dataset_.block(entry);

        nn::Ctx ctx{graph, model_->params(), &grads};
        auto inputs = constParamInputs(graph, theta, block, norm_);
        nn::Var head =
            model_->forward(ctx, encoded_[entry.blockIdx], inputs);
        nn::Var pred = graph.exp(head);
        nn::Var loss_var = graph.lossMape(pred, sample.simTiming, 0.05);
        graph.backward(loss_var);
        return graph.scalarValue(loss_var);
    };

    double final_loss = 0.0;
    for (int loop = 0; loop < config_.surrogateLoops; ++loop) {
        final_loss =
            runEpoch(rng_, simulated_.size(), config_.batchSize, runner,
                     model_->params(), adam, config_.gradClip,
                     sample_body);
        inform("surrogate loop {}/{}: loss {} (lr {})", loop + 1,
               config_.surrogateLoops, final_loss, adam.lr());
        if (loop >= config_.surrogateLoops / 3)
            adam.setLr(adam.lr() * 0.75);
    }
    return final_loss;
}

void
DiffTune::refineSurrogate(const params::ParamTable &center)
{
    // Fine-tuning changes the surrogate weights, so any checkpoint on
    // disk no longer matches the in-memory model.
    checkpointFresh_ = false;
    const auto &train = dataset_.train();
    const size_t count =
        size_t(config_.refineMultiple * double(train.size()));
    if (count == 0)
        return;

    snapshots_.push_back(center);
    const int32_t snapshot_id = int32_t(snapshots_.size()) - 1;

    const size_t first_new = simulated_.size();
    for (size_t i = 0; i < count; ++i) {
        SimSample sample;
        sample.entryIdx = uint32_t(rng_.uniformInt(0, train.size() - 1));
        // Keep a quarter of the new samples fully random so the
        // surrogate does not forget the global picture.
        sample.snapshotId =
            rng_.uniformReal() < 0.25 ? -1 : snapshot_id;
        sample.tableSeed = rng_.next();
        sample.simTiming = 0.0;
        simulated_.push_back(sample);
    }
    parallelFor(count, config_.workers, [&](size_t i) {
        auto &sample = simulated_[first_new + i];
        const auto &entry = train[sample.entryIdx];
        const params::ParamTable theta = sampleTable(sample);
        sample.simTiming = sim_.timing(dataset_.block(entry), theta);
    });
    simulatorEvals_ += long(count);

    // Fine-tune on a mix weighted toward the new neighbourhood
    // samples: each fine-tune epoch runs over the new samples plus an
    // equal-sized random slice of the old ones.
    nn::Adam adam(config_.surrogateLr * 0.3);
    BatchRunner runner(model_->params(), config_.workers);
    std::vector<uint32_t> pool;
    pool.reserve(2 * count);
    for (size_t i = first_new; i < simulated_.size(); ++i)
        pool.push_back(uint32_t(i));
    for (size_t i = 0; i < count; ++i)
        pool.push_back(uint32_t(rng_.uniformInt(0, first_new - 1)));

    auto sample_body = [&](size_t idx, nn::Graph &graph,
                           nn::Grads &grads) {
        const SimSample &sample = simulated_[pool[idx]];
        const auto &entry = dataset_.train()[sample.entryIdx];
        const params::ParamTable theta = sampleTable(sample);
        const auto &block = dataset_.block(entry);
        nn::Ctx ctx{graph, model_->params(), &grads};
        auto inputs = constParamInputs(graph, theta, block, norm_);
        nn::Var pred = graph.exp(
            model_->forward(ctx, encoded_[entry.blockIdx], inputs));
        nn::Var loss_var = graph.lossMape(pred, sample.simTiming, 0.05);
        graph.backward(loss_var);
        return graph.scalarValue(loss_var);
    };

    for (int loop = 0; loop < config_.refineLoops; ++loop) {
        const double loss =
            runEpoch(rng_, pool.size(), config_.batchSize, runner,
                     model_->params(), adam, config_.gradClip,
                     sample_body);
        inform("refine loop {}/{}: loss {}", loop + 1,
               config_.refineLoops, loss);
    }
}

double
DiffTune::surrogateFidelity(int samples)
{
    panic_if(!model_, "trainSurrogate() must run before fidelity check");
    const auto &valid =
        dataset_.valid().empty() ? dataset_.train() : dataset_.valid();
    std::vector<double> errors(samples, 0.0);
    Rng rng(rng_.next());
    std::vector<SimSample> picks(samples);
    for (int i = 0; i < samples; ++i) {
        picks[i].entryIdx = uint32_t(rng.uniformInt(0, valid.size() - 1));
        picks[i].snapshotId = -1;
        picks[i].tableSeed = rng.next();
    }

    // One reusable graph per shard (same idiom as BatchRunner): the
    // arena reset makes the per-sample surrogate forward
    // allocation-free.
    parallelShards(size_t(samples), config_.workers,
                   [&](size_t lo, size_t hi, int) {
                       nn::Graph graph;
                       for (size_t i = lo; i < hi; ++i) {
                           const auto &entry =
                               valid[picks[i].entryIdx];
                           const params::ParamTable theta =
                               sampleTable(picks[i]);
                           const auto &block = dataset_.block(entry);
                           const double sim_timing =
                               sim_.timing(block, theta);

                           graph.clear();
                           nn::Ctx ctx{graph, model_->params(),
                                       nullptr};
                           auto inputs = constParamInputs(
                               graph, theta, block, norm_);
                           nn::Var pred = graph.exp(model_->forward(
                               ctx, encoded_[entry.blockIdx],
                               inputs));
                           errors[i] =
                               std::fabs(graph.scalarValue(pred) -
                                         sim_timing) /
                               std::max(sim_timing, 0.05);
                       }
                   });
    simulatorEvals_ += samples;
    double total = 0.0;
    for (double e : errors)
        total += e;
    return total / double(std::max(1, samples));
}

double
DiffTune::validError(const params::ParamTable &candidate)
{
    const auto &valid =
        dataset_.valid().empty() ? dataset_.train() : dataset_.valid();
    EvalResult result = evaluate(sim_, candidate, dataset_, valid);
    simulatorEvals_ += long(valid.size());
    return result.error;
}

void
DiffTune::tableEpochs(RawTable &raw, BatchRunner &runner, nn::Adam &adam,
                      int epochs, params::ParamTable &best,
                      double &best_err)
{
    const auto &train = dataset_.train();
    // The surrogate stays frozen for the whole call (refineSurrogate
    // runs between calls), so each train block's token-level hiddens
    // are computed once here and enter every sample as graph inputs:
    // the same values forward() would recompute, hence the same bits.
    std::vector<std::vector<nn::Tensor>> inst_hiddens(train.size());
    parallelFor(train.size(), config_.workers, [&](size_t i) {
        inst_hiddens[i] =
            model_->instHiddens(encoded_[train[i].blockIdx]);
    });
    auto sample_body = [&](size_t idx, nn::Graph &graph,
                           nn::Grads &grads) {
        const auto &entry = train[idx];
        const auto &block = dataset_.block(entry);
        auto inputs = raw.paramInputs(graph, block, &grads);
        nn::Ctx ctx{graph, model_->params(), nullptr};
        std::vector<nn::Var> inst_vecs;
        inst_vecs.reserve(inst_hiddens[idx].size());
        for (const nn::Tensor &hidden : inst_hiddens[idx])
            inst_vecs.push_back(graph.input(hidden));
        nn::Var pred =
            graph.exp(model_->blockForward(ctx, inst_vecs, inputs));
        nn::Var loss_var = graph.lossMape(pred, entry.timing, 0.05);
        graph.backward(loss_var);
        return graph.scalarValue(loss_var);
    };

    for (int epoch = 0; epoch < epochs; ++epoch) {
        double loss = 0.0;
        {
            // One epoch with the mask re-applied after every step.
            std::vector<uint32_t> order(train.size());
            for (size_t i = 0; i < order.size(); ++i)
                order[i] = uint32_t(i);
            rng_.shuffle(order);
            size_t batches = 0;
            for (size_t start = 0; start < order.size();
                 start += config_.batchSize) {
                const size_t end = std::min(order.size(),
                                            start + config_.batchSize);
                loss += runner.runBatch(
                    start, end,
                    [&](size_t idx, nn::Graph &graph,
                        nn::Grads &grads) {
                        return sample_body(order[idx], graph, grads);
                    });
                runner.apply(raw.params(), adam, config_.gradClip);
                raw.enforceMask(config_.dist.mask, base_);
                ++batches;
            }
            loss /= double(std::max<size_t>(1, batches));
        }

        const bool snapshot =
            config_.snapshotEvery > 0 &&
            ((epoch + 1) % config_.snapshotEvery == 0 ||
             epoch + 1 == epochs);
        if (snapshot) {
            params::ParamTable candidate =
                raw.toParamTable().extractToValid();
            params::applyMask(candidate, base_, config_.dist.mask);
            const double err = validError(candidate);
            inform("table epoch {}: loss {} valid-err {}", epoch + 1,
                   loss, err);
            if (err < best_err) {
                best_err = err;
                best = candidate;
                checkpointFresh_ = false;
            }
            ++snapshotCount_;
            if (config_.checkpoint.due(snapshotCount_) &&
                !checkpointFresh_) {
                io::saveCheckpoint(config_.checkpoint.path,
                                   model_.get(), &config_.dist, &best);
                checkpointFresh_ = true;
                inform("checkpointed best-so-far table to {}",
                       config_.checkpoint.path);
            }
        }
    }
}

params::ParamTable
DiffTune::trainTable()
{
    panic_if(!model_, "trainSurrogate() must run before trainTable()");

    // Initialize the table to a random sample from the sampling
    // distribution (paper, Section IV).
    SimSample init_pick{0, -1, rng_.next(), 0.0};
    params::ParamTable init = sampleTable(init_pick);
    RawTable raw(init, norm_);
    raw.enforceMask(config_.dist.mask, base_);

    nn::Adam adam(config_.tableLr);
    BatchRunner runner(raw.params(), config_.workers);

    params::ParamTable best = raw.toParamTable().extractToValid();
    params::applyMask(best, base_, config_.dist.mask);
    double best_err = validError(best);
    inform("table init: valid-err {}", best_err);

    const int segments = config_.refineRounds + 1;
    const int per_segment =
        std::max(1, config_.tableEpochs / segments);
    for (int segment = 0; segment < segments; ++segment) {
        tableEpochs(raw, runner, adam, per_segment, best, best_err);
        if (segment < config_.refineRounds) {
            params::ParamTable center = raw.toParamTable();
            params::applyMask(center, base_, config_.dist.mask);
            refineSurrogate(center);
            // Later segments fine-tune around the refined region
            // rather than wander: decay the table learning rate.
            adam.setLr(adam.lr() * 0.5);
        }
    }
    inform("table training done: best valid-err {}", best_err);
    return best;
}

DiffTuneResult
DiffTune::run()
{
    DiffTuneResult result;
    collectSimulatedDataset();
    result.surrogateFinalLoss = trainSurrogate();
    result.surrogateFidelity = surrogateFidelity();
    result.learned = trainTable();
    result.simulatorEvals = simulatorEvals_;
    // checkpointFresh_ means the file already holds exactly this
    // model + best table (the last periodic save was not superseded).
    if (config_.checkpoint.enabled() && !checkpointFresh_) {
        io::saveCheckpoint(config_.checkpoint.path, model_.get(),
                           &config_.dist, &result.learned);
        inform("saved checkpoint {}", config_.checkpoint.path);
    }
    return result;
}

} // namespace difftune::core
