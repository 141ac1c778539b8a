/**
 * @file
 * The DiffTune algorithm (Section III / Figure 1 of the paper):
 *
 *  1. collect the real dataset D of (block, measured timing) pairs
 *     (provided by the caller as a bhive::Dataset);
 *  2. collect a simulated dataset D^ of (theta, block, f(theta,
 *     block)) triples by sampling parameter tables from a sampling
 *     distribution and running the simulator;
 *  3. train a differentiable surrogate f^(theta, x) ~= f(theta, x)
 *     on D^ by SGD/Adam (Equation 2);
 *  4. freeze the surrogate and optimize the parameter table against
 *     D by gradient descent through the surrogate (Equation 3);
 *  5. extract the learned table (abs + lower bound, round to int)
 *     and plug it back into the original simulator.
 *
 * The implementation is generic over the params::Simulator interface,
 * so the same pipeline tunes both XMca (llvm-mca analog) and USim
 * (llvm_sim analog), with a ParamMask restricting which parameter
 * groups are learned.
 */

#ifndef DIFFTUNE_CORE_DIFFTUNE_HH
#define DIFFTUNE_CORE_DIFFTUNE_HH

#include <memory>

#include "bhive/dataset.hh"
#include "core/raw_table.hh"
#include "io/checkpoint_hook.hh"
#include "nn/optim.hh"
#include "params/sampling.hh"
#include "params/simulator.hh"
#include "surrogate/model.hh"

namespace difftune::core
{

/** Pipeline hyperparameters (paper values noted; defaults scaled). */
struct DiffTuneConfig
{
    params::SamplingDist dist = params::SamplingDist::full();
    surrogate::ModelConfig model{}; ///< paramDim is filled in by run()

    /** |D^| as a multiple of |train| (paper: 10). */
    double simulatedMultiple = 5.0;
    /** Loops over D^ when training the surrogate (paper: 6). */
    int surrogateLoops = 3;
    /**
     * Total epochs over D when training the table. The paper uses 1
     * epoch over a 230k-block train set (~900 Adam steps); smaller
     * datasets need proportionally more epochs to take as many steps.
     *
     * The epochs are split evenly over refineRounds + 1 segments, so
     * the count is rounded down to a multiple of refineRounds + 1
     * (at least one epoch per segment): standardConfig's 20 epochs
     * with 2 refinement rounds at scale 0.1 run 18.
     */
    int tableEpochs = 60;
    int batchSize = 256;        ///< paper: 256
    double surrogateLr = 1e-3;  ///< paper: 0.001
    double tableLr = 0.05;      ///< paper: 0.05
    double gradClip = 5.0;      ///< batch-gradient L2 clip (0 = off)

    /**
     * Surrogate-refinement rounds during table training. Gradient
     * descent can drive the table into regions the sampling
     * distribution never covered, where the surrogate extrapolates
     * poorly (Section VII of the paper; the local-surrogate fix is
     * due to Shirobokov et al.). After each round the pipeline
     * collects simulator samples in a neighbourhood of the current
     * table estimate and fine-tunes the surrogate on them. 0 disables
     * refinement (the paper's one-shot configuration).
     */
    int refineRounds = 2;
    /** Neighbourhood samples per round, as a multiple of |train|. */
    double refineMultiple = 2.0;
    /** Fine-tune loops over the refinement samples. */
    int refineLoops = 2;
    /** Fraction of neighbourhood samples resampled per opcode. */
    double refineResampleProb = 0.3;

    /**
     * Every this many table epochs, extract the table, evaluate it
     * with the real simulator on the validation split, and keep the
     * best snapshot (standard validation-based model selection;
     * evaluations are charged to the simulator budget). Epochs are
     * counted within a segment (see tableEpochs), and the last epoch
     * of every segment also takes a snapshot.
     */
    int snapshotEvery = 10;

    int workers = 0;            ///< worker threads (0 = default)
    uint64_t seed = 1;

    /**
     * Checkpointing: with a path set, run() saves the trained
     * surrogate + sampling distribution + learned table (a complete
     * serving artifact, see serve/async_engine.hh); `every` > 0 also saves
     * after every Nth validation snapshot during table training.
     */
    io::CheckpointHook checkpoint;
};

/** Outcome of one DiffTune run. */
struct DiffTuneResult
{
    /** The extracted integer parameter table. */
    params::ParamTable learned;
    /** Mean surrogate training loss over the final loop. */
    double surrogateFinalLoss = 0.0;
    /** Surrogate-vs-simulator MAPE on held-out (theta, x) pairs. */
    double surrogateFidelity = 0.0;
    /** Simulator evaluations consumed (OpenTuner budget parity). */
    long simulatorEvals = 0;
};

/** The DiffTune optimizer. */
class DiffTune
{
  public:
    /**
     * @param sim simulator whose parameters are being learned
     * @param dataset ground-truth dataset (train split is used)
     * @param base table providing values for masked-off parameters
     * @param config hyperparameters
     */
    DiffTune(const params::Simulator &sim, const bhive::Dataset &dataset,
             params::ParamTable base, DiffTuneConfig config);

    ~DiffTune();

    /** Run all phases and return the learned table. */
    DiffTuneResult run();

    // ---- Individual phases, exposed for tests and ablations.

    /** Phase 2: build the simulated dataset. */
    void collectSimulatedDataset();

    /** Phase 3: train the surrogate on the simulated dataset. */
    double trainSurrogate();

    /** Surrogate-vs-simulator MAPE on fresh held-out samples. */
    double surrogateFidelity(int samples = 512);

    /** Phase 4 + extraction: optimize and extract the table. */
    params::ParamTable trainTable();

    /** The trained surrogate (valid after trainSurrogate()). */
    surrogate::Model &model() { return *model_; }

    /** Simulator evaluations consumed so far. */
    long simulatorEvals() const { return simulatorEvals_; }

  private:
    struct SimSample
    {
        uint32_t entryIdx;   ///< index into the train split
        int32_t snapshotId;  ///< -1: dist sample; else neighbourhood
        uint64_t tableSeed;  ///< regenerates theta deterministically
        double simTiming;    ///< f(theta, x)
    };

    /** Rebuild the theta for a simulated sample. */
    params::ParamTable sampleTable(const SimSample &sample) const;

    /** Draw a table near @p center (for refinement rounds). */
    params::ParamTable
    neighborhoodSample(Rng &rng, const params::ParamTable &center) const;

    /** Append @p count samples near @p center and fine-tune. */
    void refineSurrogate(const params::ParamTable &center);

    /** Evaluate an extracted candidate on the validation split. */
    double validError(const params::ParamTable &candidate);

    /**
     * Inner loop of trainTable: one segment of @p epochs epochs of
     * Adam. The surrogate is frozen for the whole call, so each train
     * block's token-level hiddens are computed once up front.
     */
    void tableEpochs(class RawTable &raw, class BatchRunner &runner,
                     nn::Adam &adam, int epochs,
                     params::ParamTable &best, double &best_err);

    const params::Simulator &sim_;
    const bhive::Dataset &dataset_;
    params::ParamTable base_;
    DiffTuneConfig config_;
    ParamNormalizer norm_;

    std::vector<surrogate::EncodedBlock> encoded_; ///< per corpus block
    std::vector<SimSample> simulated_;
    std::vector<params::ParamTable> snapshots_; ///< refinement centers
    std::unique_ptr<surrogate::Model> model_;
    long simulatorEvals_ = 0;
    int snapshotCount_ = 0; ///< validation snapshots taken (hook cadence)
    /** On-disk checkpoint matches the current model + best table. */
    bool checkpointFresh_ = false;
    Rng rng_;
};

} // namespace difftune::core

#endif // DIFFTUNE_CORE_DIFFTUNE_HH
