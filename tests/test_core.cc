/**
 * @file
 * Tests for the DiffTune core: evaluation, the raw-table
 * reparameterization, normalization, masking, and a miniature
 * end-to-end pipeline smoke test.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/difftune.hh"
#include "core/evaluate.hh"
#include "core/ithemal.hh"
#include "core/raw_table.hh"
#include "hw/default_table.hh"
#include "isa/parse.hh"
#include "mca/xmca.hh"

namespace difftune::core
{
namespace
{

const bhive::Corpus &
testCorpus()
{
    static const bhive::Corpus corpus = bhive::Corpus::generate(300, 77);
    return corpus;
}

const bhive::Dataset &
testDataset()
{
    static const bhive::Dataset dataset(testCorpus(),
                                        hw::Uarch::Haswell);
    return dataset;
}

TEST(Evaluate, MatchesManualMape)
{
    const auto &dataset = testDataset();
    mca::XMca sim;
    auto table = hw::defaultTable(hw::Uarch::Haswell);
    EvalResult result = evaluate(sim, table, dataset, dataset.test());
    ASSERT_EQ(result.predictions.size(), dataset.test().size());

    double manual = 0.0;
    for (size_t i = 0; i < dataset.test().size(); ++i) {
        const auto &entry = dataset.test()[i];
        manual += std::fabs(result.predictions[i] - entry.timing) /
                  entry.timing;
    }
    manual /= double(dataset.test().size());
    EXPECT_NEAR(result.error, manual, 1e-12);
    EXPECT_GT(result.kendallTau, 0.3);
}

TEST(Evaluate, PredictionsMatchSimulator)
{
    const auto &dataset = testDataset();
    mca::XMca sim;
    auto table = hw::defaultTable(hw::Uarch::Haswell);
    EvalResult result = evaluate(sim, table, dataset, dataset.valid());
    for (size_t i = 0; i < 5 && i < dataset.valid().size(); ++i) {
        const auto &entry = dataset.valid()[i];
        EXPECT_DOUBLE_EQ(result.predictions[i],
                         sim.timing(dataset.block(entry), table));
    }
}

TEST(Normalizer, ScalesFollowSamplingDist)
{
    ParamNormalizer norm(params::SamplingDist::full());
    EXPECT_EQ(norm.paramDim(), params::perOpcodeParams + 2);
    EXPECT_NEAR(norm.perOpcode[0], 1.0 / 9.0, 1e-12);  // uops 1..10
    EXPECT_NEAR(norm.perOpcode[1], 1.0 / 5.0, 1e-12);  // wl 0..5
    EXPECT_NEAR(norm.globals[1], 1.0 / 200.0, 1e-12);  // rob 50..250
}

TEST(RawTable, RoundTripsActualValues)
{
    params::ParamTable init(isa::theIsa().numOpcodes());
    init.dispatchWidth = 6;
    init.reorderBufferSize = 120;
    init.perOpcode[4].writeLatency = 3;
    init.perOpcode[4].numMicroOps = 2;
    init.perOpcode[9].portMap[7] = 2;

    ParamNormalizer norm(params::SamplingDist::full());
    RawTable raw(init, norm);
    params::ParamTable back = raw.toParamTable();
    EXPECT_NEAR(back.dispatchWidth, 6, 1e-9);
    EXPECT_NEAR(back.reorderBufferSize, 120, 1e-9);
    EXPECT_NEAR(back.perOpcode[4].writeLatency, 3, 1e-9);
    EXPECT_NEAR(back.perOpcode[4].numMicroOps, 2, 1e-9);
    EXPECT_NEAR(back.perOpcode[9].portMap[7], 2, 1e-9);
}

TEST(RawTable, AbsReparameterization)
{
    // Negative raw values map to the same actual values as positive.
    params::ParamTable init(isa::theIsa().numOpcodes());
    ParamNormalizer norm(params::SamplingDist::full());
    RawTable raw(init, norm);
    // Force a raw entry negative via params() and check |raw| + lb.
    raw.params()[0].at(0, 1) = -2.5; // WriteLatency raw of opcode 0
    EXPECT_NEAR(raw.toParamTable().perOpcode[0].writeLatency, 2.5,
                1e-12);
    raw.params()[1].data[0] = -3.0; // DispatchWidth raw
    EXPECT_NEAR(raw.toParamTable().dispatchWidth, 4.0, 1e-12);
}

TEST(RawTable, EnforceMaskRestoresBase)
{
    params::ParamTable base(isa::theIsa().numOpcodes());
    base.perOpcode[2].numMicroOps = 3;
    base.dispatchWidth = 4;
    params::ParamTable init(base);
    init.perOpcode[2].numMicroOps = 7;
    init.perOpcode[2].writeLatency = 5;
    init.dispatchWidth = 9;

    ParamNormalizer norm(params::SamplingDist::writeLatencyOnly());
    RawTable raw(init, norm);
    raw.enforceMask(params::ParamMask::writeLatencyOnly(), base);
    params::ParamTable result = raw.toParamTable();
    EXPECT_NEAR(result.perOpcode[2].numMicroOps, 3, 1e-9);
    EXPECT_NEAR(result.dispatchWidth, 4, 1e-9);
    EXPECT_NEAR(result.perOpcode[2].writeLatency, 5, 1e-9); // kept
}

TEST(RawTable, ParamInputsShapeAndGradients)
{
    params::ParamTable init(isa::theIsa().numOpcodes());
    ParamNormalizer norm(params::SamplingDist::full());
    RawTable raw(init, norm);

    auto block = isa::parseBlock("ADD32rr %ebx, %ecx\nNOP\n");
    nn::Grads grads(raw.params());
    nn::Graph graph;
    auto inputs = raw.paramInputs(graph, block, &grads);
    ASSERT_EQ(inputs.size(), 2u);
    EXPECT_EQ(graph.value(inputs[0]).rows, norm.paramDim());

    // Backprop a loss touching instruction 0's inputs: the gradient
    // must land in the raw per-opcode matrix row of its opcode.
    nn::Var loss = graph.lossMse(graph.slice(inputs[0], 1, 1), 1.0);
    graph.backward(loss);
    const auto add_op = isa::theIsa().opcodeByName("ADD32rr");
    double row_grad = 0.0;
    for (int c = 0; c < params::perOpcodeParams; ++c)
        row_grad += std::fabs(grads[0].at(int(add_op), c));
    EXPECT_GT(row_grad, 0.0);
}

TEST(ConstParamInputs, MatchTableValues)
{
    params::ParamTable table(isa::theIsa().numOpcodes());
    const auto add_op = isa::theIsa().opcodeByName("ADD32rr");
    table.perOpcode[add_op].writeLatency = 5.0;
    table.dispatchWidth = 10.0;
    ParamNormalizer norm(params::SamplingDist::full());

    nn::Graph graph;
    auto block = isa::parseBlock("ADD32rr %ebx, %ecx\n");
    auto inputs = constParamInputs(graph, table, block, norm);
    const auto &v = graph.value(inputs[0]);
    // WriteLatency 5 normalized by 1/5 -> soft-clamped ~0.83.
    EXPECT_NEAR(v.data[1], 1.25 * std::tanh(1.0 / 1.25), 1e-9);
    // DispatchWidth (10-1)/9 = 1 -> same clamp value.
    EXPECT_NEAR(v.data[params::perOpcodeParams], v.data[1], 1e-9);
}

TEST(Ithemal, TrainsAndBeatsTrivialBaseline)
{
    IthemalConfig cfg;
    cfg.model.hidden = 24;
    cfg.model.embedDim = 16;
    cfg.model.tokenLayers = 1;
    cfg.model.blockLayers = 1;
    cfg.epochs = 14;
    Ithemal ithemal(testDataset(), cfg);
    ithemal.train();
    EvalResult result = ithemal.evaluate(testDataset().test());

    // Baseline: always predict the train-set mean timing. The tiny
    // model on the tiny corpus (far below Table IV scale) must still
    // clearly beat it, both in error and in ordering.
    double mean_timing = 0.0;
    for (const auto &entry : testDataset().train())
        mean_timing += entry.timing;
    mean_timing /= double(testDataset().train().size());
    std::vector<double> trivial(testDataset().test().size(),
                                mean_timing);
    EvalResult trivial_eval =
        evaluatePredictions(std::move(trivial), testDataset().test());
    EXPECT_LT(result.error, 0.8 * trivial_eval.error);
    EXPECT_GT(result.kendallTau, 0.40);
}

TEST(DiffTune, MiniPipelineImprovesOverRandom)
{
    DiffTuneConfig cfg;
    cfg.model.hidden = 16;
    cfg.model.embedDim = 12;
    cfg.model.tokenLayers = 1;
    cfg.model.blockLayers = 1;
    cfg.simulatedMultiple = 3;
    cfg.surrogateLoops = 3;
    cfg.tableEpochs = 12;
    cfg.refineRounds = 1;
    cfg.snapshotEvery = 4;
    cfg.seed = 3;

    mca::XMca sim;
    auto base = hw::defaultTable(hw::Uarch::Haswell);
    DiffTune difftune(sim, testDataset(), base, cfg);
    DiffTuneResult result = difftune.run();

    // A random table from the sampling distribution is far worse than
    // whatever the pipeline learned.
    Rng rng(123);
    auto random_table = cfg.dist.sample(rng, base);
    EvalResult random_eval =
        evaluate(sim, random_table, testDataset(), testDataset().test());
    EvalResult learned_eval =
        evaluate(sim, result.learned, testDataset(), testDataset().test());
    EXPECT_LT(learned_eval.error, random_eval.error);
    EXPECT_GT(result.simulatorEvals, 0);
    EXPECT_LT(result.surrogateFidelity, 1.0);

    // Extraction produced a valid integer table.
    auto flat = result.learned.flatten();
    auto bounds = params::flatLowerBounds(result.learned.numOpcodes());
    for (size_t i = 0; i < flat.size(); ++i) {
        EXPECT_GE(flat[i], bounds[i]);
        EXPECT_EQ(flat[i], std::round(flat[i]));
    }
}

/** FNV-1a over @p bytes. */
uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

TEST(DiffTune, SingleWorkerOutputBitsArePinned)
{
    // The mini pipeline on one worker; the gradient reductions have
    // one shape for any worker count (fixed chunks, fixed pairwise
    // tree), so the same bits come out on every host. The constants
    // lock the training arithmetic: a speed-up of phases 3 and 4 must
    // leave the surrogate's final loss, the learned table and the
    // refined surrogate weights bit-identical. The weights are the
    // sensitive lock: Adam absorbs most last-ulp gradient changes, so
    // the loss and the extracted integer table alone can miss a
    // reordered gradient sum.
    DiffTuneConfig cfg;
    cfg.model.hidden = 16;
    cfg.model.embedDim = 12;
    cfg.model.tokenLayers = 1;
    cfg.model.blockLayers = 1;
    cfg.simulatedMultiple = 3;
    cfg.surrogateLoops = 3;
    cfg.tableEpochs = 12;
    cfg.refineRounds = 1;
    cfg.snapshotEvery = 4;
    cfg.workers = 1;
    cfg.seed = 3;

    mca::XMca sim;
    DiffTune difftune(sim, testDataset(),
                      hw::defaultTable(hw::Uarch::Haswell), cfg);
    const DiffTuneResult result = difftune.run();

    uint64_t loss_bits = 0;
    std::memcpy(&loss_bits, &result.surrogateFinalLoss,
                sizeof(loss_bits));
    EXPECT_EQ(loss_bits, 0x3fe9173871f44c58ULL);
    EXPECT_EQ(fnv1a(result.learned.save()), 0x41f4107e7da184bfULL);
    EXPECT_EQ(fnv1a(difftune.model().params().save()),
              0xa6fdcbbbdeed2619ULL);
}

TEST(DiffTune, MaskedRunKeepsBaseParams)
{
    DiffTuneConfig cfg;
    cfg.model.hidden = 12;
    cfg.model.embedDim = 8;
    cfg.model.tokenLayers = 1;
    cfg.model.blockLayers = 1;
    cfg.simulatedMultiple = 2;
    cfg.surrogateLoops = 2;
    cfg.tableEpochs = 4;
    cfg.refineRounds = 0;
    cfg.snapshotEvery = 2;
    cfg.dist = params::SamplingDist::writeLatencyOnly();
    cfg.seed = 5;

    mca::XMca sim;
    auto base = hw::defaultTable(hw::Uarch::Haswell);
    DiffTune difftune(sim, testDataset(), base, cfg);
    DiffTuneResult result = difftune.run();

    EXPECT_EQ(result.learned.dispatchWidth, base.dispatchWidth);
    for (size_t op = 0; op < base.numOpcodes(); ++op) {
        EXPECT_EQ(result.learned.perOpcode[op].numMicroOps,
                  std::max(1.0, std::round(base.perOpcode[op]
                                               .numMicroOps)));
        EXPECT_EQ(result.learned.perOpcode[op].portMap,
                  base.perOpcode[op].portMap);
    }
}

} // namespace
} // namespace difftune::core
