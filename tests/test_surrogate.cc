/**
 * @file
 * Tests for the Ithemal/DiffTune surrogate model: shapes, parameter
 * concatenation, determinism, and the ability to fit tiny datasets.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "bhive/corpus.hh"
#include "core/trainer.hh"
#include "isa/parse.hh"
#include "nn/optim.hh"
#include "surrogate/model.hh"

namespace difftune::surrogate
{
namespace
{

ModelConfig
tinyConfig(int param_dim)
{
    ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 10;
    cfg.tokenLayers = 1;
    cfg.blockLayers = 1;
    cfg.paramDim = param_dim;
    cfg.seed = 5;
    return cfg;
}

TEST(Model, PredictIsDeterministic)
{
    Model model(tinyConfig(0), isa::theVocab().size());
    auto block = encodeBlock(
        isa::parseBlock("ADD32rr %ebx, %ecx\nNOP\n"));
    EXPECT_EQ(model.predict(block), model.predict(block));
}

TEST(Model, DifferentBlocksDifferentPredictions)
{
    Model model(tinyConfig(0), isa::theVocab().size());
    auto a = encodeBlock(isa::parseBlock("ADD32rr %ebx, %ecx\n"));
    auto b = encodeBlock(isa::parseBlock("IMUL64rr %rbx, %rcx\n"));
    EXPECT_NE(model.predict(a), model.predict(b));
}

TEST(Model, ParamInputsChangePrediction)
{
    Model model(tinyConfig(3), isa::theVocab().size());
    auto block = encodeBlock(isa::parseBlock("ADD32rr %ebx, %ecx\n"));

    auto predictWith = [&](double v) {
        nn::Graph g;
        nn::Ctx ctx{g, model.params(), nullptr};
        nn::Tensor t(3, 1);
        t.data = {v, v, v};
        nn::Var pred = model.forward(ctx, block, {g.input(std::move(t))});
        return g.scalarValue(pred);
    };
    EXPECT_NE(predictWith(0.0), predictWith(1.0));
}

TEST(Model, ForwardChecksParamCount)
{
    Model model(tinyConfig(3), isa::theVocab().size());
    auto block = encodeBlock(isa::parseBlock("NOP\nNOP\n"));
    nn::Graph g;
    nn::Ctx ctx{g, model.params(), nullptr};
    EXPECT_DEATH(model.forward(ctx, block, {}), "parameter vectors");
}

uint64_t
bits(double v)
{
    uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

TEST(Model, SplitForwardMatchesForwardBitExactly)
{
    // DiffTune's phase-4 path: frozen weights, the token-level
    // hiddens fed back in as graph inputs, gradients taken with
    // respect to the parameter columns only.
    constexpr int param_dim = 3;
    Model model(tinyConfig(param_dim), isa::theVocab().size());
    const bhive::Corpus corpus = bhive::Corpus::generate(120, 21);
    ASSERT_GT(corpus.size(), 0u);
    Rng rng(23);
    for (size_t b = 0; b < corpus.size(); ++b) {
        const EncodedBlock block = encodeBlock(corpus[b].block);
        nn::ParamSet columns;
        for (size_t i = 0; i < block.size(); ++i)
            columns[columns.add(param_dim, 1)].uniformInit(rng, 1.0);

        uint64_t head_bits[2];
        std::vector<uint64_t> grad_bits[2];
        for (int path = 0; path < 2; ++path) {
            nn::Graph g;
            nn::Grads grads(columns);
            std::vector<nn::Var> inputs;
            for (size_t i = 0; i < block.size(); ++i)
                inputs.push_back(g.param(columns, int(i), &grads));
            nn::Ctx ctx{g, model.params(), nullptr};
            nn::Var head;
            if (path == 0) {
                head = model.forward(ctx, block, inputs);
            } else {
                std::vector<nn::Var> inst_vecs;
                for (const nn::Tensor &hidden : model.instHiddens(block))
                    inst_vecs.push_back(g.input(hidden));
                head = model.blockForward(ctx, inst_vecs, inputs);
            }
            g.backward(g.lossMape(g.exp(head), 2.0, 0.05));
            head_bits[path] = bits(g.scalarValue(head));
            for (size_t i = 0; i < grads.count(); ++i)
                for (double v : grads[int(i)].data)
                    grad_bits[path].push_back(bits(v));
        }
        EXPECT_EQ(head_bits[0], head_bits[1]) << "block " << b;
        EXPECT_EQ(grad_bits[0], grad_bits[1]) << "block " << b;
    }
}

TEST(Model, SeedControlsInitialization)
{
    ModelConfig a = tinyConfig(0), b = tinyConfig(0);
    b.seed = 99;
    Model ma(a, isa::theVocab().size()), mb(b, isa::theVocab().size());
    auto block = encodeBlock(isa::parseBlock("NOP\n"));
    EXPECT_NE(ma.predict(block), mb.predict(block));
}

TEST(Model, CanOverfitTinyDataset)
{
    // Four blocks with arbitrary target timings: a tiny Ithemal must
    // drive the MAPE loss near zero.
    Model model(tinyConfig(0), isa::theVocab().size());
    const std::vector<std::pair<std::string, double>> samples = {
        {"ADD32rr %ebx, %ecx\n", 1.0},
        {"IMUL64rr %rbx, %rcx\nNOP\n", 3.0},
        {"PUSH64r %rbx\n", 0.5},
        {"MOV64rm 8(%rsi), %rdi\nADD64rr %rdi, %rbx\n", 2.0},
    };
    std::vector<EncodedBlock> encoded;
    for (const auto &[text, timing] : samples)
        encoded.push_back(encodeBlock(isa::parseBlock(text)));

    nn::Adam adam(0.01);
    core::BatchRunner runner(model.params(), 2);
    double loss = 1e9;
    for (int step = 0; step < 300; ++step) {
        loss = runner.runBatch(
            0, samples.size(),
            [&](size_t i, nn::Graph &g, nn::Grads &grads) {
                nn::Ctx ctx{g, model.params(), &grads};
                nn::Var pred =
                    g.exp(model.forward(ctx, encoded[i], {}));
                nn::Var l = g.lossMape(pred, samples[i].second, 0.05);
                g.backward(l);
                return g.scalarValue(l);
            });
        runner.apply(model.params(), adam, 5.0);
    }
    EXPECT_LT(loss, 0.05);
}

TEST(EncodeBlock, MatchesVocab)
{
    auto block = isa::parseBlock("ADD32rr %ebx, %ecx\nNOP\n");
    auto encoded = encodeBlock(block);
    EXPECT_EQ(encoded.size(), 2u);
    EXPECT_EQ(encoded, isa::theVocab().encode(block));
}

} // namespace
} // namespace difftune::surrogate
