/**
 * @file
 * Tests for the batched forward execution mode (nn/batched.hh).
 *
 * The contract under test:
 *
 *  - kF64 batched predictions are bit-identical to running each
 *    block through its own autograd Graph — for any batch size,
 *    submission order and mixture of ragged block/instruction
 *    lengths (the per-lane length-masking path);
 *  - batches reuse the executor's scratch: interleaving batches of
 *    different shapes through one BatchedForward never changes a
 *    result.
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "core/raw_table.hh"
#include "hw/default_table.hh"
#include "isa/parse.hh"
#include "nn/batched.hh"
#include "nn/modules.hh"
#include "surrogate/model.hh"

namespace difftune
{
namespace
{

bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

surrogate::ModelConfig
testConfig(int param_dim, int token_layers = 1, int block_layers = 2)
{
    surrogate::ModelConfig cfg;
    cfg.embedDim = 8;
    cfg.hidden = 12;
    cfg.tokenLayers = token_layers;
    cfg.blockLayers = block_layers;
    cfg.paramDim = param_dim;
    cfg.seed = 0xba7c4;
    return cfg;
}

/** Ragged block texts: 1..5 instructions, varying token counts. */
const std::vector<std::string> &
raggedBlocks()
{
    static const std::vector<std::string> blocks = {
        "NOP\n",
        "MOV64rm 8(%rsi), %rdi\nADD64rr %rdi, %rbx\n"
        "IMUL64rr %rbx, %rcx\nCMP64rr %rcx, %rdx\nPUSH64r %rbx\n",
        "ADD32rr %ebx, %ecx\n",
        "PUSH64r %rbx\nPOP64r %rcx\nADD32rr %ebx, %ecx\n",
        "IMUL64rr %rbx, %rcx\nNOP\n",
    };
    return blocks;
}

std::vector<surrogate::EncodedBlock>
encodeAll(const std::vector<std::string> &texts)
{
    std::vector<surrogate::EncodedBlock> encoded;
    for (const auto &text : texts)
        encoded.push_back(
            surrogate::encodeBlock(isa::parseBlock(text)));
    return encoded;
}

std::vector<double>
batchedHeads(const surrogate::Model &model,
             const std::vector<surrogate::EncodedBlock> &encoded)
{
    nn::BatchedForward bf(model.params());
    std::vector<const surrogate::EncodedBlock *> blocks;
    for (const auto &e : encoded)
        blocks.push_back(&e);
    std::vector<double> out;
    model.predictBatch(bf, blocks, {}, out);
    return out;
}

TEST(NnBatched, MatchesSequentialBitExactRagged)
{
    const surrogate::Model model(testConfig(0),
                                 isa::theVocab().size());
    const auto encoded = encodeAll(raggedBlocks());
    const auto batched = batchedHeads(model, encoded);
    ASSERT_EQ(batched.size(), encoded.size());
    for (size_t i = 0; i < encoded.size(); ++i) {
        EXPECT_TRUE(sameBits(batched[i], model.predict(encoded[i])))
            << "block " << i;
    }
}

TEST(NnBatched, BatchOfOneMatchesSequential)
{
    const surrogate::Model model(testConfig(0, 2, 1),
                                 isa::theVocab().size());
    for (const auto &text : raggedBlocks()) {
        const auto encoded = encodeAll({text});
        const auto batched = batchedHeads(model, encoded);
        ASSERT_EQ(batched.size(), 1u);
        EXPECT_TRUE(sameBits(batched[0], model.predict(encoded[0])));
    }
}

TEST(NnBatched, EmptyBatchIsANoOp)
{
    const surrogate::Model model(testConfig(0),
                                 isa::theVocab().size());
    nn::BatchedForward bf(model.params());
    std::vector<double> out{1.0, 2.0};
    model.predictBatch(bf, {}, {}, out);
    EXPECT_TRUE(out.empty());
}

TEST(NnBatched, SubmissionOrderDoesNotChangeBits)
{
    const surrogate::Model model(testConfig(0),
                                 isa::theVocab().size());
    const auto encoded = encodeAll(raggedBlocks());
    const auto forward = batchedHeads(model, encoded);
    std::vector<surrogate::EncodedBlock> reversed(encoded.rbegin(),
                                                  encoded.rend());
    const auto backward = batchedHeads(model, reversed);
    ASSERT_EQ(forward.size(), backward.size());
    for (size_t i = 0; i < forward.size(); ++i)
        EXPECT_TRUE(sameBits(forward[i],
                             backward[forward.size() - 1 - i]))
            << "block " << i;
}

TEST(NnBatched, ScratchReuseAcrossDifferentShapes)
{
    const surrogate::Model model(testConfig(0),
                                 isa::theVocab().size());
    const auto encoded = encodeAll(raggedBlocks());
    std::vector<const surrogate::EncodedBlock *> all;
    for (const auto &e : encoded)
        all.push_back(&e);

    nn::BatchedForward bf(model.params());
    std::vector<double> first, again, one;
    model.predictBatch(bf, all, {}, first);
    // A different shape in between (batch of one, longest block)...
    model.predictBatch(bf, {all[1]}, {}, one);
    // ...must not perturb a rerun of the original batch.
    model.predictBatch(bf, all, {}, again);
    ASSERT_EQ(first.size(), again.size());
    EXPECT_TRUE(sameBits(one[0], first[1]));
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_TRUE(sameBits(first[i], again[i])) << "block " << i;
}

TEST(NnBatched, SurrogateModeMatchesSequentialBitExact)
{
    const core::ParamNormalizer norm(params::SamplingDist::full());
    const surrogate::Model model(testConfig(norm.paramDim()),
                                 isa::theVocab().size());
    const params::ParamTable table =
        hw::defaultTable(hw::Uarch::Haswell);

    std::vector<isa::BasicBlock> blocks;
    std::vector<surrogate::EncodedBlock> encoded;
    for (const auto &text : raggedBlocks()) {
        blocks.push_back(isa::parseBlock(text));
        encoded.push_back(surrogate::encodeBlock(blocks.back()));
    }

    // Per-opcode parameter columns, as the serving engine feeds them.
    std::vector<nn::Tensor> per_opcode;
    for (size_t op = 0; op < table.numOpcodes(); ++op)
        per_opcode.push_back(core::opcodeParamInput(
            table, isa::OpcodeId(op), norm));
    std::vector<const surrogate::EncodedBlock *> batch;
    std::vector<std::vector<const nn::Tensor *>> inst_params;
    for (size_t b = 0; b < blocks.size(); ++b) {
        batch.push_back(&encoded[b]);
        inst_params.emplace_back();
        for (const auto &inst : blocks[b].insts)
            inst_params.back().push_back(
                &per_opcode[size_t(inst.opcode)]);
    }

    nn::BatchedForward bf(model.params());
    std::vector<double> batched;
    model.predictBatch(bf, batch, inst_params, batched);

    for (size_t b = 0; b < blocks.size(); ++b) {
        nn::Graph graph;
        nn::Ctx ctx{graph, model.params(), nullptr};
        auto inputs =
            core::constParamInputs(graph, table, blocks[b], norm);
        const double expected = graph.scalarValue(
            model.forward(ctx, encoded[b], inputs));
        EXPECT_TRUE(sameBits(batched[b], expected)) << "block " << b;
    }
}

/**
 * The executor's lane groups: ragged batches of 7, 8, 9, 17 and 33
 * lanes through a 2-layer stack, against one sequential Graph per
 * lane, bit for bit. The sizes straddle the 8-lane groups, the
 * ragged lengths make lanes drop out of a group mid-run, and the
 * layer-0 steps mix embedding-table rows (taken from the
 * precomputed projections, so the lane sits out the group's Wx
 * call) with raw inputs. Widths 9 and 7 (28 gate rows) leave
 * remainder columns in every matvec.
 */
TEST(NnBatched, LaneGroupsMatchSequentialBitExact)
{
    constexpr int dim = 9, hidden = 7, vocab = 13;
    Rng rng(0x9a0e);
    nn::ParamSet params;
    const nn::Embedding embed(params, vocab, dim, rng);
    const nn::LstmStack stack(params, dim, hidden, 2, rng);
    nn::BatchedForward bf(params);
    for (int batch : {7, 8, 9, 17, 33}) {
        // Per lane and step: a table row, or -1 and a raw input.
        const size_t lanes = size_t(batch);
        std::vector<std::vector<int>> rows(lanes);
        std::vector<std::vector<nn::Tensor>> raw(lanes);
        bf.begin(dim);
        for (int lane = 0; lane < batch; ++lane) {
            const int len = int(rng.uniformInt(1, 6));
            ASSERT_EQ(lane, bf.addLane(len));
            for (int t = 0; t < len; ++t) {
                nn::Tensor x(dim, 1);
                int row = -1;
                if (rng.uniformInt(0, 2) > 0) {
                    row = int(rng.uniformInt(0, vocab - 1));
                    bf.setInputParamRow(lane, t, 0, embed.tableIndex(),
                                        row);
                } else {
                    x.uniformInit(rng, 1.0);
                    bf.setInput(lane, t, 0, x.data.data(), dim);
                }
                rows[size_t(lane)].push_back(row);
                raw[size_t(lane)].push_back(std::move(x));
            }
        }
        bf.run(stack.batchedRef());

        std::vector<double> got(static_cast<size_t>(hidden));
        for (int lane = 0; lane < batch; ++lane) {
            nn::Graph graph;
            nn::Ctx ctx{graph, params, nullptr};
            std::vector<nn::Var> sequence;
            for (size_t t = 0; t < rows[size_t(lane)].size(); ++t) {
                const int row = rows[size_t(lane)][t];
                sequence.push_back(
                    row >= 0 ? embed.forward(ctx, row)
                             : graph.input(raw[size_t(lane)][t]));
            }
            const nn::TensorView want =
                graph.value(stack.runSequence(ctx, sequence));
            bf.finalHidden(lane, got.data());
            for (int i = 0; i < hidden; ++i)
                EXPECT_TRUE(sameBits(got[size_t(i)], want.data[i]))
                    << "batch " << batch << ", lane " << lane
                    << ", element " << i;
        }
    }
}

} // namespace
} // namespace difftune
