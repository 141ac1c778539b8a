#include "compare/perturb.hh"

#include "base/logging.hh"
#include "io/checkpoint.hh"
#include "isa/isa.hh"
#include "nn/graph.hh"

namespace difftune::compare
{

namespace
{

PerturbInfo
perturbLoaded(io::Checkpoint &checkpoint, const std::string &in_path,
              const std::string &out_path, size_t tensor_index,
              int row, int col, double delta)
{
    if (!checkpoint.model)
        fatal("{}: checkpoint has no model section to perturb",
              in_path);
    nn::ParamSet &params = checkpoint.model->params();
    if (tensor_index >= params.count())
        fatal("{}: tensor index {} out of range (model has {} "
              "parameter tensors)",
              in_path, tensor_index, params.count());
    nn::Tensor &tensor = params[int(tensor_index)];
    if (row < 0 || row >= tensor.rows || col < 0 ||
        col >= tensor.cols)
        fatal("{}: element ({}, {}) out of range for {}x{} tensor "
              "{}",
              in_path, row, col, tensor.rows, tensor.cols,
              tensor_index);

    PerturbInfo info;
    info.tensorIndex = tensor_index;
    info.row = row;
    info.col = col;
    info.before = tensor.at(row, col);
    tensor.at(row, col) += delta;
    info.after = tensor.at(row, col);

    io::saveCheckpoint(out_path, checkpoint.model.get(),
                       checkpoint.dist ? &*checkpoint.dist : nullptr,
                       checkpoint.table ? &*checkpoint.table
                                        : nullptr);
    return info;
}

} // namespace

PerturbInfo
perturbWeight(const std::string &in_path, const std::string &out_path,
              size_t tensor_index, int row, int col, double delta)
{
    io::Checkpoint checkpoint = io::loadCheckpoint(in_path);
    return perturbLoaded(checkpoint, in_path, out_path, tensor_index,
                         row, col, delta);
}

PerturbInfo
perturbOpcodeEmbedding(const std::string &in_path,
                       const std::string &out_path,
                       const std::string &opcode, double delta)
{
    const isa::OpcodeId op = isa::theIsa().opcodeByName(opcode);
    if (op == isa::invalidOpcode)
        fatal("unknown opcode '{}'", opcode);

    io::Checkpoint checkpoint = io::loadCheckpoint(in_path);
    if (!checkpoint.model)
        fatal("{}: checkpoint has no model section to perturb",
              in_path);
    const nn::ParamSet &params = checkpoint.model->params();
    // The embedding is the unique tensor with one row per
    // vocabulary token; opcode tokens are the first vocab rows
    // (TokenVocab::opcodeToken(op) == op).
    size_t embedding = params.count();
    for (size_t i = 0; i < params.count(); ++i)
    {
        if (params[int(i)].rows != int(checkpoint.vocabSize))
            continue;
        if (embedding != params.count())
            fatal("{}: several {}-row tensors; cannot identify the "
                  "embedding",
                  in_path, checkpoint.vocabSize);
        embedding = i;
    }
    if (embedding == params.count())
        fatal("{}: no tensor with {} (vocabSize) rows; cannot "
              "identify the embedding",
              in_path, checkpoint.vocabSize);
    return perturbLoaded(checkpoint, in_path, out_path, embedding,
                         int(op), 0, delta);
}

} // namespace difftune::compare
