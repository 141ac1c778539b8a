/**
 * @file
 * ModelSnapshot construction.
 */

#include "io/snapshot.hh"

#include "isa/tokens.hh"

namespace difftune::io
{

ModelSnapshot
makeModelSnapshot(Checkpoint &&checkpoint)
{
    fatal_if(!checkpoint.model,
             "checkpoint carries no model; nothing to serve");
    fatal_if(checkpoint.vocabSize != isa::theVocab().size(),
             "checkpoint vocabulary size {} does not match this "
             "process's {}",
             checkpoint.vocabSize, isa::theVocab().size());

    ModelSnapshot snapshot;
    snapshot.model = std::shared_ptr<const surrogate::Model>(
        std::move(checkpoint.model));
    if (checkpoint.dist)
        snapshot.dist = std::make_shared<const params::SamplingDist>(
            std::move(*checkpoint.dist));
    if (checkpoint.table)
        snapshot.table = std::make_shared<const params::ParamTable>(
            std::move(*checkpoint.table));
    snapshot.weights = surrogate::makeWeightSnapshot(snapshot.model);
    return snapshot;
}

ModelSnapshot
loadModelSnapshot(const std::string &path)
{
    // loadCheckpoint errors already name the path; tag the
    // promotion-stage validations with it too.
    Checkpoint checkpoint = loadCheckpoint(path);
    try {
        return makeModelSnapshot(std::move(checkpoint));
    } catch (const std::exception &error) {
        fatal("checkpoint '{}': {}", path,
              stripErrorPrefix(error.what()));
    }
}

} // namespace difftune::io
