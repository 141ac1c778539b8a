#include "compare/preds.hh"

#include <fstream>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "base/logging.hh"
#include "bhive/corpus.hh"
#include "isa/instruction.hh"
#include "isa/parse.hh"
#include "nn/matvec_dispatch.hh"
#include "serve/async_engine.hh"
#include "serve/daemon.hh"

namespace difftune::compare
{

uint64_t
corpusDigest(const std::vector<std::string> &texts)
{
    // Order-sensitive FNV-1a over text bytes, with a length prefix
    // per text so ("ab","c") and ("a","bc") digest differently.
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t byte) {
        h ^= byte;
        h *= 0x100000001b3ull;
    };
    for (const std::string &text : texts)
    {
        uint64_t n = text.size();
        for (int shift = 0; shift < 64; shift += 8)
            mix((n >> shift) & 0xff);
        for (unsigned char c : text)
            mix(c);
    }
    return h;
}

std::string
encodePreds(const PredsArtifact &artifact)
{
    io::ByteWriter meta;
    meta.u64(artifact.corpusDigest);
    meta.u64(artifact.blocks.size());
    meta.str(artifact.engine.source);
    meta.str(artifact.engine.precision);
    meta.str(artifact.engine.kernel);
    meta.i32(artifact.engine.workers);

    io::ByteWriter blocks;
    blocks.u64(artifact.blocks.size());
    for (const BlockPreds &block : artifact.blocks)
    {
        blocks.str(block.text);
        blocks.u64(block.bits);
    }

    io::ChunkWriter writer(predsContainer);
    writer.add(tagPredsMeta, meta.take());
    writer.add(tagPredsBlocks, blocks.take());
    return writer.serialize();
}

PredsArtifact
decodePreds(std::string bytes, std::string source)
{
    io::ChunkReader reader(std::move(bytes), std::move(source),
                           predsContainer);
    const std::string &name = reader.source();

    PredsArtifact artifact;
    io::ByteReader meta(reader.payload(tagPredsMeta),
                        "predictions metadata");
    artifact.corpusDigest = meta.u64();
    uint64_t declared = meta.u64();
    artifact.engine.source = meta.str();
    artifact.engine.precision = meta.str();
    artifact.engine.kernel = meta.str();
    artifact.engine.workers = meta.i32();
    meta.expectEnd();

    io::ByteReader blocks(reader.payload(tagPredsBlocks),
                          "predictions blocks");
    uint64_t count = blocks.u64();
    if (count != declared)
        fatal("{}: block count mismatch (metadata says {}, "
              "block chunk says {})",
              name, declared, count);
    artifact.blocks.reserve(count);
    std::unordered_set<std::string> seen;
    seen.reserve(count);
    for (uint64_t i = 0; i < count; ++i)
    {
        BlockPreds block;
        block.text = blocks.str();
        block.bits = blocks.u64();
        if (!seen.insert(block.text).second)
            fatal("{}: duplicate block text at index {}", name, i);
        artifact.blocks.push_back(std::move(block));
    }
    blocks.expectEnd();
    return artifact;
}

void
savePreds(const std::string &path, const PredsArtifact &artifact)
{
    std::string bytes = encodePreds(artifact);
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os)
        fatal("cannot open {} for writing", path);
    os.write(bytes.data(), std::streamsize(bytes.size()));
    os.flush();
    if (!os)
        fatal("write to {} failed", path);
}

PredsArtifact
loadPreds(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot open predictions artifact {}", path);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    if (!is)
        fatal("read of predictions artifact {} failed", path);
    return decodePreds(std::move(buffer).str(), path);
}

namespace
{

/** Append @p text if its canonical form is new; first wins. */
void
addUnique(std::vector<std::string> &texts,
          std::unordered_set<std::string> &seen, std::string text)
{
    if (seen.insert(text).second)
        texts.push_back(std::move(text));
}

std::vector<std::string>
generatedCorpus(size_t count, uint64_t seed)
{
    bhive::Corpus corpus = bhive::Corpus::generate(count, seed);
    std::vector<std::string> texts;
    texts.reserve(corpus.size());
    std::unordered_set<std::string> seen;
    for (const bhive::BlockInfo &info : corpus.blocks())
        addUnique(texts, seen, isa::toString(info.block));
    return texts;
}

std::vector<std::string>
fileCorpus(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        fatal("cannot open corpus file {}", path);
    std::vector<std::string> texts;
    std::unordered_set<std::string> seen;
    std::string line;
    std::string pending;
    auto flush = [&]() {
        if (pending.empty())
            return;
        addUnique(texts, seen,
                  isa::toString(isa::parseBlock(pending)));
        pending.clear();
    };
    while (std::getline(is, line))
    {
        if (line.empty())
            flush();
        else
        {
            pending += line;
            pending += '\n';
        }
    }
    flush();
    if (texts.empty())
        fatal("corpus file {} contains no blocks", path);
    return texts;
}

} // namespace

std::vector<std::string>
resolveCorpus(const std::string &spec)
{
    if (spec.rfind("file:", 0) == 0)
        return fileCorpus(spec.substr(5));
    if (spec.rfind("gen:", 0) == 0)
    {
        size_t colon = spec.find(':', 4);
        if (colon != std::string::npos)
        {
            size_t count = 0;
            uint64_t seed = 0;
            try
            {
                count = std::stoull(spec.substr(4, colon - 4));
                seed = std::stoull(spec.substr(colon + 1), nullptr, 0);
            }
            catch (const std::exception &)
            {
                fatal("bad corpus spec '{}' (want gen:<count>:<seed> "
                      "or file:<path>)",
                      spec);
            }
            if (count == 0)
                fatal("corpus spec '{}' asks for zero blocks", spec);
            return generatedCorpus(count, seed);
        }
    }
    fatal("bad corpus spec '{}' (want gen:<count>:<seed> or "
          "file:<path>)",
          spec);
}

PredsArtifact
snapshotCheckpoint(const std::string &checkpoint_path,
                   const std::vector<std::string> &texts,
                   SnapshotOptions options)
{
    serve::AsyncConfig config;
    config.workers = options.workers;
    const std::unique_ptr<serve::AsyncEngine> engine =
        serve::AsyncEngine::loadFromFile(checkpoint_path, config);

    PredsArtifact artifact;
    artifact.engine.source = checkpoint_path;
    artifact.engine.precision = "f64";
    artifact.engine.kernel = nn::matvecPathName();
    artifact.engine.workers = engine->workers();
    artifact.corpusDigest = corpusDigest(texts);

    std::vector<double> values = engine->predictAll(texts);
    artifact.blocks.reserve(texts.size());
    for (size_t i = 0; i < texts.size(); ++i)
    {
        BlockPreds block;
        block.text = texts[i];
        block.bits = std::bit_cast<uint64_t>(values[i]);
        artifact.blocks.push_back(std::move(block));
    }
    return artifact;
}

PredsArtifact
snapshotDaemon(const std::string &host, uint16_t port,
               const std::string &model,
               const std::vector<std::string> &texts)
{
    serve::DaemonClient client(host, port);
    PredsArtifact artifact;
    artifact.engine.source =
        "daemon " + host + ":" + std::to_string(port) + "/" + model;
    artifact.engine.precision = "daemon";
    artifact.engine.kernel = "daemon";
    artifact.engine.workers = 0;
    artifact.corpusDigest = corpusDigest(texts);
    artifact.blocks.reserve(texts.size());
    for (const std::string &text : texts)
    {
        BlockPreds block;
        block.text = text;
        block.bits =
            std::bit_cast<uint64_t>(client.predict(model, text));
        artifact.blocks.push_back(std::move(block));
    }
    return artifact;
}

} // namespace difftune::compare
