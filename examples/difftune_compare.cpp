/**
 * @file
 * difftune_compare — the semantic-diff harness CLI over
 * src/compare/ (docs/COMPARE.md).
 *
 *   difftune_compare snapshot <out.preds>
 *       (--ckpt PATH [--workers N]
 *        | --daemon PORT [--host H] [--model NAME])
 *       [--corpus gen:<count>:<seed>|file:<path>]
 *       Run the checkpoint (or a live difftuned daemon) over the
 *       declared corpus and write a CRC-guarded .preds artifact.
 *   difftune_compare compare <a.preds> <b.preds>
 *       [--tolerance X] [--json]
 *       Diff two artifacts; print the report (human table, or JSON
 *       with --json) and exit with the classification code.
 *   difftune_compare check <ref.preds>
 *       (--ckpt PATH [--workers N]
 *        | --daemon PORT [--host H] [--model NAME])
 *       [--tolerance X] [--json]
 *       Snapshot the live engine over the reference artifact's own
 *       corpus (its block texts) and compare against it — the
 *       one-command CI gate.
 *   difftune_compare dump <a.preds>
 *       One tab-separated line per block: index, instruction count,
 *       comma-joined distinct opcodes, prediction bits, escaped
 *       text. Lets scripts compute expected diff sets themselves.
 *   difftune_compare perturb <in.ckpt> <out.ckpt>
 *       (--opcode NAME | --tensor I --row R --col C) [--delta X]
 *       Test hook: copy a checkpoint with exactly one weight
 *       changed (see src/compare/perturb.hh).
 *
 * Exit codes: compare/check exit the classification contract —
 * 0 all bit-exact, 1 within-tolerance only, 2 any diverged or
 * missing block. Operational failures (bad usage, unreadable file,
 * connection refused) exit 3 so CI can never mistake a harness
 * breakage for a clean comparison.
 */

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "compare/compare.hh"
#include "compare/perturb.hh"
#include "compare/preds.hh"

namespace
{

using namespace difftune;

/** Source selection shared by snapshot and check. */
struct EngineArgs
{
    std::string ckpt;
    std::string host = "127.0.0.1";
    std::string model = "default";
    int port = -1;
    compare::SnapshotOptions options;

    bool daemon() const { return port >= 0; }

    /** @return true if @p arg (+ value) was consumed. */
    bool
    consume(const std::string &arg, int argc, char **argv, int &i)
    {
        if (arg == "--ckpt") {
            fatal_if(i + 1 >= argc, "--ckpt needs a path");
            ckpt = argv[++i];
        } else if (arg == "--daemon") {
            fatal_if(i + 1 >= argc, "--daemon needs a port");
            port = std::stoi(argv[++i]);
        } else if (arg == "--host") {
            fatal_if(i + 1 >= argc, "--host needs an address");
            host = argv[++i];
        } else if (arg == "--model") {
            fatal_if(i + 1 >= argc, "--model needs a name");
            model = argv[++i];
        } else if (arg == "--workers") {
            fatal_if(i + 1 >= argc, "--workers needs a count");
            options.workers = std::stoi(argv[++i]);
        } else {
            return false;
        }
        return true;
    }

    void
    require(const char *verb) const
    {
        fatal_if(ckpt.empty() && !daemon(),
                 "{}: need --ckpt PATH or --daemon PORT", verb);
        fatal_if(!ckpt.empty() && daemon(),
                 "{}: --ckpt and --daemon are exclusive", verb);
    }

    compare::PredsArtifact
    snapshot(const std::vector<std::string> &texts) const
    {
        if (daemon())
            return compare::snapshotDaemon(host, uint16_t(port),
                                           model, texts);
        return compare::snapshotCheckpoint(ckpt, texts, options);
    }
};

int
cmdSnapshot(int argc, char **argv)
{
    fatal_if(argc < 3, "usage: snapshot <out.preds> ...");
    const std::string out = argv[2];
    EngineArgs engine;
    std::string corpus_spec = compare::defaultCorpusSpec;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (engine.consume(arg, argc, argv, i))
            continue;
        if (arg == "--corpus") {
            fatal_if(i + 1 >= argc, "--corpus needs a spec");
            corpus_spec = argv[++i];
        } else {
            fatal("snapshot: unknown argument '{}'", arg);
        }
    }
    engine.require("snapshot");

    const std::vector<std::string> texts =
        compare::resolveCorpus(corpus_spec);
    const compare::PredsArtifact artifact = engine.snapshot(texts);
    compare::savePreds(out, artifact);
    std::cout << "snapshot: " << artifact.blocks.size()
              << " blocks (" << artifact.engine.precision << ", "
              << artifact.engine.kernel << ") -> " << out << "\n";
    return 0;
}

/** Shared report tail of compare and check. */
int
report(const compare::CompareReport &result, bool json)
{
    if (json)
        std::cout << compare::renderJson(result) << "\n";
    else
        std::cout << compare::renderTable(result);
    return result.exitCode();
}

int
cmdCompare(int argc, char **argv)
{
    fatal_if(argc < 4, "usage: compare <a.preds> <b.preds> "
                       "[--tolerance X] [--json]");
    compare::CompareConfig config;
    bool json = false;
    for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tolerance") {
            fatal_if(i + 1 >= argc, "--tolerance needs a number");
            config.tolerance = std::stod(argv[++i]);
        } else if (arg == "--json") {
            json = true;
        } else {
            fatal("compare: unknown argument '{}'", arg);
        }
    }
    const compare::PredsArtifact a = compare::loadPreds(argv[2]);
    const compare::PredsArtifact b = compare::loadPreds(argv[3]);
    return report(compare::compare(a, b, config), json);
}

int
cmdCheck(int argc, char **argv)
{
    fatal_if(argc < 3, "usage: check <ref.preds> ...");
    EngineArgs engine;
    compare::CompareConfig config;
    bool json = false;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (engine.consume(arg, argc, argv, i))
            continue;
        if (arg == "--tolerance") {
            fatal_if(i + 1 >= argc, "--tolerance needs a number");
            config.tolerance = std::stod(argv[++i]);
        } else if (arg == "--json") {
            json = true;
        } else {
            fatal("check: unknown argument '{}'", arg);
        }
    }
    engine.require("check");

    const compare::PredsArtifact ref = compare::loadPreds(argv[2]);
    // The reference carries its corpus: snapshot the live engine
    // over exactly those texts, in order.
    std::vector<std::string> texts;
    texts.reserve(ref.blocks.size());
    for (const compare::BlockPreds &block : ref.blocks)
        texts.push_back(block.text);
    return report(compare::compare(ref, engine.snapshot(texts),
                                   config),
                  json);
}

int
cmdDump(int argc, char **argv)
{
    fatal_if(argc < 3, "usage: dump <a.preds>");
    const compare::PredsArtifact artifact =
        compare::loadPreds(argv[2]);
    for (size_t i = 0; i < artifact.blocks.size(); ++i) {
        const compare::BlockPreds &block = artifact.blocks[i];
        std::string opcodes;
        for (const std::string &op :
             compare::distinctOpcodes(block.text)) {
            if (!opcodes.empty())
                opcodes += ",";
            opcodes += op;
        }
        std::string escaped;
        for (char c : block.text)
            if (c == '\n')
                escaped += "\\n";
            else if (c == '\t')
                escaped += "\\t";
            else if (c == '\\')
                escaped += "\\\\";
            else
                escaped += c;
        char bits[32];
        std::snprintf(bits, sizeof(bits), "%016llx",
                      static_cast<unsigned long long>(block.bits));
        std::cout << i << "\t"
                  << compare::instructionCount(block.text) << "\t"
                  << opcodes << "\t" << bits << "\t" << escaped
                  << "\n";
    }
    return 0;
}

int
cmdPerturb(int argc, char **argv)
{
    fatal_if(argc < 4, "usage: perturb <in.ckpt> <out.ckpt> "
                       "(--opcode NAME | --tensor I --row R --col C) "
                       "[--delta X]");
    std::string opcode;
    int tensor = -1, row = -1, col = -1;
    double delta = 0.5;
    for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--opcode") {
            fatal_if(i + 1 >= argc, "--opcode needs a name");
            opcode = argv[++i];
        } else if (arg == "--tensor") {
            fatal_if(i + 1 >= argc, "--tensor needs an index");
            tensor = std::stoi(argv[++i]);
        } else if (arg == "--row") {
            fatal_if(i + 1 >= argc, "--row needs an index");
            row = std::stoi(argv[++i]);
        } else if (arg == "--col") {
            fatal_if(i + 1 >= argc, "--col needs an index");
            col = std::stoi(argv[++i]);
        } else if (arg == "--delta") {
            fatal_if(i + 1 >= argc, "--delta needs a number");
            delta = std::stod(argv[++i]);
        } else {
            fatal("perturb: unknown argument '{}'", arg);
        }
    }
    compare::PerturbInfo info;
    if (!opcode.empty()) {
        fatal_if(tensor >= 0, "--opcode and --tensor are exclusive");
        info = compare::perturbOpcodeEmbedding(argv[2], argv[3],
                                               opcode, delta);
    } else {
        fatal_if(tensor < 0 || row < 0 || col < 0,
                 "need --opcode NAME or --tensor I --row R --col C");
        info = compare::perturbWeight(argv[2], argv[3],
                                      size_t(tensor), row, col,
                                      delta);
    }
    std::cout << "perturbed tensor " << info.tensorIndex << " ("
              << info.row << ", " << info.col << "): " << info.before
              << " -> " << info.after << " -> " << argv[3] << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: difftune_compare "
                     "<snapshot|compare|check|dump|perturb> ...\n";
        return 3;
    }
    const std::string command = argv[1];
    // Operational failures exit 3: codes 0/1/2 belong to the
    // classification contract and must never be emitted by a run
    // that didn't actually compare anything.
    try {
        if (command == "snapshot")
            return cmdSnapshot(argc, argv);
        if (command == "compare")
            return cmdCompare(argc, argv);
        if (command == "check")
            return cmdCheck(argc, argv);
        if (command == "dump")
            return cmdDump(argc, argv);
        if (command == "perturb")
            return cmdPerturb(argc, argv);
        std::cerr << "unknown command '" << command << "'\n";
        return 3;
    } catch (const std::exception &error) {
        std::cerr << error.what() << "\n";
        return 3;
    }
}
