/**
 * @file
 * The differential oracle: a compiled Revet program must leave DRAM
 * exactly as the AST interpreter does (WaveCert-style checking against
 * the reference semantics). expectMatchesInterpreter is the one
 * compiled-vs-interpreter check the suites share; runCompiled,
 * interpreted and checkValueSoundness are its parts, for the checks
 * that need another graph or run (the fuzz sweep, the serving tests).
 */

#ifndef REVET_TESTS_GRAPH_ORACLE_HH
#define REVET_TESTS_GRAPH_ORACLE_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/revet.hh"
#include "graph/absint.hh"
#include "graph/bytecode.hh"
#include "graph/optimize.hh"

#include "lang_fixtures.hh"
#include "single_pass.hh"

namespace revet
{
namespace fixtures
{

using DramBytes = std::vector<std::vector<uint8_t>>; ///< per region

inline DramBytes
dramBytes(const lang::DramImage &dram)
{
    DramBytes out;
    for (int d = 0; d < dram.dramCount(); ++d)
        out.push_back(dram.bytes(d));
    return out;
}

/** The DRAM the AST interpreter leaves on an image @p generate fills. */
inline DramBytes
interpreted(const CompiledArtifact &art, const Generate &generate)
{
    lang::DramImage dram(art.hir());
    const auto args = generate(dram);
    art.interpret(dram, args);
    return dramBytes(dram);
}

struct CompiledRun
{
    graph::ExecStats stats;
    DramBytes dram;
};

/** Run @p bc once on a fresh ExecutionContext against an image of
 * @p prog that @p generate fills; @p workers is the parallel policy's
 * thread count (0 defers to Engine::defaultNumThreads()). */
inline CompiledRun
runCompiled(const graph::BytecodeProgram &bc, const lang::Program &prog,
            const Generate &generate, dataflow::Engine::Policy policy,
            int workers = 0)
{
    lang::DramImage dram(prog);
    const auto args = generate(dram);
    graph::ExecutionContext ctx(bc);
    CompiledRun out;
    out.stats = ctx.run(dram, args, policy, workers);
    out.dram = dramBytes(dram);
    return out;
}

/**
 * Abstract-interpretation soundness: every observed link value must be
 * admitted by what analyzeValues(@p g) infers for the link, which
 * catches unsound transfer functions even where nothing miscompiles.
 * Returns "" or the first offending link (id and name) after @p which.
 */
inline std::string
checkValueSoundness(const graph::Dfg &g, const graph::ExecStats &stats,
                    const std::string &which)
{
    const graph::AbsintReport rep = graph::analyzeValues(g);
    for (size_t l = 0; l < g.links.size(); ++l) {
        const auto &w = stats.linkValues[l];
        if (w.dataPushed == 0)
            continue; // nothing observed: any claim is vacuous
        const graph::AbsVal &v = rep.links[l];
        const std::string at =
            which + " graph link " + std::to_string(l) + " (" +
            g.links[l].name + "): ";
        if (v.bottom) {
            return at + "proven bottom but carried " +
                std::to_string(w.dataPushed) + " data tokens";
        }
        if (w.smin < v.smin || w.smax > v.smax) {
            return at + "observed signed [" + std::to_string(w.smin) +
                "," + std::to_string(w.smax) + "] outside inferred [" +
                std::to_string(v.smin) + "," + std::to_string(v.smax) +
                "]";
        }
        if (w.umin < v.umin || w.umax > v.umax) {
            return at + "observed unsigned [" + std::to_string(w.umin) +
                "," + std::to_string(w.umax) + "] outside inferred [" +
                std::to_string(v.umin) + "," + std::to_string(v.umax) +
                "]";
        }
        if (auto c = rep.constantOf(static_cast<int>(l))) {
            if (!w.allEqual ||
                w.first != static_cast<sltf::Word>(*c)) {
                return at + "proven constant " + std::to_string(*c) +
                    " but observed varying/different values";
            }
        }
    }
    return "";
}

/** The parallel leg's workers: some ordering races need a third. */
constexpr int kOracleWorkers = 4;

struct OracleResult
{
    graph::Dfg graph;       ///< the graph that was executed
    graph::ExecStats stats; ///< its worklist run
};

/**
 * Compile @p source unoptimized, optimize its lowered graph with
 * @p config (a singlePassPipeline name, or "none"), and run it under
 * the worklist and the parallel policy (kOracleWorkers) on images
 * @p generate fills. Asserts that both runs drain, leave DRAM equal to
 * the AST interpreter's and no park slot occupied; that per-link token
 * and barrier counts agree across the policies; that the worklist
 * needed one quiescence rescan (a second means a missed wakeup); that
 * the parallel run sharded; and that the observed link values are
 * sound. Failures carry @p label.
 */
inline OracleResult
expectMatchesInterpreter(const std::string &source,
                         const Generate &generate,
                         const std::string &config,
                         const std::string &label)
{
    CompileOptions raw;
    raw.graphOpt.enable = false;
    auto prog = CompiledArtifact::build(source, raw);
    const DramBytes want = interpreted(*prog, generate);

    OracleResult out{graph::lower(prog->hir()), {}};
    if (config != "none") {
        graph::runPasses(out.graph, singlePassPipeline(config),
                         graph::GraphPassOptions{});
    }
    EXPECT_NO_THROW(out.graph.verify()) << label;
    const auto bc = graph::BytecodeProgram::compile(out.graph);

    using Policy = dataflow::Engine::Policy;
    const CompiledRun wl =
        runCompiled(bc, prog->hir(), generate, Policy::worklist);
    const CompiledRun pl = runCompiled(bc, prog->hir(), generate,
                                       Policy::parallel, kOracleWorkers);
    for (const CompiledRun *run : {&wl, &pl}) {
        const std::string at =
            label + (run == &wl ? " (worklist)" : " (parallel)");
        EXPECT_TRUE(run->stats.drained) << at;
        EXPECT_EQ(run->stats.sramParkedEnd, 0u)
            << at << ": park slots left occupied";
        for (size_t d = 0; d < want.size(); ++d) {
            EXPECT_EQ(run->dram.at(d), want[d])
                << at << ": DRAM region " << d
                << " diverged from the AST interpreter";
        }
    }
    EXPECT_EQ(wl.stats.linkTokens, pl.stats.linkTokens)
        << label << ": per-link token counts diverged between policies";
    EXPECT_EQ(wl.stats.linkBarriers, pl.stats.linkBarriers)
        << label << ": per-link barrier counts diverged between policies";
    EXPECT_EQ(wl.stats.schedVerifyPasses, 1u)
        << label << ": worklist needed more than one quiescence rescan";
    EXPECT_EQ(pl.stats.schedWorkers, static_cast<uint64_t>(kOracleWorkers))
        << label << ": parallel run fell back to the serial worklist";
    EXPECT_EQ(checkValueSoundness(out.graph, wl.stats, label), "");
    out.stats = wl.stats;
    return out;
}

} // namespace fixtures
} // namespace revet

#endif // REVET_TESTS_GRAPH_ORACLE_HH
