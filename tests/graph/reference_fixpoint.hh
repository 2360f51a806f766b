/**
 * @file
 * The optimizer's fixpoint with nothing reused, for checking
 * graph::runPasses against.
 *
 * runPasses accounts and value-analyzes each graph revision once and
 * skips a pass that already found nothing at the current revision.
 * Both are exact only under GraphPass::run's contract: a run that
 * returns 0 leaves the graph untouched. referenceFixpoint runs the same
 * sweeps recomputing everything — every pass on every sweep, a fresh
 * baseline account before each pass, each rewrite validated from
 * scratch — and can check that contract for every pass at every
 * revision it visits. fingerprint() renders every structural field of
 * a graph (toDot() leaves out block bodies), so two graphs with equal
 * fingerprints are the same graph.
 */

#ifndef REVET_TESTS_GRAPH_REFERENCE_FIXPOINT_HH
#define REVET_TESTS_GRAPH_REFERENCE_FIXPOINT_HH

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "graph/absint.hh"
#include "graph/analyze.hh"
#include "graph/dfg.hh"
#include "graph/optimize.hh"

namespace revet
{
namespace fixtures
{

/** Every field of every node (block bodies and register maps
 * included), link and replicate region of @p g. */
inline std::string
fingerprint(const graph::Dfg &g)
{
    std::ostringstream os;
    auto list = [&](const char *tag, const std::vector<int> &v) {
        os << ' ' << tag << '[';
        for (int x : v)
            os << x << ',';
        os << ']';
    };
    for (const graph::Node &n : g.nodes) {
        os << "node " << n.id << ' ' << graph::toString(n.kind) << " '"
           << n.name << "'";
        list("ins", n.ins);
        list("outs", n.outs);
        list("inRegs", n.inputRegs);
        list("outRegs", n.outputRegs);
        os << " nRegs=" << n.nRegs << " sense=" << n.sense
           << " init=" << n.init << " level=" << n.level
           << " parkRegion=" << n.parkRegion << " keyed=" << n.keyed
           << " loop=" << n.loopDepth << " foreach=" << n.foreachDepth
           << " replicate=" << n.replicateRegion << " bulk=" << n.isBulk
           << " seed[";
        for (const sltf::Token &t : n.seed)
            os << t.barrierLevel() << ':' << t.word() << ',';
        os << "]\n";
        for (const graph::BlockOp &op : n.ops) {
            os << "  op " << static_cast<int>(op.kind) << " dst=" << op.dst
               << " a=" << op.a << " b=" << op.b << " c=" << op.c
               << " imm=" << op.imm << " dram=" << op.dram
               << " size=" << op.size
               << " elem=" << static_cast<int>(op.elem)
               << " guard=" << op.guard << '\n';
        }
    }
    for (const graph::Link &l : g.links) {
        os << "link " << l.id << " '" << l.name << "' " << l.src << "->"
           << l.dst << " vector=" << l.vector
           << " elem=" << static_cast<int>(l.elem) << '\n';
    }
    for (const graph::ReplicateInfo &r : g.replicates) {
        os << "replicate " << r.id << " x" << r.replicas
           << " live=" << r.liveValuesIn;
        list("nodes", r.nodeIds);
        os << '\n';
    }
    return os.str();
}

/**
 * Run @p passes over @p dfg as graph::runPasses does — the same sweep
 * order, cap and report, every applied pass verified and validated —
 * with nothing reused. When @p broken is given, also run every pass on
 * a copy of each revision, the lowered graph included, and append one
 * line per pass that returned 0 but changed its copy.
 */
inline graph::GraphOptReport
referenceFixpoint(graph::Dfg &dfg,
                  const std::vector<std::unique_ptr<graph::GraphPass>> &passes,
                  const graph::GraphPassOptions &opts,
                  std::vector<std::string> *broken = nullptr)
{
    constexpr int kMaxSweeps = 8; // runPasses()'s cap
    int revision = 0;
    auto checkContract = [&] {
        if (broken == nullptr)
            return;
        const std::string was = fingerprint(dfg);
        for (const auto &pass : passes) {
            graph::Dfg copy = dfg;
            if (pass->run(copy, opts) == 0 && fingerprint(copy) != was) {
                broken->push_back(pass->name() +
                                  " returned 0 but changed the graph at "
                                  "revision " +
                                  std::to_string(revision));
            }
        }
    };

    graph::GraphOptReport rep;
    rep.nodesBefore = static_cast<int>(dfg.nodes.size());
    rep.linksBefore = static_cast<int>(dfg.links.size());
    for (const auto &pass : passes)
        rep.rewrites.emplace_back(pass->name(), 0);
    checkContract();
    for (int iter = 0; iter < kMaxSweeps; ++iter) {
        int any = 0;
        for (size_t pi = 0; pi < passes.size(); ++pi) {
            const graph::TokenAccount before = graph::accountTokens(dfg);
            const int applied = passes[pi]->run(dfg, opts);
            rep.rewrites[pi].second += applied;
            any += applied;
            if (!applied)
                continue;
            dfg.verify();
            auto diags = graph::validateRewrite(
                passes[pi]->name(), before, dfg, graph::accountTokens(dfg),
                graph::analyzeValues(dfg));
            if (graph::hasErrors(diags)) {
                throw graph::ValidationError(passes[pi]->name(),
                                             std::move(diags));
            }
            ++rep.validatedPasses;
            ++revision;
            checkContract();
        }
        ++rep.iterations;
        if (!any)
            break;
    }
    rep.nodesAfter = static_cast<int>(dfg.nodes.size());
    rep.linksAfter = static_cast<int>(dfg.links.size());
    return rep;
}

} // namespace fixtures
} // namespace revet

#endif // REVET_TESTS_GRAPH_REFERENCE_FIXPOINT_HH
