/**
 * @file
 * One-pass optimizer pipelines for the per-pass test matrices.
 *
 * The compiler always runs the default pipeline (graph::optimize); the
 * test matrices that isolate one rewrite build that one pass from its
 * make*Pass() factory and hand it to graph::runPasses, which still
 * iterates it to a fixpoint and verifies and validates every applied
 * rewrite.
 */

#ifndef REVET_TESTS_GRAPH_SINGLE_PASS_HH
#define REVET_TESTS_GRAPH_SINGLE_PASS_HH

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/optimize.hh"

namespace revet
{
namespace fixtures
{

/** The default pipeline's pass named @p name (its GraphPass::name())
 * as a pipeline on its own; "full" is the whole default pipeline. */
inline std::vector<std::unique_ptr<graph::GraphPass>>
singlePassPipeline(const std::string &name)
{
    if (name == "full")
        return graph::makeDefaultPasses(graph::GraphPassOptions{});
    using Factory = std::unique_ptr<graph::GraphPass> (*)();
    static const Factory kFactories[] = {
        graph::makeConstFoldPass,      graph::makeCrossBlockConstPropPass,
        graph::makeCopyPropPass,       graph::makeFanoutCoalescePass,
        graph::makeBlockFusionPass,    graph::makeDeadNodeElimPass,
        graph::makeReplicateBufferizePass, graph::makeSubwordPackPass,
    };
    std::vector<std::unique_ptr<graph::GraphPass>> out;
    for (Factory make : kFactories) {
        auto pass = make();
        if (pass->name() == name) {
            out.push_back(std::move(pass));
            return out;
        }
    }
    throw std::invalid_argument("no graph pass named '" + name + "'");
}

} // namespace fixtures
} // namespace revet

#endif // REVET_TESTS_GRAPH_SINGLE_PASS_HH
