/**
 * @file
 * One-pass optimizer pipelines for the per-pass test matrices.
 *
 * The compiler always runs the default pipeline (graph::optimize); the
 * test matrices that isolate one rewrite take that one pass from
 * graph::makeDefaultPasses and hand it to graph::runPasses, which still
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

/** The per-pass configs: each default-pipeline pass by its
 * GraphPass::name(), in pipeline order, then "full". The optimizer
 * matrix (plus its "none" row) and the fuzz sweep both run this list,
 * so a pass added to the pipeline joins both. */
inline std::vector<std::string>
singlePassConfigs()
{
    std::vector<std::string> out;
    for (const auto &pass :
         graph::makeDefaultPasses(graph::GraphPassOptions{}))
        out.push_back(pass->name());
    out.push_back("full");
    return out;
}

/** The default pipeline's pass named @p name as a pipeline on its own;
 * "full" is the whole default pipeline. */
inline std::vector<std::unique_ptr<graph::GraphPass>>
singlePassPipeline(const std::string &name)
{
    auto passes = graph::makeDefaultPasses(graph::GraphPassOptions{});
    if (name == "full")
        return passes;
    for (auto &pass : passes) {
        if (pass->name() == name) {
            std::vector<std::unique_ptr<graph::GraphPass>> out;
            out.push_back(std::move(pass));
            return out;
        }
    }
    throw std::invalid_argument("no graph pass named '" + name + "'");
}

} // namespace fixtures
} // namespace revet

#endif // REVET_TESTS_GRAPH_SINGLE_PASS_HH
