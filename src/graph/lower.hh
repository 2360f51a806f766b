/**
 * @file
 * HIR-to-dataflow lowering (Section V-C).
 *
 * Structured control flow becomes the streaming primitives of Section
 * III-B: basic blocks become element-wise contexts over thread bundles,
 * if statements become filter pairs + forward merges, while loops become
 * bypass filters + forward-backward merges with hierarchy-stripped
 * exits, foreach becomes counter/broadcast expansion + an additive
 * reduce, and fork becomes counter/broadcast + flatten. A per-thread
 * "thread token" stream threads through every context so that thread
 * structure exists even where no user value is live.
 *
 * Input programs must already be through passes::runPipeline (no memory
 * adapters other than SRAM).
 *
 * Lowering emits straightforwardly — a (possibly passthrough) block at
 * every control boundary, a fanout node for every copy, a sink on
 * every dead link — and leaves cleanup to the DFG optimizer
 * (graph/optimize.hh), which core::CompiledArtifact::build runs
 * between lowering and execution.
 */

#ifndef REVET_GRAPH_LOWER_HH
#define REVET_GRAPH_LOWER_HH

#include "graph/dfg.hh"
#include "lang/ast.hh"

namespace revet
{
namespace graph
{

/**
 * Lower @p program (post-pass-pipeline) to a dataflow graph.
 *
 * @throws lang::CompileError on unsupported shapes (e.g. remaining
 * memory adapters, a while body that terminates every thread).
 */
Dfg lower(const lang::Program &program);

} // namespace graph
} // namespace revet

#endif // REVET_GRAPH_LOWER_HH
