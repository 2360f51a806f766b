/**
 * @file
 * Resource model: map a lowered dataflow graph onto the Table II machine
 * (Section V-D splitting + Table IV accounting).
 *
 * Virtual block contexts are split against the per-CU stage/buffer
 * limits; SRAM operations map to MU contexts and DRAM operations to AG
 * contexts; merges fold into downstream contexts at two vector-vector
 * (or four scalar-vector) merges per context. Replicate regions multiply
 * their inner pipelines and add distribution/collection logic, with
 * bufferization (Section V-B(b)) parking pass-over live values in SRAM.
 * The outer-parallelism factor is then chosen to fill ~70% of the
 * critical resource, reproducing the Table IV methodology.
 */

#ifndef REVET_GRAPH_RESOURCES_HH
#define REVET_GRAPH_RESOURCES_HH

#include "graph/dfg.hh"
#include "graph/options.hh"
#include "sim/machine.hh"

namespace revet
{
namespace graph
{

/** Knobs for the Figure 12 ablation (graph-level optimizations). */
struct ResourceOptions
{
    /** Canonical copy lives in core::CompileOptions; the harness plumbs
     * it through here so the three layers cannot drift. */
    GraphToggles toggles;
    int replicateOverride = 0; ///< >0: force replicate factor
};

/** One pipeline's resource footprint + the scaled totals (Table IV). */
struct ResourceReport
{
    // One outer-parallel stream (inner pipeline x replicate factor).
    int innerCU = 0, innerMU = 0, innerAG = 0;
    // Outer/tile paths (argument & result streams).
    int outerCU = 0, outerMU = 0, outerAG = 0;
    // Replicate distribution/collection overhead.
    int replCU = 0, replMU = 0;
    // Buffering MUs. bufferMU is the pass-over value cost: one SRAM
    // slot per value the replicate-bufferize pass parked (keyed parks
    // of thread-reordering regions additionally pay for the ordinal
    // lane that keys them), or per-replica retiming buffers for values
    // still carried through the region's trees — as crossing links or
    // as pure ride lanes (pass disabled or bailed).
    int deadlockMU = 0, bufferMU = 0, retimeMU = 0;

    int replicateFactor = 1;
    int outerParallel = 1; ///< streams mapped (70% target)
    int lanesTotal = 0;    ///< outerParallel x lanes x vector pipelines

    int totalCU = 0, totalMU = 0, totalAG = 0;

    /** Scalar-vs-vector link tally (Section V-D link analysis). */
    int vectorLinks = 0, scalarLinks = 0;
};

/** Analyze @p dfg against @p machine. Marks link widths in place. */
ResourceReport analyzeResources(Dfg &dfg, const sim::MachineConfig &machine,
                                const ResourceOptions &opts = {});

// ---- cost hooks shared with the graph optimizer ------------------------

/** Stage-occupying op count of a block (cnst/mov and memory ops ride
 * along for free; memory ops are MU/AG contexts, not CU stages). */
int blockAluOps(const Node &node);

/** Fractional CU stage-slot cost of one block context (V-D fusion). */
double blockStageSlots(const Node &node, const sim::MachineConfig &machine);

/**
 * True if fusing blocks @p a and @p b stays within a single CU
 * context's Table II budget: combined stage-occupying ops within one
 * context's stage capacity, and the fused node's link fan-in/fan-out
 * within the per-unit input/output buffer counts.
 */
bool blockFusionFits(const Node &a, const Node &b, int fusedIns,
                     int fusedOuts, const sim::MachineConfig &machine);

} // namespace graph
} // namespace revet

#endif // REVET_GRAPH_RESOURCES_HH
