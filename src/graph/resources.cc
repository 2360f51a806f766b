#include "graph/resources.hh"

#include <algorithm>
#include <cmath>

namespace revet
{
namespace graph
{

namespace
{

int
ceilDiv(int a, int b)
{
    return (a + b - 1) / b;
}

/** Six registers per lane per stage let several chained ops share one
 * stage slot (V-D context fusion). */
constexpr double kOpsPerStage = 6.0;

} // namespace

int
blockAluOps(const Node &node)
{
    int alu = 0;
    for (const auto &op : node.ops) {
        if (!isSramOp(op.kind) && !isDramOp(op.kind) &&
            op.kind != OpKind::cnst && op.kind != OpKind::mov) {
            ++alu;
        }
    }
    return alu;
}

double
blockStageSlots(const Node &node, const sim::MachineConfig &machine)
{
    return static_cast<double>(std::max(blockAluOps(node), 1)) /
        (machine.stages * kOpsPerStage);
}

bool
blockFusionFits(const Node &a, const Node &b, int fusedIns, int fusedOuts,
                const sim::MachineConfig &machine)
{
    if (blockAluOps(a) + blockAluOps(b) >
        machine.stages * static_cast<int>(kOpsPerStage)) {
        return false;
    }
    if (fusedIns > machine.vecBuffers + machine.scalBuffers)
        return false;
    if (fusedOuts > machine.vecOutputs + machine.scalOutputs)
        return false;
    return true;
}

ResourceReport
analyzeResources(Dfg &dfg, const sim::MachineConfig &machine,
                 const ResourceOptions &opts)
{
    ResourceReport rep;

    // ---- Section V-D(a): vector/scalar link analysis --------------------
    // Links default to vector; while-loop low-traffic edges, replicate
    // entries/exits, and the main entry map to scalar resources.
    for (auto &link : dfg.links)
        link.vector = true;
    for (auto &node : dfg.nodes) {
        if (node.kind == NodeKind::source) {
            for (int l : node.outs)
                dfg.links[l].vector = false;
        }
        // While-exit/bypass edges: rare-case paths (e.g. hash probes).
        if (node.kind == NodeKind::filter &&
            (node.name == "while.skip" || node.name == "while.exit") &&
            node.loopDepth == 0) {
            for (int l : node.outs)
                dfg.links[l].vector = false;
        }
    }
    for (const auto &link : dfg.links) {
        if (link.vector)
            ++rep.vectorLinks;
        else
            ++rep.scalarLinks;
    }

    // ---- per-node context accounting ------------------------------------
    int repl_factor = 1;
    for (const auto &region : dfg.replicates)
        repl_factor = std::max(repl_factor, region.replicas);
    if (opts.replicateOverride > 0)
        repl_factor = opts.replicateOverride;
    rep.replicateFactor = repl_factor;

    auto isInner = [&](const Node &n) {
        return !n.isBulk &&
            (n.foreachDepth > 0 || n.loopDepth > 0 ||
             n.replicateRegion >= 0);
    };

    // Small contexts fuse: stage-slots accumulate fractionally and are
    // rounded up per region (inner/outer), alongside the input-buffer
    // floor for wide blocks.
    double inner_stage_slots = 0, outer_stage_slots = 0;
    for (const auto &node : dfg.nodes) {
        bool inner = isInner(node);
        int *cu = inner ? &rep.innerCU : &rep.outerCU;
        int *mu = inner ? &rep.innerMU : &rep.outerMU;
        int *ag = inner ? &rep.innerAG : &rep.outerAG;
        switch (node.kind) {
          case NodeKind::block: {
            int sram_ops = 0, dram_ops = 0;
            for (const auto &op : node.ops) {
                if (isSramOp(op.kind))
                    ++sram_ops;
                else if (isDramOp(op.kind))
                    ++dram_ops;
            }
            // Small contexts fuse (same cost hook the graph optimizer's
            // block-fusion pass consults).
            (inner ? inner_stage_slots : outer_stage_slots) +=
                blockStageSlots(node, machine);
            // Memory ops map onto MU/AG contexts; accesses to one
            // buffer share its MU banks (V-D(b)).
            *mu += ceilDiv(sram_ops, 4);
            *ag += ceilDiv(dram_ops, 2);
            break;
          }
          case NodeKind::fwdMerge:
          case NodeKind::fbMerge: {
            // Two vector-vector merges per context; four scalar-vector.
            // The merge width is the graph's bundle width as rewritten
            // by the sub-word packing pass — narrow lanes it shared
            // into one 32-bit lane are already gone from outs.
            int width = static_cast<int>(node.outs.size());
            bool scal_side = !dfg.links[node.ins[0]].vector;
            *cu += ceilDiv(width, scal_side ? 8 : 4);
            if (node.kind == NodeKind::fbMerge) {
                // Recirculation needs thread-in-flight buffering to
                // avoid deadlock (Section V-D(b)).
                rep.deadlockMU += ceilDiv(width, 4);
            }
            break;
          }
          case NodeKind::counter:
          case NodeKind::broadcast:
          case NodeKind::filter:
          case NodeKind::reduce:
          case NodeKind::flatten:
          case NodeKind::fanout:
          case NodeKind::source:
          case NodeKind::sink:
            // Pipeline-head/tail logic: folds into adjacent contexts
            // (consumes buffers/outputs, modeled via merges above).
            break;
          case NodeKind::park:
          case NodeKind::restore:
          case NodeKind::ordinal:
            // Park buffers (and the ordinal lane keying them) are
            // charged per replicate region below (bufferMU), not per
            // node. The ordinal lane's width inside the region is
            // already real: it rides the bundles, so the merge widths
            // counted above include it.
            break;
        }
    }

    rep.innerCU += static_cast<int>(std::ceil(inner_stage_slots));
    rep.outerCU += static_cast<int>(std::ceil(outer_stage_slots));

    // ---- replicate distribution / collection (V-C(d), V-B(b)) ----------
    // Both sides of the bufferization trade-off are read off the graph
    // itself: pass-over values the replicate-bufferize pass detoured
    // through park/restore pairs cost SRAM (bufferMU); pass-over
    // values still carried — crossing links around an order-preserving
    // region, or pure ride lanes through a thread-reordering one (pass
    // disabled, budget bail, or edge-case refusal) — must instead wait
    // in the region's distribution and merge trees, costing retiming
    // buffers in every replica.
    for (const auto &region : dfg.replicates) {
        int fifo_parked = 0, keyed_parked = 0, ordinal_lanes = 0;
        for (const auto &node : dfg.nodes) {
            if (node.kind == NodeKind::park &&
                node.parkRegion == region.id) {
                ++(node.keyed ? keyed_parked : fifo_parked);
            }
            if (node.kind == NodeKind::ordinal &&
                node.parkRegion == region.id) {
                ++ordinal_lanes;
            }
        }
        int carried =
            static_cast<int>(dfg.replicatePassOverLinks(region.id).size());
        int riding =
            static_cast<int>(dfg.replicateRideLanes(region.id).size());
        int live = region.liveValuesIn + carried + riding;
        // Work distribution: one filter tree + retiming per replica;
        // collection: a forward-merge tree.
        rep.replCU += ceilDiv(region.replicas * std::max(live, 1), 4);
        rep.replMU += opts.toggles.hoistAllocators ? 1 : region.replicas;
        // A FIFO-parked value occupies one SRAM slot. A keyed park
        // additionally stores its ordinal key, and the region carries
        // one ordinal lane per exit point, so keyed slots and ordinal
        // lanes share the park buffer's banks. Values still carried or
        // riding pay the per-replica retiming fallback instead — the
        // waste bufferization exists to avoid (V-C(d)).
        rep.bufferMU += fifo_parked > 0 ? ceilDiv(fifo_parked, 4) : 0;
        rep.bufferMU += keyed_parked > 0
            ? ceilDiv(keyed_parked + ordinal_lanes, 4)
            : 0;
        rep.bufferMU +=
            carried > 0 ? ceilDiv(carried * region.replicas, 4) : 0;
        rep.bufferMU +=
            riding > 0 ? ceilDiv(riding * region.replicas, 4) : 0;
        rep.retimeMU += region.replicas; // link-retiming buffers
    }

    // ---- retiming for path-delay imbalance (V-D(b)) ---------------------
    int merges = 0;
    for (const auto &node : dfg.nodes)
        merges += node.kind == NodeKind::fwdMerge;
    rep.retimeMU += ceilDiv(merges, 2);

    // ---- outer-parallelism scaling (Table IV methodology) ---------------
    int streamCU = rep.innerCU * repl_factor + rep.replCU;
    int streamMU = (rep.innerMU + rep.deadlockMU) * repl_factor +
        rep.replMU + rep.bufferMU + rep.retimeMU;
    int streamAG = rep.innerAG * repl_factor;
    streamCU = std::max(streamCU, 1);
    streamMU = std::max(streamMU, 1);
    streamAG = std::max(streamAG, 1);

    double budgetCU = machine.targetUtilization * machine.numCU;
    double budgetMU = machine.targetUtilization * machine.numMU;
    double budgetAG = machine.targetUtilization * machine.numAG;
    int k = static_cast<int>(std::min(
        {(budgetCU - rep.outerCU) / streamCU,
         (budgetMU - rep.outerMU) / streamMU,
         (budgetAG - rep.outerAG) / streamAG}));
    rep.outerParallel = std::max(1, k);

    rep.totalCU = rep.outerCU + rep.outerParallel * streamCU;
    rep.totalMU = rep.outerMU + rep.outerParallel * streamMU;
    rep.totalAG = rep.outerAG + rep.outerParallel * streamAG;
    rep.lanesTotal =
        rep.outerParallel * repl_factor * machine.lanes;
    return rep;
}

} // namespace graph
} // namespace revet
