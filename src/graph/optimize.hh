/**
 * @file
 * DFG-level optimization framework (the graph half of Figure 8).
 *
 * lower.cc emits graphs straightforwardly — passthrough blocks at every
 * control boundary, chained 2-way fanouts, sinks on every dead link —
 * and this layer cleans them up with a pipeline of semantics-preserving
 * rewrites. Every pass must leave the graph Dfg::verify()-clean, and
 * the equivalence suites require bit-identical DRAM output against the
 * unoptimized graph and the AST interpreter (WaveCert-style validation
 * by reference execution).
 *
 * The initial suite:
 *  - constFold: in-block constant folding, algebraic identities,
 *    copy/alias forwarding, and dead-op elimination;
 *  - crossBlockConstProp: graph-level constant/copy propagation on
 *    the abstract-interpretation facts of graph/absint.hh — constants
 *    cross block boundaries as local cnst ops, always-keep filters
 *    and single-live-arm merges are spliced away, pass-through output
 *    lanes are rerouted onto the producing fanout (unless another
 *    input of the block carries memory ordering, which the lane's
 *    consumer would then stop waiting for), and provably
 *    unreachable memory effects are stripped so dead-node elimination
 *    can collapse the statically-dead arm;
 *  - copyProp: eliminate single-input mov-only (wiring) blocks — a
 *    pure splice or a fanout, never touching multi-input alignment
 *    blocks (those order memory effects, e.g. the foreach sync block);
 *  - fanoutCoalesce: fold fanout-of-fanout chains and splice
 *    degenerate 1-way fanouts into direct links;
 *  - blockFusion: merge a block whose every output feeds one other
 *    block, subject to the Table II stage/buffer limits via the
 *    resource model's cost hooks (graph/resources.hh);
 *  - deadNodeElim: prune nodes whose outputs all dangle into sinks
 *    (transitively) and have no memory effects, shrinking fanouts and
 *    filter/merge bundles along the way;
 *  - replicateBufferize (Section V-C(d)): park pass-over values of a
 *    replicate region in SRAM so the region's distribution and
 *    collection trees do not have to carry them. Order-preserving
 *    regions get positional FIFO park/restore detours on their
 *    crossing links; thread-reordering (but 1:1) regions — a while or
 *    if body whose filters/merges emit threads out of entry order —
 *    get ordinal-keyed parking: each pure ride lane's value is parked
 *    under its arrival index, one ride path per exit point is
 *    repurposed as an ordinal lane fed by a thread-enumerating
 *    ordinal node, and every restore becomes an associative lookup
 *    keyed by the ordinal stream emerging at the region exit. The
 *    pass refuses values entangled with another region (nesting),
 *    thread-multiplying regions (a fork's counter/broadcast
 *    machinery), and bails on regions whose park count exceeds the
 *    Table II MU bank budget (Dfg::replicateParkedValues counts the
 *    pairs a region ends up with);
 *  - subwordPack (Section V-B(d)): share 32-bit lanes between narrow
 *    (i8/i16/bool) streams entering the same fwdMerge/fbMerge, with
 *    mask/shift pack blocks on both input bundles and an unpack block
 *    on the merged output.
 *
 * Further graph rewrites plug in by implementing GraphPass and
 * appending to the pipeline.
 */

#ifndef REVET_GRAPH_OPTIMIZE_HH
#define REVET_GRAPH_OPTIMIZE_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/dfg.hh"
#include "sim/machine.hh"

namespace revet
{
namespace graph
{

/** Optimizer configuration, owned by core::CompileOptions. The
 * pipeline itself is fixed (makeDefaultPasses); runPasses() always
 * verifies and translation-validates every applied rewrite. */
struct GraphPassOptions
{
    bool enable = true; ///< master switch (off: lowered graph untouched)
    /** The two Section V rewrites the Figure 12 ablation turns off. */
    bool replicateBufferize = true;
    bool subwordPack = true;
    /** Table II limits consulted by blockFusion's cost hooks and by
     * replicateBufferize's per-region SRAM park budget (muBanks). */
    sim::MachineConfig machine;
};

/**
 * One graph rewrite. Implementations must keep the graph consistent
 * (verify()-clean) and semantics-preserving: same DRAM output for any
 * input under any engine scheduling policy.
 */
class GraphPass
{
  public:
    virtual ~GraphPass() = default;

    virtual std::string name() const = 0;

    /**
     * Rewrite @p dfg in place. The result must be a deterministic
     * function of the graph and @p opts, and a run that returns 0 must
     * leave the graph untouched: runPasses() relies on both to reuse
     * one revision's facts across passes and to skip a pass that
     * already found nothing in the current graph.
     * @return the number of rewrites applied (0 = already at fixpoint).
     */
    virtual int run(Dfg &dfg, const GraphPassOptions &opts) = 0;
};

/** What the optimizer did, for stats/bench reporting. */
struct GraphOptReport
{
    int nodesBefore = 0, nodesAfter = 0;
    int linksBefore = 0, linksAfter = 0;
    int iterations = 0;
    /** Pass applications certified by translation validation. */
    int validatedPasses = 0;
    /** Per-pass rewrite totals, in pipeline order. */
    std::vector<std::pair<std::string, int>> rewrites;

    std::string summary() const;
};

/** Individual pass factories (the per-pass test matrices build
 * one-pass pipelines from these). */
std::unique_ptr<GraphPass> makeConstFoldPass();
std::unique_ptr<GraphPass> makeCrossBlockConstPropPass();
std::unique_ptr<GraphPass> makeCopyPropPass();
std::unique_ptr<GraphPass> makeFanoutCoalescePass();
std::unique_ptr<GraphPass> makeBlockFusionPass();
std::unique_ptr<GraphPass> makeDeadNodeElimPass();
std::unique_ptr<GraphPass> makeReplicateBufferizePass();
std::unique_ptr<GraphPass> makeSubwordPackPass();

/** The default pipeline, in its fixed order, minus the Section V
 * rewrites @p opts turns off. */
std::vector<std::unique_ptr<GraphPass>>
makeDefaultPasses(const GraphPassOptions &opts);

/**
 * Run @p passes over @p dfg to fixpoint (at most 8 sweeps). After
 * every applied pass the graph is Dfg::verify()-checked and
 * WaveCert-style translation-validated (graph/analyze.hh): token
 * production/consumption is accounted against the pre-pass snapshot,
 * and a rewrite that broke conservation, park pairing, bundle widths,
 * or rate balance is rejected with a ValidationError.
 *
 * Each graph revision (the graph between two applied passes) is
 * accounted and value-analyzed once: the facts validation takes of
 * the graph it has just certified are the next pass's baseline and
 * the value facts of the passes that consume them, and a pass that
 * found nothing is not run again until the graph changes. The facts
 * live only for the call.
 */
GraphOptReport
runPasses(Dfg &dfg,
          const std::vector<std::unique_ptr<GraphPass>> &passes,
          const GraphPassOptions &opts);

/** Run the default pipeline (no-op when opts.enable is false). */
GraphOptReport optimize(Dfg &dfg, const GraphPassOptions &opts = {});

} // namespace graph
} // namespace revet

#endif // REVET_GRAPH_OPTIMIZE_HH
