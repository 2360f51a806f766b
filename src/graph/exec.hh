/**
 * @file
 * What one execution of a compiled dataflow graph reports: scheduler,
 * memory, and per-link traffic counters. The executor itself is
 * graph/bytecode.hh.
 */

#ifndef REVET_GRAPH_EXEC_HH
#define REVET_GRAPH_EXEC_HH

#include <cstdint>
#include <vector>

#include "dataflow/channel.hh"

namespace revet
{
namespace graph
{

struct ExecStats
{
    /** Working scheduler rounds (same counting rule for every
     * dataflow::Engine policy: rounds that moved at least one
     * token; the final certification pass is excluded). */
    uint64_t engineRounds = 0;
    /** Scheduler observability (see dataflow::SchedStats). */
    uint64_t schedWakeups = 0;
    uint64_t schedSteps = 0;
    uint64_t schedIdleSteps = 0;
    uint64_t schedStepsSkipped = 0;
    uint64_t schedVerifyPasses = 0;
    /** stepOnce() quanta that made progress, so bench/exec_dispatch.cc
     * can report dispatch cost per quantum. */
    uint64_t schedQuanta = 0;
    /** Cross-worker deque steals (Policy::parallel only). */
    uint64_t schedSteals = 0;
    /** Worker threads the engine used (1 for single-threaded runs). */
    uint64_t schedWorkers = 1;
    uint64_t dramReadElems = 0;
    uint64_t dramWriteElems = 0;
    uint64_t dramReadBytes = 0;
    uint64_t dramWriteBytes = 0;
    uint64_t sramAccesses = 0;
    uint64_t sramAllocs = 0;
    /** sramAllocs satisfied from a reused execution context's SRAM
     * arena (no host allocation: the slot was hoisted into the context
     * by a previous request). Nonzero only on reused
     * graph::ExecutionContext runs. */
    uint64_t sramArenaReused = 0;
    /** Elements that round-tripped through a replicate park/restore
     * pair (each element costs one SRAM write and one read, also
     * counted in sramAccesses). */
    uint64_t sramParkedElems = 0;
    /** High-water mark of simultaneously occupied park slots across
     * every park/restore pair: how big the park buffers actually had
     * to be. Ordinal-keyed parks of threads that die inside a region
     * (exit/return) are never restored; their slots are reclaimed when
     * the key stream closes the batch they entered in, so dead threads
     * can raise the peak only within their own batch. */
    uint64_t sramParkedPeak = 0;
    /** Park slots still occupied when the network drained. The keyed
     * restore's batch-close reclamation frees dead threads' slots, so
     * this is 0 for every well-formed program (the regression suite
     * pins it); nonzero means a park/restore pair leaked. */
    uint64_t sramParkedEnd = 0;
    /** Size of the executed graph (reports the optimizer's win when
     * compared against an unoptimized compile of the same program). */
    uint64_t graphNodes = 0;
    uint64_t graphLinks = 0;
    bool drained = false;
    /** Tokens that crossed each link (indexed by link id; data and
     * barriers both count — this is link traffic volume). */
    std::vector<uint64_t> linkTokens;
    /** Barrier tokens per link. */
    std::vector<uint64_t> linkBarriers;

    /** Observed data-word summary per link: concrete evidence for the
     * abstract interpreter's claims (see dataflow::Channel). A link
     * the analysis proves bottom must show dataPushed == 0; observed
     * extremes must lie within the inferred intervals; a proven
     * constant must observe allEqual with the predicted word. Empty
     * unless the run's ExecutionContext had its value watch on
     * (setValueWatch); linkTokens and linkBarriers are always
     * filled. */
    std::vector<dataflow::Channel::ValueWatch> linkValues;
};

} // namespace graph
} // namespace revet

#endif // REVET_GRAPH_EXEC_HH
