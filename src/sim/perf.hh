/**
 * @file
 * Steady-state cycle model for compiled dataflow programs.
 *
 * Every evaluated workload is a throughput-bound stream over abundant
 * independent threads (Section VI-A), so runtime is the bottleneck
 * resource's occupancy: DRAM (bandwidth for sequential traffic,
 * bank-activation rate for random traffic), on-chip links, CU pipelines
 * (16 lanes/cycle), and MU ports. A link is charged its token count
 * (data and barriers alike) divided by the lane count on vector links,
 * and its token count on scalar links; this is not yet the SLTF wire
 * format's beat count (sltf::beatsForLink; ROADMAP item 6). Exact
 * per-link token counts come from the functional execution; outer
 * parallelism and replication divide the per-pipeline work. The
 * idealized variants reproduce Table V's D / SN / SND columns.
 */

#ifndef REVET_SIM_PERF_HH
#define REVET_SIM_PERF_HH

#include <string>

#include "graph/dfg.hh"
#include "graph/exec.hh"
#include "graph/resources.hh"
#include "sim/machine.hh"

namespace revet
{
namespace sim
{

struct PerfOptions
{
    bool idealDram = false;    ///< "D": infinite DRAM
    bool idealSramNet = false; ///< "SN": infinite on-chip links + MUs
    /** Fraction of DRAM element traffic that is random (activations). */
    double randomAccessFraction = 0.0;
    /** Sequential-traffic burst overfetch multiplier. */
    double dramOverfetch = 1.0;
    /** Aurochs mode (Section VI-B(c)): no thread-local SRAM, so live
     * values recirculate through the pipeline (x duplication factor),
     * and no nested-foreach vectorization (x lane penalty). */
    bool aurochsMode = false;
};

struct PerfResult
{
    double cycles = 0;
    double seconds = 0;
    double gbPerSec = 0;
    // bottleneck breakdown (cycles)
    double dramCycles = 0;
    double linkCycles = 0;
    double computeCycles = 0;
    double muCycles = 0;
    double hbmReadPct = 0;  ///< of peak HBM bandwidth (Table IV)
    double hbmWritePct = 0;
    std::string bottleneck;
};

/**
 * Model the runtime of one functional execution.
 *
 * @param accounted_bytes the app's input+output byte accounting, used
 *        for the reported GB/s (Section VI-A methodology).
 */
PerfResult modelPerformance(const graph::Dfg &dfg,
                            const graph::ExecStats &stats,
                            const graph::ResourceReport &resources,
                            const MachineConfig &machine,
                            uint64_t accounted_bytes,
                            const PerfOptions &opts = {});

} // namespace sim
} // namespace revet

#endif // REVET_SIM_PERF_HH
