#include "sim/perf.hh"

#include <algorithm>
#include <cmath>

namespace revet
{
namespace sim
{

PerfResult
modelPerformance(const graph::Dfg &dfg, const graph::ExecStats &stats,
                 const graph::ResourceReport &resources,
                 const MachineConfig &machine, uint64_t accounted_bytes,
                 const PerfOptions &opts)
{
    PerfResult out;
    const double streams =
        static_cast<double>(resources.outerParallel) *
        resources.replicateFactor;

    // ---- DRAM ------------------------------------------------------------
    double rd_bytes = static_cast<double>(stats.dramReadBytes);
    double wr_bytes = static_cast<double>(stats.dramWriteBytes);
    double seq_bytes = (rd_bytes + wr_bytes) *
        (1.0 - opts.randomAccessFraction) * opts.dramOverfetch;
    double random_elems =
        (stats.dramReadElems + stats.dramWriteElems) *
        opts.randomAccessFraction;
    // A random element touches one whole burst.
    double dram_cycles = seq_bytes / machine.dramBytesPerCycle() +
        random_elems / machine.randomBurstsPerCycle();
    if (opts.aurochsMode) {
        // No per-thread SRAM tiles: node/tile data refetches from DRAM
        // on every revisit instead of hitting the scratchpad.
        dram_cycles *= 2.5;
    }

    // ---- on-chip links ----------------------------------------------------
    // Beats per link: 16 elements/cycle on vector links, 1 on scalar;
    // the work divides across the mapped parallel pipelines.
    double link_cycles = 0;
    for (const auto &link : dfg.links) {
        if (link.id >= static_cast<int>(stats.linkTokens.size()))
            continue;
        double tokens = static_cast<double>(stats.linkTokens[link.id]);
        double beats = link.vector ? tokens / machine.lanes : tokens;
        link_cycles = std::max(link_cycles, beats / streams);
    }
    if (opts.aurochsMode) {
        // Live values cannot be parked in SRAM: every thread drags ~10
        // duplicated values through the network each trip (VI-B(c)).
        link_cycles *= 10.0;
    }

    // ---- CU pipelines -----------------------------------------------------
    // Each block processes its input stream at one vector (16 lanes) per
    // cycle; elements counted on its first input link.
    double compute_cycles = 0;
    for (const auto &node : dfg.nodes) {
        if (node.kind != graph::NodeKind::block || node.ins.empty())
            continue;
        int l = node.ins[0];
        if (l >= static_cast<int>(stats.linkTokens.size()))
            continue;
        double elems = static_cast<double>(stats.linkTokens[l]);
        int lanes = opts.aurochsMode ? 1 : machine.lanes;
        compute_cycles =
            std::max(compute_cycles, elems / lanes / streams);
    }

    // ---- MU ports -----------------------------------------------------------
    // SRAM traffic spreads across the mapped MUs (16 banks each, one
    // access per bank per cycle).
    double mu_ports = std::max(1, resources.totalMU) * machine.muBanks;
    double mu_cycles = static_cast<double>(stats.sramAccesses) / mu_ports;

    if (opts.idealDram)
        dram_cycles = 0;
    if (opts.idealSramNet) {
        link_cycles = 0;
        mu_cycles = 0;
    }

    out.dramCycles = dram_cycles;
    out.linkCycles = link_cycles;
    out.computeCycles = compute_cycles;
    out.muCycles = mu_cycles;
    out.cycles = std::max({dram_cycles, link_cycles, compute_cycles,
                           mu_cycles, 1.0});
    out.bottleneck = out.cycles == dram_cycles      ? "dram"
                     : out.cycles == link_cycles    ? "net"
                     : out.cycles == compute_cycles ? "cu"
                                                    : "mu";
    out.seconds = out.cycles / (machine.clockGHz * 1e9);
    out.gbPerSec = accounted_bytes / out.seconds / 1e9;
    out.hbmReadPct = 100.0 * (rd_bytes / machine.dramBytesPerCycle()) /
        out.cycles;
    out.hbmWritePct = 100.0 * (wr_bytes / machine.dramBytesPerCycle()) /
        out.cycles;
    return out;
}

} // namespace sim
} // namespace revet
