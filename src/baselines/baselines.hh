/**
 * @file
 * Table V baselines.
 *
 * GPU: an analytic V100 performance model (no GPU in this environment —
 * see DESIGN.md substitutions). It encodes the mechanisms Section VI-B
 * identifies: memory coalescing vs per-line L1 tag-check limits for long
 * per-thread scans, warp divergence for data-dependent control flow, and
 * kernel-launch overhead for multi-kernel traversals. The divergence
 * factor per workload is calibrated against the paper's reported V100
 * numbers.
 *
 * CPU: each app's one native reference kernel (apps::App::reference,
 * the same code App::verify checks against), timed over chunks of
 * threads on host threads with wall-clock timers and then verified
 * (absolute numbers depend on the host; the Revet-vs-CPU *shape* is
 * what Table V checks).
 */

#ifndef REVET_BASELINES_BASELINES_HH
#define REVET_BASELINES_BASELINES_HH

#include <string>

#include "apps/apps.hh"

namespace revet
{
namespace baselines
{

/** V100 parameters for the analytic model. */
struct GpuConfig
{
    int sms = 80;
    int lanesPerSm = 64;       ///< FP32/INT cores used per cycle
    double clockGHz = 1.53;
    double memGBs = 900.0;     ///< HBM2
    int lineBytes = 32;        ///< L1 sector
    double tagChecksPerSmPerCycle = 4.0;
    double launchMicros = 5.0; ///< kernel launch latency
    double areaMM2 = 815.0;    ///< GV100 die
};

/** Modeled V100 throughput in GB/s for @p app at @p items threads. */
double gpuThroughputGBs(const apps::App &app, uint64_t items,
                        const GpuConfig &cfg = {});

/** Measured host-CPU throughput in GB/s of @p app's reference kernel
 * on @p threads host threads (0: all); throws std::runtime_error if
 * its output fails App::verify. */
double cpuThroughputGBs(const apps::App &app, int scale,
                        int threads = 0);

} // namespace baselines
} // namespace revet

#endif // REVET_BASELINES_BASELINES_HH
