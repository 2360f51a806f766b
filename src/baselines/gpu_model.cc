#include "baselines/baselines.hh"

#include <algorithm>

namespace revet
{
namespace baselines
{

double
gpuThroughputGBs(const apps::App &app, uint64_t items,
                 const GpuConfig &cfg)
{
    const apps::GpuProfile &p = app.gpu;
    const double threads =
        static_cast<double>(items) * std::max(p.threadsPerScale, 1.0);
    const double lane_rate = cfg.sms * cfg.lanesPerSm * cfg.clockGHz * 1e9;

    // Compute: dynamic instructions serialized by divergence.
    double compute_s =
        threads * p.instrPerThread * p.divergence / lane_rate;

    // Memory: coalesced traffic is bandwidth-limited; uncoalesced
    // traffic is additionally limited by L1 tag checks (one line per
    // distinct address per thread) — the Section VI-B(b) effect that
    // penalizes long per-thread data.
    double bytes = threads * p.bytesPerThread;
    double mem_bw_s = bytes / (cfg.memGBs * 1e9);
    double mem_tag_s = 0;
    if (!p.coalesced) {
        double lines = threads * p.uniqueLinesPerThread;
        double tag_rate =
            cfg.sms * cfg.tagChecksPerSmPerCycle * cfg.clockGHz * 1e9;
        mem_tag_s = lines / tag_rate;
        mem_bw_s = std::max(
            mem_bw_s, lines * cfg.lineBytes / (cfg.memGBs * 1e9));
    }

    // Kernel launches (multi-kernel tree traversal: Section VI-B(b)).
    double launch_s = (p.kernelsPerBatch + threads * p.launchesPerItem) *
        cfg.launchMicros * 1e-6;

    double total_s =
        std::max({compute_s, mem_bw_s, mem_tag_s}) + launch_s;
    // accountedBytes(scale) is linear in scale for every app; use the
    // per-scale-unit rate times the number of scale units modeled.
    double per_unit = static_cast<double>(app.accountedBytes(1024)) /
        1024.0;
    return per_unit * static_cast<double>(items) / total_s / 1e9;
}

} // namespace baselines
} // namespace revet
