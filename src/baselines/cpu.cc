#include "baselines/baselines.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>

#include "lang/parse.hh"

namespace revet
{
namespace baselines
{

namespace
{

/** Run kernel(lo, hi) over [0, items) across hardware threads; return
 * best-of-3 seconds. */
double
timeParallel(uint64_t items, int threads,
             const std::function<void(uint64_t, uint64_t)> &kernel)
{
    if (threads <= 0)
        threads = static_cast<int>(std::thread::hardware_concurrency());
    threads = std::max(threads, 1);
    double best = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> pool;
        uint64_t chunk = (items + threads - 1) / threads;
        for (int t = 0; t < threads; ++t) {
            uint64_t lo = t * chunk;
            uint64_t hi = std::min<uint64_t>(items, lo + chunk);
            if (lo >= hi)
                break;
            pool.emplace_back([&, lo, hi] { kernel(lo, hi); });
        }
        for (auto &th : pool)
            th.join();
        double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        best = std::min(best, s);
    }
    return best;
}

} // namespace

double
cpuThroughputGBs(const apps::App &app, int scale, int threads)
{
    lang::Program prog = lang::parseAndAnalyze(app.source);
    lang::DramImage dram(prog);
    const std::vector<int32_t> args = app.generate(dram, scale);
    const double seconds = timeParallel(
        static_cast<uint64_t>(args[0]), threads,
        [&](uint64_t lo, uint64_t hi) { app.reference(dram, args, lo, hi); });
    const std::string err = app.verify(dram, scale);
    if (!err.empty())
        throw std::runtime_error(app.name +
                                 ": CPU reference output fails verify: " +
                                 err);
    return app.accountedBytes(scale) / seconds / 1e9;
}

} // namespace baselines
} // namespace revet
