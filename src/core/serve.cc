#include "core/serve.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

namespace revet
{
namespace serve
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Nearest-rank percentile of @p sorted (ascending, non-empty). */
double
percentile(const std::vector<double> &sorted, double p)
{
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
    const size_t idx = rank == 0 ? 0 : rank - 1;
    return sorted[std::min(idx, sorted.size() - 1)];
}

} // namespace

BatchReport
serveBatch(std::shared_ptr<const CompiledArtifact> artifact,
           const std::vector<Request> &requests, const ServeOptions &opts)
{
    if (!artifact)
        throw std::invalid_argument("serveBatch: null artifact");

    BatchReport report;
    report.results.resize(requests.size());
    if (requests.empty())
        return report;

    const int workers = std::max(
        1, std::min(opts.workers, static_cast<int>(requests.size())));
    std::vector<decltype(report.pool)> tallies(workers);

    std::atomic<size_t> next{0};
    const Clock::time_point batch_start = Clock::now();

    auto work = [&](int worker_id) {
        // The worker runs its requests one after another, so its
        // context needs no lock: built on its first request, reused for
        // the rest, and dropped after a run that leaves it poisoned
        // (threw mid-request), so the next request builds a fresh one.
        auto &tally = tallies[worker_id];
        std::unique_ptr<graph::ExecutionContext> ctx;
        for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= requests.size())
                return;
            const Request &req = requests[i];
            RequestResult &res = report.results[i];
            const Clock::time_point pickup = Clock::now();
            res.queueMs = msBetween(batch_start, pickup);
            res.worker = worker_id;
            try {
                lang::DramImage dram(artifact->hir());
                if (req.prepare)
                    req.prepare(dram);
                res.contextReused = ctx != nullptr;
                if (ctx) {
                    ++tally.reused;
                } else {
                    ++tally.created;
                    ctx = artifact->makeContext();
                }
                try {
                    res.stats = ctx->run(dram, req.args, opts.policy,
                                         opts.engineThreads);
                } catch (...) {
                    if (ctx->poisoned()) {
                        ++tally.discarded;
                        ctx.reset();
                    }
                    throw;
                }
                if (opts.keepDram)
                    res.dram.emplace(std::move(dram));
                res.ok = true;
            } catch (const std::exception &e) {
                res.ok = false;
                res.error = e.what();
            }
            res.execMs = msBetween(pickup, Clock::now());
        }
    };

    if (workers == 1) {
        work(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(workers);
        for (int w = 0; w < workers; ++w)
            threads.emplace_back(work, w);
        for (auto &t : threads)
            t.join();
    }

    report.wallMs = msBetween(batch_start, Clock::now());
    std::vector<double> latencies;
    latencies.reserve(report.results.size());
    for (const RequestResult &res : report.results) {
        latencies.push_back(res.queueMs + res.execMs);
        if (res.ok)
            ++report.succeeded;
        else
            ++report.failed;
    }
    std::sort(latencies.begin(), latencies.end());
    report.p50Ms = percentile(latencies, 50.0);
    report.p99Ms = percentile(latencies, 99.0);
    report.reqPerSec = report.wallMs > 0
                           ? static_cast<double>(requests.size()) /
                                 (report.wallMs / 1000.0)
                           : 0.0;
    for (const auto &tally : tallies) {
        report.pool.created += tally.created;
        report.pool.reused += tally.reused;
        report.pool.discarded += tally.discarded;
    }
    return report;
}

} // namespace serve
} // namespace revet
