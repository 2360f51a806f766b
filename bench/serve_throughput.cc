/**
 * @file
 * Serving-layer throughput gate: cached artifact + pooled execution
 * contexts versus naive compile-per-request.
 *
 * Two modes over the same request batch (Table III fixtures, fixed
 * scale, W serving workers):
 *
 *  - naive: every request parses, analyzes, optimizes, and lowers the
 *    program from scratch (CompiledArtifact::build) before running it
 *    — the cost a frontend pays without the serving layer.
 *  - cached: every request looks its program up in the process-wide
 *    ArtifactCache (one compile per fixture, then pure hits) and runs
 *    on a pooled, reset-and-reused graph::ExecutionContext via
 *    serve::serveBatch.
 *
 * Acceptance gates (exit non-zero on violation, like exec_dispatch):
 *  - every request in both modes succeeds and the first request's
 *    DRAM output passes the app's golden verifier;
 *  - the artifact cache serves exactly requests-1 hits per fixture
 *    (one miss, then all hits);
 *  - aggregate cached throughput >= 5x naive throughput.
 *
 * Emits one JSON row per (fixture, mode) for the CI artifact.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hh"
#include "core/serve.hh"

using namespace revet;

namespace
{

constexpr int kScale = 16;
constexpr int kRequests = 32;
constexpr int kWorkers = 4;

using Clock = std::chrono::steady_clock;

struct ModeResult
{
    double wallMs = 0;
    double reqPerSec = 0;
    double p50Ms = 0;
    double p99Ms = 0;
    double cacheHitRate = 0; ///< cached mode only
    size_t failed = 0;
    std::string firstError;
    bool verified = false;
};

double
percentile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::min(rank == 0 ? 0 : rank - 1, v.size() - 1)];
}

/** Compile-per-request baseline: same batch shape as serveBatch (one
 * atomic work index, W threads), but each request pays a full
 * CompiledArtifact::build before executing. */
ModeResult
runNaive(const apps::App &app)
{
    ModeResult out;
    std::vector<double> latency(kRequests, 0);
    std::vector<std::string> errors(kRequests);
    std::atomic<size_t> next{0};
    std::atomic<size_t> failed{0};
    const Clock::time_point start = Clock::now();

    auto work = [&]() {
        for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= static_cast<size_t>(kRequests))
                return;
            try {
                auto prog = CompiledArtifact::build(app.source);
                lang::DramImage dram(prog->hir());
                auto args = app.generate(dram, kScale);
                auto stats = prog->execute(dram, args);
                if (i == 0)
                    errors[0] = app.verify(dram, kScale);
                (void)stats;
            } catch (const std::exception &e) {
                errors[i] = e.what();
                failed.fetch_add(1);
            }
            latency[i] = std::chrono::duration<double, std::milli>(
                             Clock::now() - start)
                             .count();
        }
    };
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w)
        threads.emplace_back(work);
    for (auto &t : threads)
        t.join();

    out.wallMs = std::chrono::duration<double, std::milli>(Clock::now() -
                                                           start)
                     .count();
    out.reqPerSec = kRequests / (out.wallMs / 1000.0);
    out.p50Ms = percentile(latency, 50.0);
    out.p99Ms = percentile(latency, 99.0);
    out.failed = failed.load();
    out.verified = out.failed == 0 && errors[0].empty();
    for (const auto &e : errors) {
        if (!e.empty()) {
            out.firstError = e;
            break;
        }
    }
    return out;
}

/** Serving path: per-request ArtifactCache lookup (one compile, then
 * hits), then the batch on pooled contexts through serveBatch. */
ModeResult
runCached(const apps::App &app)
{
    ModeResult out;
    ArtifactCache::global().clear();
    const Clock::time_point start = Clock::now();

    // The per-request cache lookups a serving frontend would issue;
    // hoisted before the batch but on the clock, so the cached mode
    // pays its lookup cost.
    std::shared_ptr<const CompiledArtifact> artifact;
    for (int i = 0; i < kRequests; ++i)
        artifact = ArtifactCache::global().get(app.source);

    std::vector<serve::Request> requests(kRequests);
    for (int i = 0; i < kRequests; ++i) {
        serve::Request &req = requests[i];
        req.prepare = [&app, &req](lang::DramImage &dram) {
            req.args = app.generate(dram, kScale);
        };
    }
    // keepDram stays on (the default): the first request's image feeds
    // the golden verifier below.
    serve::ServeOptions opts;
    opts.workers = kWorkers;
    serve::BatchReport rep = serve::serveBatch(artifact, requests, opts);

    out.wallMs = std::chrono::duration<double, std::milli>(Clock::now() -
                                                           start)
                     .count();
    out.reqPerSec = kRequests / (out.wallMs / 1000.0);
    out.p50Ms = rep.p50Ms;
    out.p99Ms = rep.p99Ms;
    out.failed = rep.failed;
    for (const auto &res : rep.results) {
        if (!res.ok) {
            out.firstError = res.error;
            break;
        }
    }
    auto cache = ArtifactCache::global().stats();
    out.cacheHitRate =
        cache.hits + cache.misses == 0
            ? 0.0
            : static_cast<double>(cache.hits) /
                  static_cast<double>(cache.hits + cache.misses);
    out.verified = false;
    if (rep.failed == 0 && !rep.results.empty() && rep.results[0].dram)
        out.verified = app.verify(*rep.results[0].dram, kScale).empty();
    return out;
}

void
printJson(const std::string &fixture, const char *mode,
          const ModeResult &r, double speedup)
{
    std::printf("{\"bench\":\"serve_throughput\",\"fixture\":\"%s\","
                "\"mode\":\"%s\",\"requests\":%d,\"workers\":%d,"
                "\"scale\":%d,\"wall_ms\":%.2f,\"req_per_sec\":%.1f,"
                "\"p50_ms\":%.3f,\"p99_ms\":%.3f,"
                "\"cache_hit_rate\":%.4f,\"speedup\":%.2f}\n",
                fixture.c_str(), mode, kRequests, kWorkers, kScale,
                r.wallMs, r.reqPerSec, r.p50Ms, r.p99Ms, r.cacheHitRate,
                speedup);
}

} // namespace

int
main()
{
    const std::vector<std::string> fixtures = {"murmur3", "isipv4"};
    bool ok = true;
    double naive_total_ms = 0;
    double cached_total_ms = 0;

    std::printf("serve_throughput: naive compile-per-request vs cached "
                "artifact + pooled contexts, %d requests, %d workers, "
                "scale %d\n",
                kRequests, kWorkers, kScale);

    for (const auto &app : apps::allApps()) {
        bool selected = false;
        for (const auto &f : fixtures)
            selected |= app.name == f;
        if (!selected)
            continue;

        ModeResult naive = runNaive(app);
        ModeResult cached = runCached(app);
        naive_total_ms += naive.wallMs;
        cached_total_ms += cached.wallMs;
        const double speedup =
            naive.wallMs > 0 ? naive.wallMs / cached.wallMs : 0.0;

        std::printf("  %-10s naive %8.1f req/s  cached %8.1f req/s  "
                    "(%.1fx, hit rate %.3f)\n",
                    app.name.c_str(), naive.reqPerSec, cached.reqPerSec,
                    speedup, cached.cacheHitRate);
        printJson(app.name, "naive", naive, 1.0);
        printJson(app.name, "cached", cached, speedup);

        if (naive.failed || !naive.verified) {
            std::printf("  FAIL(%s): naive mode failed=%zu (%s)\n",
                        app.name.c_str(), naive.failed,
                        naive.firstError.c_str());
            ok = false;
        }
        if (cached.failed || !cached.verified) {
            std::printf("  FAIL(%s): cached mode failed=%zu (%s)\n",
                        app.name.c_str(), cached.failed,
                        cached.firstError.c_str());
            ok = false;
        }
        const double expected_hits =
            static_cast<double>(kRequests - 1) / kRequests;
        if (cached.cacheHitRate < expected_hits - 1e-9) {
            std::printf("  FAIL(%s): cache hit rate %.4f below the "
                        "one-miss-then-hits %.4f\n",
                        app.name.c_str(), cached.cacheHitRate,
                        expected_hits);
            ok = false;
        }
    }

    const double speedup = naive_total_ms / cached_total_ms;
    std::printf("  aggregate: naive %.1f ms, cached %.1f ms — %.1fx "
                "(>= 5x required)\n",
                naive_total_ms, cached_total_ms, speedup);
    if (speedup < 5.0) {
        std::printf("  FAIL(throughput): %.1fx below the 5x "
                    "cached-serving bar\n",
                    speedup);
        ok = false;
    }
    return ok ? 0 : 1;
}
