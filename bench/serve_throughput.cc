/**
 * @file
 * Serving-layer gate: does serving add little over execution?
 *
 * Three modes over the same request batch (Table III fixtures, fixed
 * scale, W serving workers, one atomic work index):
 *
 *  - naive: every request parses, analyzes, optimizes, and lowers the
 *    program from scratch (CompiledArtifact::build) before running it
 *    — the cost a frontend pays without the serving layer.
 *  - cached: every request looks its program up in the process-wide
 *    ArtifactCache and runs on its serving worker's reset-and-reused
 *    graph::ExecutionContext via serve::serveBatch.
 *  - direct: the execution floor. The same requests run on contexts
 *    built before the clock starts (one per worker, reused across
 *    repetitions), without the cache or serveBatch.
 *
 * Acceptance gates (exit non-zero on violation, like exec_dispatch):
 *  - every request in every mode succeeds and the first request's
 *    DRAM output passes App::verify;
 *  - on a cold cache, the artifact cache serves exactly requests-1
 *    hits per fixture (one miss, then all hits);
 *  - warm cached serving costs at most kMaxOverhead times the direct
 *    floor: the median, over kReps alternating (direct, cached) pairs
 *    of batches per fixture and over the fixtures, of each pair's
 *    wall-time ratio. Pairing cancels the host's slow drifts, and the
 *    median drops the pairs a load spike hit. A compile per request,
 *    a context built per request, or any per-request cost of that
 *    size fails it.
 *
 * The cached/naive ratio is printed as a trend line, not gated: the
 * naive side is mostly compile, so it moves with compile speed, not
 * with serving. Emits one JSON row per (fixture, mode) for the CI
 * artifact.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
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
/** Serving workers: four, or one per hardware thread if the host has
 * fewer. More workers than cores time the OS scheduler: on a 2-vCPU
 * host at 25 pairs per fixture, the gate's median ratio spread over
 * 1.08-1.19x in 30 runs with 4 workers, 1.07-1.12x in 20 with 2. */
const int kWorkers = std::clamp(
    static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
/** Alternating (direct, cached) batch pairs per fixture: ~3 s on a
 * 2-vCPU host. At 50 pairs, one run in 100 read 1.18x at HEAD when a
 * burst of host load covered most of one fixture's pairs. */
constexpr int kReps = 100;
/** Bar on the median cached/direct wall-time ratio. Per batch, warm
 * serving adds kWorkers context builds and kRequests cache lookups:
 * 1.08-1.13x on a 2-vCPU host. A delay the size of one context build
 * per request reads 1.24-1.32x. */
constexpr double kMaxOverhead = 1.18;

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

/** Serving path: per-request ArtifactCache lookup, then the batch on
 * per-worker contexts through serveBatch. @p cold clears the cache first,
 * so the first lookup compiles. */
ModeResult
runCached(const apps::App &app, bool cold)
{
    ModeResult out;
    if (cold)
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
    // App::verify below.
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

/** Execution floor: the batch on @p contexts (one per worker, built
 * off the clock), same work index and per-request image + generate as
 * serveBatch, but no cache lookup or result bookkeeping. */
ModeResult
runDirect(const apps::App &app, const CompiledArtifact &artifact,
          std::vector<std::unique_ptr<graph::ExecutionContext>> &contexts)
{
    ModeResult out;
    std::vector<std::string> errors(kRequests);
    std::optional<lang::DramImage> first;
    std::atomic<size_t> next{0};
    std::atomic<size_t> failed{0};
    const Clock::time_point start = Clock::now();

    auto work = [&](graph::ExecutionContext &ctx) {
        for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= static_cast<size_t>(kRequests))
                return;
            try {
                lang::DramImage dram(artifact.hir());
                const auto args = app.generate(dram, kScale);
                ctx.run(dram, args);
                if (i == 0)
                    first.emplace(std::move(dram));
            } catch (const std::exception &e) {
                errors[i] = e.what();
                failed.fetch_add(1);
            }
        }
    };
    std::vector<std::thread> threads;
    for (auto &ctx : contexts)
        threads.emplace_back(work, std::ref(*ctx));
    for (auto &t : threads)
        t.join();

    out.wallMs = std::chrono::duration<double, std::milli>(Clock::now() -
                                                           start)
                     .count();
    out.reqPerSec = kRequests / (out.wallMs / 1000.0);
    out.failed = failed.load();
    for (const auto &e : errors) {
        if (!e.empty()) {
            out.firstError = e;
            break;
        }
    }
    out.verified = out.failed == 0 && first &&
                   app.verify(*first, kScale).empty();
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

/** A failed or unverified mode fails the gate. */
bool
checkMode(const std::string &fixture, const char *mode,
          const ModeResult &r)
{
    if (r.failed == 0 && r.verified)
        return true;
    std::printf("  FAIL(%s): %s mode failed=%zu (%s)\n", fixture.c_str(),
                mode, r.failed, r.firstError.c_str());
    return false;
}

} // namespace

int
main()
{
    const std::vector<std::string> fixtures = {"murmur3", "isipv4"};
    bool ok = true;
    double naive_total_ms = 0;
    double cached_total_ms = 0;
    std::vector<double> ratios; // cached / direct, one per batch pair

    std::printf("serve_throughput: cached artifact + reused contexts vs "
                "the direct execution floor and vs naive "
                "compile-per-request, %d requests, %d workers, scale %d\n",
                kRequests, kWorkers, kScale);

    for (const auto &app : apps::allApps()) {
        bool selected = false;
        for (const auto &f : fixtures)
            selected |= app.name == f;
        if (!selected)
            continue;

        ModeResult naive = runNaive(app);
        ModeResult cached = runCached(app, true);
        naive_total_ms += naive.wallMs;
        cached_total_ms += cached.wallMs;
        const double speedup =
            naive.wallMs > 0 ? naive.wallMs / cached.wallMs : 0.0;
        ok &= checkMode(app.name, "naive", naive);
        ok &= checkMode(app.name, "cached", cached);

        // Warm serving against the floor, in alternating pairs so a
        // host phase hits both sides of a pair; the JSON rows report
        // each side's best batch.
        auto artifact = ArtifactCache::global().get(app.source);
        std::vector<std::unique_ptr<graph::ExecutionContext>> contexts;
        for (int w = 0; w < kWorkers; ++w)
            contexts.push_back(artifact->makeContext());
        ModeResult direct, served;
        std::vector<double> pairs;
        for (int rep = 0; rep < kReps; ++rep) {
            ModeResult d = runDirect(app, *artifact, contexts);
            ModeResult c = runCached(app, false);
            ok &= checkMode(app.name, "direct", d);
            ok &= checkMode(app.name, "cached (warm)", c);
            pairs.push_back(c.wallMs / d.wallMs);
            if (rep == 0 || d.wallMs < direct.wallMs)
                direct = d;
            if (rep == 0 || c.wallMs < served.wallMs)
                served = c;
        }
        ratios.insert(ratios.end(), pairs.begin(), pairs.end());
        const double overhead = percentile(pairs, 50.0);

        std::printf("  %-10s best direct %8.1f req/s  best cached %8.1f "
                    "req/s (median pair %.3fx the floor)  cold cached "
                    "%8.1f req/s  naive %8.1f req/s (cold cached %.1fx "
                    "naive, hit rate %.3f)\n",
                    app.name.c_str(), direct.reqPerSec, served.reqPerSec,
                    overhead, cached.reqPerSec, naive.reqPerSec, speedup,
                    cached.cacheHitRate);
        printJson(app.name, "naive", naive, 1.0);
        printJson(app.name, "cached", cached, speedup);
        printJson(app.name, "direct", direct, 1.0);
        printJson(app.name, "cached_warm", served, 1.0 / overhead);

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

    const double overhead = percentile(ratios, 50.0);
    std::printf("  aggregate: cached serving costs %.3fx the direct floor "
                "(median of %zu batch pairs; <= %.2fx required)\n",
                overhead, ratios.size(), kMaxOverhead);
    std::printf("  trend: cold cached %.1fx naive compile-per-request "
                "(naive %.1f ms, cached %.1f ms; not gated)\n",
                naive_total_ms / cached_total_ms, naive_total_ms,
                cached_total_ms);
    if (!(overhead <= kMaxOverhead)) {
        std::printf("  FAIL(serving): cached serving costs %.3fx the "
                    "direct floor, above %.2fx\n",
                    overhead, kMaxOverhead);
        ok = false;
    }
    return ok ? 0 : 1;
}
