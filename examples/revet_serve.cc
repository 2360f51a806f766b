/**
 * @file
 * Batch serving demo: one cached artifact, many concurrent requests.
 *
 * Compiles a Table III application once through the global
 * ArtifactCache, then drives a batch of requests through
 * serve::serveBatch, whose workers each reuse one execution context,
 * printing the throughput/latency report and the artifact-cache and
 * context counters. Shows the serving-layer lifecycle end to end:
 *
 *   ArtifactCache::get -> CompiledArtifact (immutable, shared)
 *     -> one graph::ExecutionContext per worker (reset-and-reused)
 *       -> per-request DramImage + ExecStats
 *
 * Usage: example_revet_serve [app=murmur3] [requests=64] [workers=4]
 *                            [policy=worklist|parallel]
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "apps/apps.hh"
#include "core/serve.hh"

using namespace revet;

namespace
{

int
usage()
{
    std::fprintf(stderr, "usage: example_revet_serve [app=murmur3] "
                         "[requests=64] [workers=4] "
                         "[policy=worklist|parallel]\n");
    return 2;
}

/** @p arg as a non-negative int, or -1 when it is not one. */
int
count(const char *arg)
{
    char *end = nullptr;
    const long v = std::strtol(arg, &end, 10);
    return *arg != '\0' && *end == '\0' && v >= 0 && v <= INT_MAX
        ? static_cast<int>(v)
        : -1;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string app_name = argc > 1 ? argv[1] : "murmur3";
    const int num_requests = argc > 2 ? count(argv[2]) : 64;
    const int workers = argc > 3 ? count(argv[3]) : 4;
    const std::string policy_name = argc > 4 ? argv[4] : "worklist";

    serve::ServeOptions opts;
    opts.workers = workers;
    if (policy_name == "parallel")
        opts.policy = dataflow::Engine::Policy::parallel;
    else if (policy_name != "worklist")
        return usage();
    if (num_requests < 0 || workers < 0)
        return usage();

    const apps::App *found = nullptr;
    try {
        found = &apps::findApp(app_name);
    } catch (const std::out_of_range &) {
        return usage();
    }
    const apps::App &app = *found;

    // Compile once, share everywhere. A second get() with the same
    // (source, options) below would be a cache hit.
    auto artifact = ArtifactCache::global().get(app.source);
    std::printf("artifact: %s  nodes=%zu links=%zu fingerprint=%016llx\n",
                app.name.c_str(), artifact->bytecode().insts.size(),
                artifact->bytecode().numLinks,
                static_cast<unsigned long long>(artifact->fingerprint()));

    // Every request runs the app at a slightly different scale, so the
    // batch exercises the contexts with genuinely different inputs.
    std::vector<serve::Request> requests(num_requests);
    for (int i = 0; i < num_requests; ++i) {
        const int scale = 16 + i % 8;
        serve::Request &req = requests[i];
        req.prepare = [&app, scale, &req](lang::DramImage &dram) {
            req.args = app.generate(dram, scale);
        };
    }

    serve::BatchReport rep =
        serveBatch(artifact, requests, opts);

    std::printf("served %zu/%zu requests in %.2f ms  (%.1f req/s)\n",
                rep.succeeded, rep.results.size(), rep.wallMs,
                rep.reqPerSec);
    std::printf("latency: p50=%.3f ms  p99=%.3f ms\n", rep.p50Ms,
                rep.p99Ms);
    std::printf("contexts: created=%llu reused=%llu discarded=%llu\n",
                static_cast<unsigned long long>(rep.pool.created),
                static_cast<unsigned long long>(rep.pool.reused),
                static_cast<unsigned long long>(rep.pool.discarded));

    auto cache = ArtifactCache::global().stats();
    std::printf("artifact cache: hits=%llu misses=%llu entries=%zu\n",
                static_cast<unsigned long long>(cache.hits),
                static_cast<unsigned long long>(cache.misses),
                cache.entries);

    // Spot-verify one result against the app's reference kernel.
    for (auto &res : rep.results) {
        if (!res.ok) {
            std::fprintf(stderr, "request failed: %s\n",
                         res.error.c_str());
            return 1;
        }
    }
    if (!rep.results.empty() && rep.results[0].dram) {
        std::string err = app.verify(*rep.results[0].dram, 16);
        if (!err.empty()) {
            std::fprintf(stderr, "verify failed: %s\n", err.c_str());
            return 1;
        }
        std::printf("request 0 verified against golden output\n");
    }
    return 0;
}
