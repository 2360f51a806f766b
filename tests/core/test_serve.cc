/**
 * @file
 * Serving-layer test battery: immutable artifacts, reusable execution
 * contexts, the artifact cache, and the batch harness with its
 * per-worker contexts.
 *
 * The central contract under test: serving is invisible in results.
 * Whether a request ran on a fresh context or a recycled one, alone or
 * concurrently with others on the same shared artifact, under any
 * scheduling policy — its DRAM image must be bit-identical to the AST
 * interpreter's and its per-link token/barrier counts to a worklist
 * run on a fresh context. Everything the serving layer is allowed to
 * change is in stats (arena-reuse counters, context accounting, latency).
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/apps.hh"
#include "apps/harness.hh"
#include "core/serve.hh"

#include "../graph/oracle.hh"

using namespace revet;
using dataflow::Engine;

namespace
{

using fixtures::dramBytes;

struct Oracle
{
    fixtures::DramBytes dram;
    std::vector<uint64_t> linkTokens;
    std::vector<uint64_t> linkBarriers;
};

/** The reference the serving path must match bit for bit: DRAM from
 * the AST interpreter, link counts from a worklist run on a fresh
 * context (the differential matrix separately pins those counts
 * across policies). */
Oracle
expectedRun(const CompiledArtifact &artifact, const apps::App &app,
            int scale)
{
    const fixtures::Generate generate = [&](lang::DramImage &dram) {
        return app.generate(dram, scale);
    };
    const auto run =
        fixtures::runCompiled(artifact.bytecode(), artifact.hir(),
                              generate, Engine::Policy::worklist);
    return {fixtures::interpreted(artifact, generate),
            run.stats.linkTokens, run.stats.linkBarriers};
}

/** N serving workers x K requests over one shared artifact under
 * @p policy; every request checked against expectedRun(). */
void
runConcurrentBattery(Engine::Policy policy, int engine_threads)
{
    for (const char *fixture : {"murmur3", "isipv4"}) {
        const apps::App &app = apps::findApp(fixture);
        auto artifact = CompiledArtifact::build(app.source);
        const std::vector<int> scales = {4, 9, 16, 7};
        std::map<int, Oracle> oracles;
        for (int s : scales)
            oracles.emplace(s, expectedRun(*artifact, app, s));

        constexpr int kRequests = 16;
        std::vector<serve::Request> requests(kRequests);
        std::vector<int> req_scale(kRequests);
        for (int i = 0; i < kRequests; ++i) {
            const int s = scales[i % scales.size()];
            req_scale[i] = s;
            serve::Request &req = requests[i];
            req.prepare = [&app, s, &req](lang::DramImage &dram) {
                req.args = app.generate(dram, s);
            };
        }

        serve::ServeOptions opts;
        opts.workers = 4;
        opts.policy = policy;
        opts.engineThreads = engine_threads;
        serve::BatchReport rep =
            serve::serveBatch(artifact, requests, opts);

        ASSERT_EQ(rep.failed, 0u) << fixture;
        ASSERT_EQ(rep.succeeded, static_cast<size_t>(kRequests));
        for (int i = 0; i < kRequests; ++i) {
            const serve::RequestResult &res = rep.results[i];
            ASSERT_TRUE(res.ok) << fixture << " req " << i << ": "
                                << res.error;
            ASSERT_TRUE(res.dram.has_value());
            const Oracle &want = oracles.at(req_scale[i]);
            EXPECT_EQ(dramBytes(*res.dram), want.dram)
                << fixture << " req " << i << " DRAM diverged";
            EXPECT_EQ(res.stats.linkTokens, want.linkTokens)
                << fixture << " req " << i;
            EXPECT_EQ(res.stats.linkBarriers, want.linkBarriers)
                << fixture << " req " << i;
            EXPECT_TRUE(res.stats.drained);
            EXPECT_EQ(res.stats.sramParkedEnd, 0u);
        }
        // With 4 workers the batch never needs more than 4 contexts,
        // and 16 requests guarantee recycling happened.
        EXPECT_LE(rep.pool.created, 4u) << fixture;
        EXPECT_GE(rep.pool.reused, static_cast<uint64_t>(kRequests - 4))
            << fixture;
        EXPECT_EQ(rep.pool.discarded, 0u);
    }
}

} // namespace

TEST(ServeConcurrency, BitIdenticalUnderWorklist)
{
    runConcurrentBattery(Engine::Policy::worklist, 0);
}

TEST(ServeConcurrency, BitIdenticalUnderParallel)
{
    // Serving workers *and* engine workers: 4 x 2 threads over one
    // artifact — the TSan configuration of scripts/check.sh leans on
    // this case.
    runConcurrentBattery(Engine::Policy::parallel, 2);
}

TEST(ServeConcurrency, RawThreadsShareOneArtifact)
{
    // No serveBatch machinery: bare threads, each with its own context
    // from the same artifact, hammering different scales. Guards the
    // artifact's immutability contract directly.
    const apps::App &app = apps::findApp("murmur3");
    auto artifact = CompiledArtifact::build(app.source);
    const std::vector<int> scales = {3, 8, 13, 6};
    std::map<int, Oracle> oracles;
    for (int s : scales)
        oracles.emplace(s, expectedRun(*artifact, app, s));

    constexpr int kThreads = 4;
    constexpr int kPerThread = 5;
    std::vector<std::string> failures(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            auto ctx = artifact->makeContext();
            for (int k = 0; k < kPerThread; ++k) {
                const int s = scales[(t + k) % scales.size()];
                lang::DramImage dram(artifact->hir());
                auto args = app.generate(dram, s);
                auto stats = ctx->run(dram, args);
                const Oracle &want = oracles.at(s);
                if (dramBytes(dram) != want.dram ||
                    stats.linkTokens != want.linkTokens ||
                    stats.linkBarriers != want.linkBarriers) {
                    failures[t] = "thread " + std::to_string(t) +
                                  " run " + std::to_string(k) +
                                  " diverged from oracle";
                    return;
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (const auto &f : failures)
        EXPECT_TRUE(f.empty()) << f;
}

TEST(ServeResidue, ReusedContextMatchesFreshContext)
{
    // Interleave shapes on reused contexts; every run must behave as
    // if its context were freshly built — no channel, register, arena,
    // ordinal-counter, park-occupancy or stats residue from the
    // previous request. isipv4 parks nothing; replicate-passover parks
    // its pass-over values FIFO, and the reorder-replicate pair parks
    // them under ordinal keys (the exit variant's dead threads also
    // leave slots for the keyed restore to reclaim).
    using Shaped =
        std::function<std::vector<int32_t>(lang::DramImage &, int)>;
    struct Case
    {
        std::string label;
        std::shared_ptr<const CompiledArtifact> artifact;
        Shaped generate;
        /** Scale (app) or thread count (fixture; 0 keeps its own) of
         * each reused run; the first and last agree. */
        std::vector<int> shapes;
        bool parks;
    };
    std::vector<Case> cases;
    const apps::App &app = apps::findApp("isipv4");
    cases.push_back({app.name, CompiledArtifact::build(app.source),
                     [&app](lang::DramImage &dram, int scale) {
                         return app.generate(dram, scale);
                     },
                     {6, 11, 6}, false});
    for (const auto &f : fixtures::languageFixtures()) {
        const std::string label = f.label;
        if (label != "replicate-passover" &&
            label != "reorder-replicate-passover" &&
            label != "reorder-replicate-exit")
            continue;
        // The fixture sizes its image for its own thread count n; a
        // smaller n in between is a different shape on the same image.
        const fixtures::Generate generate = f.generate;
        Shaped shaped = [generate](lang::DramImage &dram, int n) {
            auto args = generate(dram);
            if (n > 0)
                args[0] = n;
            return args;
        };
        cases.push_back({label, CompiledArtifact::build(f.source),
                         shaped, {0, 7, 0}, true});
    }
    ASSERT_EQ(cases.size(), 4u);

    struct Run
    {
        fixtures::DramBytes dram;
        graph::ExecStats stats;
    };
    auto runOnce = [](const Case &c, graph::ExecutionContext &ctx,
                      int shape) {
        lang::DramImage dram(c.artifact->hir());
        auto args = c.generate(dram, shape);
        auto stats = ctx.run(dram, args);
        return Run{dramBytes(dram), std::move(stats)};
    };

    std::vector<std::unique_ptr<graph::ExecutionContext>> reused;
    for (const Case &c : cases)
        reused.push_back(c.artifact->makeContext());
    // Round-robin over the cases, so each context's runs interleave
    // with the others'.
    std::vector<std::vector<Run>> runs(cases.size());
    for (size_t k = 0; k < 3; ++k) {
        for (size_t i = 0; i < cases.size(); ++i)
            runs[i].push_back(
                runOnce(cases[i], *reused[i], cases[i].shapes[k]));
    }

    for (size_t i = 0; i < cases.size(); ++i) {
        const Case &c = cases[i];
        auto fresh = c.artifact->makeContext();
        const Run want = runOnce(c, *fresh, c.shapes[0]);
        if (c.parks) {
            EXPECT_GT(want.stats.sramParkedElems, 0u)
                << c.label << ": the fixture no longer parks";
        }
        for (size_t k : {size_t(0), size_t(2)}) {
            const Run &got = runs[i][k];
            EXPECT_EQ(got.dram, want.dram)
                << c.label << " run " << k << " diverged";
            EXPECT_EQ(got.stats.linkTokens, want.stats.linkTokens)
                << c.label << " run " << k
                << ": link traffic accumulated across reuses";
            EXPECT_EQ(got.stats.linkBarriers, want.stats.linkBarriers)
                << c.label << " run " << k;
            EXPECT_EQ(got.stats.sramParkedPeak, want.stats.sramParkedPeak)
                << c.label << " run " << k;
            EXPECT_EQ(got.stats.dramReadElems, want.stats.dramReadElems)
                << c.label << " run " << k;
            EXPECT_EQ(got.stats.dramWriteElems, want.stats.dramWriteElems)
                << c.label << " run " << k;
        }
        // Residue invariants after every reused run: network drained,
        // all park slots returned, fresh stats object each run.
        for (const Run &r : runs[i]) {
            EXPECT_TRUE(r.stats.drained) << c.label;
            EXPECT_EQ(r.stats.sramParkedEnd, 0u) << c.label;
        }
        EXPECT_EQ(reused[i]->runsServed(), 3u) << c.label;
        EXPECT_FALSE(reused[i]->poisoned()) << c.label;
    }
}

TEST(ServeResidue, HoistedArenaReusesSlotsAcrossRequests)
{
    // Find an allocating fixture, then require that a reused context
    // serves its second request from the arena — and that the arena is
    // invisible in results.
    bool found = false;
    for (const auto &app : apps::allApps()) {
        auto artifact = CompiledArtifact::build(app.source);
        auto ctx = artifact->makeContext();
        lang::DramImage dram1(artifact->hir());
        auto args1 = app.generate(dram1, 4);
        auto first = ctx->run(dram1, args1);
        if (first.sramAllocs == 0)
            continue;
        found = true;
        EXPECT_EQ(first.sramArenaReused, 0u)
            << app.name << ": a fresh context has no arena to reuse";

        lang::DramImage dram2(artifact->hir());
        auto args2 = app.generate(dram2, 4);
        auto second = ctx->run(dram2, args2);
        EXPECT_GT(second.sramArenaReused, 0u)
            << app.name
            << ": reused context must satisfy allocs from the arena";
        EXPECT_EQ(second.sramAllocs, first.sramAllocs);
        EXPECT_EQ(dramBytes(dram1), dramBytes(dram2))
            << app.name << ": arena reuse changed results";

        // A one-shot execute() runs on a fresh context, whose arena
        // starts empty.
        lang::DramImage dram3(artifact->hir());
        auto args3 = app.generate(dram3, 4);
        EXPECT_EQ(artifact->execute(dram3, args3).sramArenaReused, 0u)
            << app.name << ": a one-shot run has no arena to reuse";

        // hoistAllocators sizes the resource model only: a context over
        // an artifact compiled with it off keeps its arena just the
        // same.
        CompileOptions nohoist;
        nohoist.graph.hoistAllocators = false;
        auto art_off = CompiledArtifact::build(app.source, nohoist);
        auto ctx_off = art_off->makeContext();
        graph::ExecStats off_stats;
        for (int run = 0; run < 2; ++run) {
            lang::DramImage dram(art_off->hir());
            auto args = app.generate(dram, 4);
            off_stats = ctx_off->run(dram, args);
        }
        EXPECT_EQ(off_stats.sramArenaReused, second.sramArenaReused)
            << app.name;
        break;
    }
    ASSERT_TRUE(found) << "no Table III app allocates SRAM; the arena "
                          "path is untested";
}

TEST(ServeResidue, HoistToggleDifferentialOverAppFixtures)
{
    // The toggle may move allocator MUs around the resource model —
    // never results.
    for (const char *fixture : {"isipv4", "murmur3", "search"}) {
        const apps::App &app = apps::findApp(fixture);
        CompileOptions on, off;
        off.graph.hoistAllocators = false;
        auto art_on = CompiledArtifact::build(app.source, on);
        auto art_off = CompiledArtifact::build(app.source, off);

        auto ctx_on = art_on->makeContext();
        auto ctx_off = art_off->makeContext();
        for (int scale : {5, 12}) {
            lang::DramImage dram_on(art_on->hir());
            auto args_on = app.generate(dram_on, scale);
            ctx_on->run(dram_on, args_on);
            lang::DramImage dram_off(art_off->hir());
            auto args_off = app.generate(dram_off, scale);
            ctx_off->run(dram_off, args_off);
            EXPECT_EQ(dramBytes(dram_on), dramBytes(dram_off))
                << fixture << " scale " << scale
                << ": hoist toggle changed results";
        }
        EXPECT_LE(art_on->resources().replMU,
                  art_off->resources().replMU)
            << fixture;
    }
    // isipv4 carries a replicate(2) region, so the resource-report
    // delta must be strict there (one allocator MU per region vs one
    // per replica) — mirrors CoreApi.GraphTogglesReachResourceModel
    // through the artifact-resident report.
    const apps::App &app = apps::findApp("isipv4");
    CompileOptions off;
    off.graph.hoistAllocators = false;
    auto art_on = CompiledArtifact::build(app.source);
    auto art_off = CompiledArtifact::build(app.source, off);
    EXPECT_LT(art_on->resources().replMU, art_off->resources().replMU);
}

TEST(ServeCache, HitMissAndKeying)
{
    auto &cache = ArtifactCache::global();
    cache.clear();
    const apps::App &app = apps::findApp("murmur3");

    auto a = cache.get(app.source);
    auto b = cache.get(app.source);
    EXPECT_EQ(a.get(), b.get()) << "same (source, options) must share "
                                   "one artifact";
    auto st = cache.stats();
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.compiles, 1u);
    EXPECT_EQ(st.entries, 1u);

    // Any option edit is a different artifact.
    CompileOptions alt;
    alt.graphOpt.replicateBufferize = false;
    auto c = cache.get(app.source, alt);
    EXPECT_NE(a.get(), c.get());
    EXPECT_NE(a->fingerprint(), c->fingerprint());
    EXPECT_NE(a->cacheKey(), c->cacheKey());

    // Any source edit is a different artifact, even a semantically
    // neutral one — the key is content, not meaning.
    auto d = cache.get(app.source + "\n");
    EXPECT_NE(a.get(), d.get());

    st = cache.stats();
    EXPECT_EQ(st.compiles, 3u);
    EXPECT_EQ(st.entries, 3u);

    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
    // Cleared cache: artifacts still alive through our shared_ptrs.
    EXPECT_GT(a->bytecode().insts.size(), 0u);
}

TEST(ServeCache, FingerprintStableAndOptionSensitive)
{
    // Stability: the hash is a pure function of (source, options).
    CompileOptions base;
    EXPECT_EQ(canonicalOptions(base), canonicalOptions(CompileOptions{}));
    EXPECT_EQ(artifactFingerprint("src", base),
              artifactFingerprint("src", CompileOptions{}));
    EXPECT_NE(artifactFingerprint("src", base),
              artifactFingerprint("src2", base));

    // Sensitivity: one field from every options sub-struct, and every
    // machine field, must land in the canonical serialization — a knob
    // missing here would alias cache entries across genuinely
    // different compiles.
    auto perturbed = [&](auto mutate) {
        CompileOptions o;
        mutate(o);
        EXPECT_NE(canonicalOptions(base), canonicalOptions(o))
            << "a perturbed field left the key unchanged: "
            << canonicalOptions(o);
        EXPECT_NE(artifactFingerprint("src", base),
                  artifactFingerprint("src", o));
    };
    perturbed([](CompileOptions &o) { o.passes.ifToSelect = false; });
    perturbed([](CompileOptions &o) {
        o.graphOpt.replicateBufferize = false;
    });
    perturbed([](CompileOptions &o) { o.graphOpt.subwordPack = false; });
    // Every machine field sizes something (resources, parks, the
    // cycle model), so each one is perturbed on its own.
    using M = sim::MachineConfig;
    for (int M::*field :
         {&M::numCU, &M::numMU, &M::numAG, &M::lanes, &M::stages,
          &M::vecBuffers, &M::scalBuffers, &M::vecBufferWords,
          &M::scalBufferWords, &M::vecOutputs, &M::scalOutputs,
          &M::muBanks, &M::muKiB, &M::burstBytes, &M::dramBanks}) {
        perturbed([field](CompileOptions &o) {
            o.graphOpt.machine.*field += 1;
        });
    }
    for (double M::*field :
         {&M::clockGHz, &M::areaMM2, &M::dramPeakGBs,
          &M::dramEfficiency, &M::tRCns, &M::targetUtilization}) {
        perturbed([field](CompileOptions &o) {
            o.graphOpt.machine.*field += 0.125;
        });
    }
    perturbed([](CompileOptions &o) {
        o.graph.hoistAllocators = false;
    });

    // Spot-pin the serialization format so accidental reorderings
    // (which silently invalidate every persisted fingerprint) show up.
    const std::string key = canonicalOptions(base);
    EXPECT_NE(key.find("hoistAllocators=1"), std::string::npos);
    EXPECT_NE(key.find("muBanks=16"), std::string::npos);
}

TEST(ServeCache, ConcurrentGetsCompileOnce)
{
    auto &cache = ArtifactCache::global();
    cache.clear();
    const apps::App &app = apps::findApp("isipv4");
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const CompiledArtifact>> got(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back(
            [&, t]() { got[t] = cache.get(app.source); });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(got[0].get(), got[t].get());
    auto st = cache.stats();
    EXPECT_EQ(st.compiles, 1u)
        << "concurrent first requests must deduplicate into one build";
    EXPECT_EQ(st.hits + st.misses, static_cast<uint64_t>(kThreads));
    cache.clear();
}

TEST(ServeCache, HarnessCompilesOncePerSourceAndOptions)
{
    // apps::runApp used to re-lower the program on every call; it now
    // routes through the artifact cache, so repeated fixture runs (the
    // table/figure benches sweep many scales) compile exactly once.
    auto &cache = ArtifactCache::global();
    cache.clear();
    const apps::App &app = apps::findApp("murmur3");
    auto r1 = apps::runApp(app, 4);
    EXPECT_TRUE(r1.verified) << r1.verifyError;
    EXPECT_EQ(cache.stats().compiles, 1u);

    auto r2 = apps::runApp(app, 9); // same source+options, new scale
    EXPECT_TRUE(r2.verified) << r2.verifyError;
    auto st = cache.stats();
    EXPECT_EQ(st.compiles, 1u)
        << "harness re-compiled an already-cached app";
    EXPECT_GE(st.hits, 1u);

    // A different machine config is different options: new artifact.
    sim::MachineConfig machine;
    machine.muBanks = 8;
    auto r3 = apps::runApp(app, 4, {}, {}, machine);
    EXPECT_TRUE(r3.verified) << r3.verifyError;
    EXPECT_EQ(cache.stats().compiles, 2u);
    cache.clear();
}

TEST(ServePool, RecyclesDiscardsAndSelfHeals)
{
    // A request with n = 0 faults mid-run (division by zero in a
    // block); any other n runs to completion.
    auto artifact = CompiledArtifact::build(R"(
        DRAM<int> out;
        void main(int n) {
          out[0] = 100 / n;
        })");
    auto runWith = [&](graph::ExecutionContext &ctx, int32_t n) {
        lang::DramImage dram(artifact->hir());
        dram.resize("out", 1);
        ctx.run(dram, {n});
        return dram.read<int32_t>("out")[0];
    };

    // Poison: the fault throws mid-run, leaving the context
    // mid-request.
    auto ctx = artifact->makeContext();
    try {
        runWith(*ctx, 0);
        ADD_FAILURE() << "a run dividing by zero did not throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("division by zero in dataflow"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(ctx->poisoned());

    // A poisoned context still self-heals on the next run (full
    // reset)...
    EXPECT_EQ(runWith(*ctx, 4), 25);
    EXPECT_FALSE(ctx->poisoned());

    // ...but a worker drops the context a run poisoned, and its next
    // request builds a fresh one.
    const std::vector<int32_t> ns = {4, 0, 5, 10};
    std::vector<serve::Request> requests(ns.size());
    for (size_t i = 0; i < ns.size(); ++i) {
        requests[i].args = {ns[i]};
        requests[i].prepare = [](lang::DramImage &dram) {
            dram.resize("out", 1);
        };
    }
    serve::ServeOptions opts;
    opts.workers = 1;
    auto rep = serve::serveBatch(artifact, requests, opts);
    ASSERT_EQ(rep.results.size(), ns.size());
    const bool ok[] = {true, false, true, true};
    const bool reused[] = {false, true, false, true};
    for (size_t i = 0; i < ns.size(); ++i) {
        EXPECT_EQ(rep.results[i].ok, ok[i]) << "request " << i;
        EXPECT_EQ(rep.results[i].contextReused, reused[i])
            << "request " << i;
    }
    ASSERT_TRUE(rep.results[2].dram && rep.results[3].dram);
    EXPECT_EQ(rep.results[2].dram->read<int32_t>("out")[0], 20);
    EXPECT_EQ(rep.results[3].dram->read<int32_t>("out")[0], 10);
    EXPECT_EQ(rep.pool.created, 2u);
    EXPECT_EQ(rep.pool.reused, 2u);
    EXPECT_EQ(rep.pool.discarded, 1u)
        << "a poisoned context served another request";
}

TEST(ServePool, MissingArgumentsIsPreflightNotPoison)
{
    // Argument-count rejection happens before any state is touched:
    // the context stays clean and reusable, unlike a mid-run throw.
    const apps::App &app = apps::findApp("murmur3");
    auto artifact = CompiledArtifact::build(app.source);
    ASSERT_GT(artifact->bytecode().numArgs, 0u);
    auto ctx = artifact->makeContext();
    lang::DramImage dram(artifact->hir());
    EXPECT_THROW(ctx->run(dram, {}), std::runtime_error);
    EXPECT_FALSE(ctx->poisoned());
    EXPECT_EQ(ctx->runsServed(), 0u);

    lang::DramImage dram2(artifact->hir());
    auto args = app.generate(dram2, 4);
    auto stats = ctx->run(dram2, args);
    EXPECT_TRUE(stats.drained);
    EXPECT_EQ(ctx->runsServed(), 1u);
}

TEST(ServeBatch, ReportAccounting)
{
    const apps::App &app = apps::findApp("isipv4");
    auto artifact = CompiledArtifact::build(app.source);
    constexpr int kRequests = 10;
    std::vector<serve::Request> requests(kRequests);
    for (int i = 0; i < kRequests; ++i) {
        serve::Request &req = requests[i];
        req.prepare = [&app, &req](lang::DramImage &dram) {
            req.args = app.generate(dram, 6);
        };
    }
    serve::ServeOptions opts;
    opts.workers = 3;
    serve::BatchReport rep = serve::serveBatch(artifact, requests, opts);

    EXPECT_EQ(rep.succeeded, static_cast<size_t>(kRequests));
    EXPECT_EQ(rep.failed, 0u);
    EXPECT_GT(rep.reqPerSec, 0.0);
    EXPECT_LE(rep.p50Ms, rep.p99Ms);
    EXPECT_GT(rep.wallMs, 0.0);
    for (const auto &res : rep.results) {
        EXPECT_GE(res.queueMs, 0.0);
        EXPECT_GE(res.execMs, 0.0);
        EXPECT_GE(res.worker, 0);
        EXPECT_LT(res.worker, 3);
        EXPECT_LE(res.queueMs + res.execMs, rep.wallMs + 1.0);
    }

    // Three workers never need more than three contexts; the other
    // requests ran on recycled ones.
    EXPECT_LE(rep.pool.created, 3u);
    EXPECT_EQ(rep.pool.created + rep.pool.reused,
              static_cast<uint64_t>(kRequests));
}

TEST(ServeBatch, RequestFailureIsIsolated)
{
    // One malformed request (missing args) must fail alone; the batch
    // and every other request complete normally.
    const apps::App &app = apps::findApp("murmur3");
    auto artifact = CompiledArtifact::build(app.source);
    constexpr int kRequests = 6;
    std::vector<serve::Request> requests(kRequests);
    for (int i = 0; i < kRequests; ++i) {
        serve::Request &req = requests[i];
        if (i == 2)
            continue; // no prepare, no args: preflight rejection
        req.prepare = [&app, &req](lang::DramImage &dram) {
            req.args = app.generate(dram, 5);
        };
    }
    serve::ServeOptions opts;
    opts.workers = 2;
    serve::BatchReport rep = serve::serveBatch(artifact, requests, opts);
    EXPECT_EQ(rep.failed, 1u);
    EXPECT_EQ(rep.succeeded, static_cast<size_t>(kRequests - 1));
    EXPECT_FALSE(rep.results[2].ok);
    EXPECT_NE(rep.results[2].error.find("arguments"), std::string::npos);
    for (int i = 0; i < kRequests; ++i) {
        if (i == 2)
            continue;
        EXPECT_TRUE(rep.results[i].ok) << rep.results[i].error;
    }
    // Preflight rejections do not poison, so nothing was discarded.
    EXPECT_EQ(rep.pool.discarded, 0u);
}
