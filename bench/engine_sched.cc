/**
 * @file
 * Gates and numbers for the dataflow engine's two scheduling policies.
 *
 * Four sections:
 *
 *  - deep: one dense 64-stage pipeline over unbounded channels under
 *    the worklist. Every stage is busy every round, so this times the
 *    worklist's bookkeeping on the graph shape where a full scan per
 *    round would already be good; the sink must see the expected
 *    stream.
 *
 *  - sparse: a load-balance region array — 64 replicated 64-stage
 *    pipelines over capacity-1 channels with all input skewed onto
 *    replica 0 (the pathological skew the Figure 14 allocator model
 *    studies). A full scan per round would step ~4k idle primitives
 *    each round; the worklist only steps the active chain. The gate is
 *    a deterministic count: the worklist must take at most half the
 *    steps of a full scan per round (steps * 2 <= steps +
 *    stepsSkipped).
 *
 *  - scaling: the same skewed region array shape with compute-weighted
 *    stages and capacity-64 channels, swept across 1/2/4/8 parallel
 *    workers against the single-threaded worklist baseline. Emits one
 *    JSON row per configuration (the CI bench artifact) and gates
 *    >= 2x speedup at 4 workers. A host with fewer than 4 hardware
 *    threads cannot measure that gate (it would time the kernel's
 *    timeslicing, not our scheduler): it prints an UNMEASURED line and
 *    a JSON row carrying the 2-worker speedup as data instead.
 *
 *  - apps: every Table III app executed under worklist and parallel
 *    with DRAM compared byte-for-byte (the bit-identity acceptance
 *    bar).
 *
 * Exits non-zero on any violated gate so CI can run it as a
 * guardrail.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.hh"
#include "core/revet.hh"
#include "dataflow/engine.hh"
#include "lang/dram_image.hh"
#include "sltf/codec.hh"

using namespace revet::dataflow;
using revet::sltf::StreamBuilder;
using revet::sltf::Word;

namespace
{

struct RunResult
{
    double ms = 0;
    uint64_t checksum = 0;
    uint64_t collected = 0;
    SchedStats sched;
    bool drained = false;
};

revet::sltf::TokenStream
inputStream(int tokens)
{
    StreamBuilder sb;
    for (int i = 0; i < tokens; ++i)
        sb.d(static_cast<Word>(i));
    sb.b(1);
    return sb;
}

/** Hash of a sink's stream: every data word, then barriers by level. */
uint64_t
streamChecksum(const revet::sltf::TokenStream &stream)
{
    uint64_t cs = 0;
    for (const auto &tok : stream)
        cs = cs * 31 +
            (tok.isData() ? tok.word() : 0x80000000u + tok.barrierLevel());
    return cs;
}

/** Run @p eng to quiescence and summarize it, with @p sink as the
 * observed output. */
RunResult
timedRun(Engine &eng, Sink *sink)
{
    auto t0 = std::chrono::steady_clock::now();
    eng.run();
    auto t1 = std::chrono::steady_clock::now();
    RunResult out;
    out.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    out.checksum = streamChecksum(sink->collected());
    out.collected = sink->collected().size();
    out.sched = eng.schedStats();
    out.drained = eng.drained();
    return out;
}

/** Append a @p stages-deep chain of +1 ElementWise stages to @p eng. */
Sink *
buildChain(Engine &eng, Channel *head, const std::string &prefix,
           int stages, size_t capacity)
{
    Channel *cur = head;
    for (int s = 0; s < stages; ++s) {
        Channel *next =
            eng.channel(prefix + ".s" + std::to_string(s), capacity);
        eng.make<ElementWise>(
            prefix + ".ew" + std::to_string(s), Bundle{cur},
            Bundle{next},
            [](const LaneRun &run) {
                for (size_t t = 0; t < run.n; ++t)
                    run.out[0][t] = run.in[0][t] + 1;
            });
        cur = next;
    }
    return eng.make<Sink>(prefix + ".sink", cur);
}

RunResult
runDeep(int stages, int tokens)
{
    Engine eng;
    Channel *head = eng.channel("deep.in");
    eng.make<Source>("deep.src", head, inputStream(tokens));
    Sink *sink = buildChain(eng, head, "deep", stages,
                            Channel::unbounded);
    return timedRun(eng, sink);
}

RunResult
runSparse(int replicas, int stages, int tokens)
{
    Engine eng;
    Sink *sink = nullptr;
    for (int r = 0; r < replicas; ++r) {
        const std::string prefix = "rgn" + std::to_string(r);
        // Capacity-1 channels model the per-stage input buffers of the
        // region array; only region 0 receives work (full skew).
        Channel *head = eng.channel(prefix + ".in", 1);
        if (r == 0)
            eng.make<Source>(prefix + ".src", head,
                             inputStream(tokens));
        Sink *s = buildChain(eng, head, prefix, stages, 1);
        if (r == 0)
            sink = s;
    }
    return timedRun(eng, sink);
}

/**
 * The thread-scaling fixture: the skewed region-array shape (replicas
 * of a deep chain, all input on region 0) with compute-weighted stages
 * — each stage runs a short LCG mix per token, modeling a region's
 * block of ALU work — and capacity-64 channels so a woken stage can
 * amortize its wakeup over a batch of tokens. Parallelism comes from
 * pipeline overlap along the active chain: with tokens streaming,
 * every stage has work, and workers steal stages off each other.
 */
RunResult
runScaling(Engine::Policy policy, int workers, int replicas, int stages,
           int tokens)
{
    Engine eng(policy);
    eng.setNumThreads(workers);
    Sink *sink = nullptr;
    for (int r = 0; r < replicas; ++r) {
        const std::string prefix = "sc" + std::to_string(r);
        Channel *cur = eng.channel(prefix + ".in", 64);
        if (r == 0)
            eng.make<Source>(prefix + ".src", cur,
                             inputStream(tokens));
        for (int s = 0; s < stages; ++s) {
            Channel *next = eng.channel(
                prefix + ".s" + std::to_string(s), 64);
            eng.make<ElementWise>(
                prefix + ".ew" + std::to_string(s), Bundle{cur},
                Bundle{next},
                [](const LaneRun &run) {
                    // Heavy enough that per-token cost is dominated by
                    // ALU work, not channel traffic: the serial
                    // channel fast path made push/pop cheap, and this
                    // gate should measure scheduler scaling, not FIFO
                    // overhead.
                    for (size_t t = 0; t < run.n; ++t) {
                        Word x = run.in[0][t];
                        for (int k = 0; k < 96; ++k)
                            x = x * 1664525u + 1013904223u;
                        run.out[0][t] = x;
                    }
                });
            cur = next;
        }
        Sink *s = eng.make<Sink>(prefix + ".sink", cur);
        if (r == 0)
            sink = s;
    }
    return timedRun(eng, sink);
}

void
printRow(const char *policy, const RunResult &r)
{
    std::printf(
        "  %-10s %9.2f ms  rounds=%-8llu steps=%-9llu idle=%-9llu "
        "wakeups=%-8llu skipped=%-10llu verify=%llu\n",
        policy, r.ms,
        static_cast<unsigned long long>(r.sched.rounds),
        static_cast<unsigned long long>(r.sched.steps),
        static_cast<unsigned long long>(r.sched.idleSteps),
        static_cast<unsigned long long>(r.sched.wakeups),
        static_cast<unsigned long long>(r.sched.stepsSkipped),
        static_cast<unsigned long long>(r.sched.verifyPasses));
}

/** One machine-readable row for the CI bench artifact. */
void
printJson(const char *fixture, const char *policy, const RunResult &r,
          double speedup_vs_worklist)
{
    std::printf(
        "{\"bench\":\"engine_sched\",\"fixture\":\"%s\","
        "\"policy\":\"%s\",\"workers\":%llu,\"ms\":%.3f,"
        "\"speedup_vs_worklist\":%.3f,\"steals\":%llu,"
        "\"quanta\":%llu,\"checksum\":%llu,\"drained\":%s}\n",
        fixture, policy,
        static_cast<unsigned long long>(r.sched.workers), r.ms,
        speedup_vs_worklist,
        static_cast<unsigned long long>(r.sched.steals),
        static_cast<unsigned long long>(r.sched.quanta),
        static_cast<unsigned long long>(r.checksum),
        r.drained ? "true" : "false");
}

/** Worklist run @p wl drained, never needed its certification
 * rescan to find work, and its sink saw inputStream(@p tokens) raised
 * by one per stage over @p stages stages. */
bool
checkWorklist(const char *label, const RunResult &wl, int tokens,
              int stages)
{
    StreamBuilder want;
    for (int i = 0; i < tokens; ++i)
        want.d(static_cast<Word>(i + stages));
    want.b(1);
    bool ok = true;
    if (!wl.drained) {
        std::printf("  FAIL(%s): engine did not drain\n", label);
        ok = false;
    }
    if (wl.checksum != streamChecksum(want) ||
        wl.collected != static_cast<uint64_t>(tokens) + 1) {
        std::printf("  FAIL(%s): sink stream differs from the expected "
                    "one\n",
                    label);
        ok = false;
    }
    if (wl.sched.missedWakeups != 0) {
        std::printf("  FAIL(%s): worklist missed %llu wakeups\n", label,
                    static_cast<unsigned long long>(
                        wl.sched.missedWakeups));
        ok = false;
    }
    return ok;
}

/** Parallel run @p pl drained with the same sink stream and the same
 * useful work (quanta) as worklist run @p wl. */
bool
checkIdentical(const char *label, const RunResult &wl,
               const RunResult &pl)
{
    bool ok = true;
    if (!pl.drained) {
        std::printf("  FAIL(%s): engine did not drain\n", label);
        ok = false;
    }
    if (wl.checksum != pl.checksum || wl.collected != pl.collected) {
        std::printf("  FAIL(%s): sink streams diverged between "
                    "policies\n",
                    label);
        ok = false;
    }
    if (wl.sched.quanta != pl.sched.quanta) {
        std::printf("  FAIL(%s): useful work diverged (%llu vs %llu "
                    "quanta)\n",
                    label,
                    static_cast<unsigned long long>(wl.sched.quanta),
                    static_cast<unsigned long long>(pl.sched.quanta));
        ok = false;
    }
    return ok;
}

/** Section 3: 1/2/4/8-worker sweep + the >= 2x @ 4 workers gate. */
bool
runScalingSweep()
{
    constexpr int replicas = 8;
    constexpr int stages = 48;
    constexpr int tokens = 1 << 14;
    const unsigned hw = std::thread::hardware_concurrency();
    bool ok = true;

    std::printf("\nengine_sched: thread-scaling sweep, %d x %d-stage "
                "skewed region array (all %d tokens on region 0, "
                "capacity-64 channels, compute-weighted stages), host "
                "hardware threads: %u\n",
                replicas, stages, tokens, hw);
    RunResult base = runScaling(Engine::Policy::worklist, 1, replicas,
                                stages, tokens);
    printRow("worklist", base);
    printJson("skewed-region-array", "worklist", base, 1.0);
    double speedup2 = 0;
    for (int workers : {1, 2, 4, 8}) {
        RunResult r = runScaling(Engine::Policy::parallel, workers,
                                 replicas, stages, tokens);
        const double speedup = base.ms / r.ms;
        std::printf("  parallel(%d)", workers);
        printRow("", r);
        printJson("skewed-region-array", "parallel", r, speedup);
        const std::string label =
            "scaling@" + std::to_string(workers);
        ok &= checkIdentical(label.c_str(), base, r);
        if (workers == 2)
            speedup2 = speedup;
        if (workers == 4) {
            if (hw < 4) {
                // Not a pass: the gate stays unmeasured here, and the
                // 2-worker speedup is what this host can report.
                std::printf("  UNMEASURED: >=2x @ 4-worker gate needs "
                            ">= 4 hardware threads (host has %u); "
                            "2-worker speedup %.2fx recorded as data\n",
                            hw, speedup2);
                std::printf(
                    "{\"bench\":\"engine_sched\",\"fixture\":"
                    "\"skewed-region-array\",\"gate\":"
                    "\"parallel@4>=2x\",\"status\":\"unmeasured\","
                    "\"hardware_threads\":%u,"
                    "\"speedup_2_workers\":%.3f}\n",
                    hw, speedup2);
            } else if (speedup < 2.0) {
                std::printf("  FAIL(scaling): parallel @ 4 workers "
                            "%.2fx below the 2x acceptance bar\n",
                            speedup);
                ok = false;
            } else {
                std::printf("  parallel @ 4 workers: %.2fx (>= 2x "
                            "required)\n",
                            speedup);
            }
        }
    }
    return ok;
}

/** Section 4: all-apps DRAM bit-identity across both policies. */
bool
runAppIdentity()
{
    using revet::CompiledArtifact;
    using revet::lang::DramImage;
    constexpr int scale = 4;
    constexpr int workers = 4;
    bool ok = true;
    std::printf("\nengine_sched: app DRAM bit-identity, worklist vs "
                "parallel @ %d workers, scale %d\n",
                workers, scale);
    for (const auto &app : revet::apps::allApps()) {
        auto prog = CompiledArtifact::build(app.source);
        std::vector<std::vector<std::vector<uint8_t>>> images;
        struct Cfg
        {
            Engine::Policy policy;
            int threads;
        };
        const Cfg cfgs[] = {{Engine::Policy::worklist, 0},
                            {Engine::Policy::parallel, workers}};
        for (const auto &cfg : cfgs) {
            DramImage dram(prog->hir());
            auto args = app.generate(dram, scale);
            prog->execute(dram, args, cfg.policy, cfg.threads);
            std::vector<std::vector<uint8_t>> bytes;
            for (int d = 0; d < dram.dramCount(); ++d)
                bytes.push_back(dram.bytes(d));
            images.push_back(std::move(bytes));
        }
        const bool identical = images[0] == images[1];
        std::printf("  %-12s %s\n", app.name.c_str(),
                    identical ? "identical" : "DIVERGED");
        std::printf("{\"bench\":\"engine_sched\",\"fixture\":"
                    "\"app:%s\",\"workers\":%d,\"identical\":%s}\n",
                    app.name.c_str(), workers,
                    identical ? "true" : "false");
        if (!identical) {
            std::printf("  FAIL(apps): %s DRAM diverged across "
                        "policies\n",
                        app.name.c_str());
            ok = false;
        }
    }
    return ok;
}

} // namespace

int
main()
{
    constexpr int stages = 64;
    constexpr int replicas = 64;
    constexpr int deep_tokens = 1 << 17;
    constexpr int sparse_tokens = 5000;
    bool ok = true;

    std::printf("engine_sched: dense 64-stage pipeline, %d tokens, "
                "unbounded channels\n",
                deep_tokens);
    RunResult deep = runDeep(stages, deep_tokens);
    printRow("worklist", deep);
    ok &= checkWorklist("deep", deep, deep_tokens, stages);

    std::printf("\nengine_sched: sparse load-balance array, %d x "
                "%d-stage regions, all %d tokens skewed to region 0, "
                "capacity-1 channels\n",
                replicas, stages, sparse_tokens);
    RunResult sparse = runSparse(replicas, stages, sparse_tokens);
    printRow("worklist", sparse);
    ok &= checkWorklist("sparse", sparse, sparse_tokens, stages);
    // steps + stepsSkipped is what scanning every process each round
    // would have stepped over the same rounds.
    const uint64_t full_scan =
        sparse.sched.steps + sparse.sched.stepsSkipped;
    std::printf("  worklist steps: %llu of %llu for a full scan per "
                "round (<= half required)\n",
                static_cast<unsigned long long>(sparse.sched.steps),
                static_cast<unsigned long long>(full_scan));
    if (sparse.sched.steps * 2 > full_scan) {
        std::printf("  FAIL(sparse): worklist stepped more than half of "
                    "a full scan per round\n");
        ok = false;
    }

    ok &= runScalingSweep();
    ok &= runAppIdentity();

    return ok ? 0 : 1;
}
