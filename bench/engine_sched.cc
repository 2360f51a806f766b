/**
 * @file
 * A/B comparison of the dataflow engine's scheduling policies.
 *
 * Four sections, all over identical graphs and inputs per section:
 *
 *  - deep: one dense 64-stage pipeline over unbounded channels under
 *    roundRobin vs worklist. Every stage is busy every round, so this
 *    bounds the worklist's bookkeeping overhead on graphs where
 *    round-robin is already good.
 *
 *  - sparse: a load-balance region array — 64 replicated 64-stage
 *    pipelines over capacity-1 channels with all input skewed onto
 *    replica 0 (the pathological skew the Figure 14 allocator model
 *    studies). Round-robin rescans ~4k idle primitives per round;
 *    the worklist only steps the active chain.
 *
 *  - scaling: the same skewed region array shape with compute-weighted
 *    stages and capacity-64 channels, swept across 1/2/4/8 parallel
 *    workers against the single-threaded worklist baseline. Emits one
 *    JSON row per configuration (the CI bench artifact) and gates
 *    >= 2x speedup at 4 workers — skipped with a note when the host
 *    has fewer than 4 hardware threads, since the gate would measure
 *    the kernel's timeslicing, not our scheduler.
 *
 *  - apps: every Table III app executed under all three policies with
 *    DRAM compared byte-for-byte (the bit-identity acceptance bar).
 *
 * The bench asserts policies produce identical sink streams and
 * identical useful work (quanta), and that the worklist is >= 2x
 * faster on the sparse topology (the ISSUE 2 acceptance bar). Exits
 * non-zero on violation so CI can run it as a guardrail.
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
            [](const std::vector<Word> &in, std::vector<Word> &out) {
                out.push_back(in[0] + 1);
            });
        cur = next;
    }
    return eng.make<Sink>(prefix + ".sink", cur);
}

RunResult
runDeep(Engine::Policy policy, int stages, int tokens)
{
    Engine eng(policy);
    Channel *head = eng.channel("deep.in");
    eng.make<Source>("deep.src", head, inputStream(tokens));
    Sink *sink = buildChain(eng, head, "deep", stages,
                            Channel::unbounded);
    auto t0 = std::chrono::steady_clock::now();
    eng.run();
    auto t1 = std::chrono::steady_clock::now();
    RunResult out;
    out.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    for (const auto &tok : sink->collected())
        out.checksum = out.checksum * 31 +
            (tok.isData() ? tok.word() : 0x80000000u + tok.barrierLevel());
    out.collected = sink->collected().size();
    out.sched = eng.schedStats();
    out.drained = eng.drained();
    return out;
}

RunResult
runSparse(Engine::Policy policy, int replicas, int stages, int tokens)
{
    Engine eng(policy);
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
    auto t0 = std::chrono::steady_clock::now();
    eng.run();
    auto t1 = std::chrono::steady_clock::now();
    RunResult out;
    out.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    for (const auto &tok : sink->collected())
        out.checksum = out.checksum * 31 +
            (tok.isData() ? tok.word() : 0x80000000u + tok.barrierLevel());
    out.collected = sink->collected().size();
    out.sched = eng.schedStats();
    out.drained = eng.drained();
    return out;
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
                [](const std::vector<Word> &in,
                   std::vector<Word> &out) {
                    Word x = in[0];
                    // Heavy enough that per-token cost is dominated by
                    // ALU work, not channel traffic: the serial
                    // channel fast path made push/pop cheap, and this
                    // gate should measure scheduler scaling, not FIFO
                    // overhead.
                    for (int k = 0; k < 96; ++k)
                        x = x * 1664525u + 1013904223u;
                    out.push_back(x);
                });
            cur = next;
        }
        Sink *s = eng.make<Sink>(prefix + ".sink", cur);
        if (r == 0)
            sink = s;
    }
    auto t0 = std::chrono::steady_clock::now();
    eng.run();
    auto t1 = std::chrono::steady_clock::now();
    RunResult out;
    out.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    for (const auto &tok : sink->collected())
        out.checksum = out.checksum * 31 +
            (tok.isData() ? tok.word() : 0x80000000u + tok.barrierLevel());
    out.collected = sink->collected().size();
    out.sched = eng.schedStats();
    out.drained = eng.drained();
    return out;
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

bool
checkIdentical(const char *label, const RunResult &rr,
               const RunResult &wl)
{
    bool ok = true;
    if (!rr.drained || !wl.drained) {
        std::printf("  FAIL(%s): engine did not drain\n", label);
        ok = false;
    }
    if (rr.checksum != wl.checksum || rr.collected != wl.collected) {
        std::printf("  FAIL(%s): sink streams diverged between "
                    "policies\n",
                    label);
        ok = false;
    }
    if (rr.sched.quanta != wl.sched.quanta) {
        std::printf("  FAIL(%s): useful work diverged (%llu vs %llu "
                    "quanta)\n",
                    label,
                    static_cast<unsigned long long>(rr.sched.quanta),
                    static_cast<unsigned long long>(wl.sched.quanta));
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
        if (workers == 4) {
            if (hw < 4) {
                std::printf("  SKIP: >=2x @ 4-worker gate needs >= 4 "
                            "hardware threads (host has %u); measured "
                            "%.2fx informationally\n",
                            hw, speedup);
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

/** Section 4: all-apps DRAM bit-identity across the three policies. */
bool
runAppIdentity()
{
    using revet::CompiledArtifact;
    using revet::lang::DramImage;
    constexpr int scale = 4;
    constexpr int workers = 4;
    bool ok = true;
    std::printf("\nengine_sched: app DRAM bit-identity, all policies "
                "(parallel @ %d workers, scale %d)\n",
                workers, scale);
    for (const auto &app : revet::apps::allApps()) {
        auto prog = CompiledArtifact::build(app.source);
        std::vector<std::vector<std::vector<uint8_t>>> images;
        struct Cfg
        {
            Engine::Policy policy;
            int threads;
        };
        const Cfg cfgs[] = {{Engine::Policy::roundRobin, 0},
                            {Engine::Policy::worklist, 0},
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
        const bool identical =
            images[0] == images[1] && images[1] == images[2];
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
    RunResult deep_rr = runDeep(Engine::Policy::roundRobin, stages,
                                deep_tokens);
    RunResult deep_wl = runDeep(Engine::Policy::worklist, stages,
                                deep_tokens);
    printRow("roundRobin", deep_rr);
    printRow("worklist", deep_wl);
    std::printf("  worklist speedup: %.2fx (dense — parity expected)\n",
                deep_rr.ms / deep_wl.ms);
    ok &= checkIdentical("deep", deep_rr, deep_wl);

    std::printf("\nengine_sched: sparse load-balance array, %d x "
                "%d-stage regions, all %d tokens skewed to region 0, "
                "capacity-1 channels\n",
                replicas, stages, sparse_tokens);
    RunResult sparse_rr = runSparse(Engine::Policy::roundRobin,
                                    replicas, stages, sparse_tokens);
    RunResult sparse_wl = runSparse(Engine::Policy::worklist, replicas,
                                    stages, sparse_tokens);
    printRow("roundRobin", sparse_rr);
    printRow("worklist", sparse_wl);
    double speedup = sparse_rr.ms / sparse_wl.ms;
    std::printf("  worklist speedup: %.2fx (>= 2x required)\n", speedup);
    ok &= checkIdentical("sparse", sparse_rr, sparse_wl);
    if (speedup < 2.0) {
        std::printf("  FAIL(sparse): worklist speedup %.2fx below the "
                    "2x acceptance bar\n",
                    speedup);
        ok = false;
    }

    ok &= runScalingSweep();
    ok &= runAppIdentity();

    return ok ? 0 : 1;
}
