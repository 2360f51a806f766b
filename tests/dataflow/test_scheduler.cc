/**
 * @file
 * Scheduler translation validation (WaveCert-style) and backpressure
 * tests.
 *
 * The equivalence suite runs every Table III app fixture and every
 * shared language fixture (tests/graph/lang_fixtures.hh) under both
 * Engine::Policy values — worklist, and parallel at 4 worker
 * threads — and asserts the executions are bit-identical — same
 * DRAM bytes, same per-link token and barrier counts, same drained
 * flag, no park slot left occupied — and that both match the AST
 * reference interpreter.
 * Kahn-network determinism says scheduling order cannot be observable;
 * these tests certify our schedulers actually keep that promise
 * (including under true concurrency). With a single executor, this
 * suite and the interpreter are the compiled path's correctness
 * oracle, so the primitives can be refactored without losing the
 * guarantee.
 *
 * The backpressure tests exercise the bounded-channel fixes: push on a
 * full channel throws (capacity 1 and the degenerate capacity 0),
 * full -> non-full transitions wake blocked producers, and stall
 * reports name internally blocked primitives even when every channel
 * is empty.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "apps/apps.hh"
#include "core/revet.hh"
#include "dataflow/engine.hh"
#include "graph/exec.hh"
#include "interp/interp.hh"
#include "lang/parse.hh"
#include "passes/passes.hh"
#include "sltf/codec.hh"

#include "../graph/lang_fixtures.hh"

using namespace revet;
using namespace revet::dataflow;
using lang::DramImage;
using revet::sltf::StreamBuilder;
using revet::sltf::TokenStream;

namespace
{

/** Both policies; parallel tests pin the worker count so the matrix
 * exercises real cross-thread traffic even when the host (or
 * REVET_NUM_THREADS) would default to 1. */
constexpr Engine::Policy kAllPolicies[] = {Engine::Policy::worklist,
                                           Engine::Policy::parallel};

constexpr int kTestWorkers = 4;

struct PolicyRun
{
    graph::ExecStats stats;
    std::vector<std::vector<uint8_t>> dram_bytes;
};

/** Execute @p prog under @p policy on a freshly generated image. */
PolicyRun
runUnderPolicy(const CompiledArtifact &prog,
               const std::function<std::vector<int32_t>(DramImage &)>
                   &generate,
               Engine::Policy policy, int num_threads = 0)
{
    PolicyRun out;
    DramImage dram(prog.hir());
    auto args = generate(dram);
    out.stats = prog.execute(dram, args, policy, num_threads);
    for (int d = 0; d < dram.dramCount(); ++d)
        out.dram_bytes.push_back(dram.bytes(d));
    return out;
}

/**
 * Compile @p source, run it under both policies plus the
 * interpreter, and assert all three agree bit-for-bit.
 */
void
expectPoliciesEquivalent(
    const std::string &source,
    const std::function<std::vector<int32_t>(DramImage &)> &generate,
    const std::string &label)
{
    auto prog = CompiledArtifact::build(source);

    DramImage ref(prog->hir());
    auto args = generate(ref);
    prog->interpret(ref, args);

    PolicyRun wl = runUnderPolicy(*prog, generate,
                                  Engine::Policy::worklist);
    PolicyRun pl = runUnderPolicy(*prog, generate,
                                  Engine::Policy::parallel,
                                  kTestWorkers);

    EXPECT_TRUE(wl.stats.drained) << label;
    EXPECT_TRUE(pl.stats.drained) << label;
    EXPECT_EQ(wl.stats.linkTokens, pl.stats.linkTokens)
        << label
        << ": per-link token counts diverged under the parallel policy";
    EXPECT_EQ(wl.stats.linkBarriers, pl.stats.linkBarriers) << label;
    // Every park slot is released by the end of the run (dead threads'
    // slots by the keyed restore's batch-close reclamation).
    EXPECT_EQ(wl.stats.sramParkedEnd, 0u) << label;
    EXPECT_EQ(pl.stats.sramParkedEnd, 0u) << label;
    ASSERT_EQ(wl.dram_bytes.size(), pl.dram_bytes.size()) << label;
    for (size_t d = 0; d < wl.dram_bytes.size(); ++d) {
        EXPECT_EQ(wl.dram_bytes[d], pl.dram_bytes[d])
            << label << ": DRAM region " << d
            << " diverged under the parallel policy";
        EXPECT_EQ(ref.bytes(static_cast<int>(d)), wl.dram_bytes[d])
            << label << ": DRAM region " << d
            << " diverged from the AST interpreter";
    }
    // The worklist path must never rely on its certification fallback:
    // a missed wakeup is a notification-wiring bug even though the
    // rescan would mask it functionally. (The parallel policy gets no
    // such assertion: benign notify-while-running races may legally
    // defer a wakeup to the certification rescan.)
    EXPECT_EQ(wl.stats.schedVerifyPasses, 1u)
        << label << ": worklist needed more than one quiescence rescan";
    // Sharding must actually have happened (no silent fallback to the
    // serial worklist on these multi-process graphs).
    EXPECT_EQ(pl.stats.schedWorkers,
              static_cast<uint64_t>(kTestWorkers))
        << label;
}

} // namespace

// ---------------------------------------------------------------------
// Equivalence: every Table III application fixture.

class SchedulerEquivalence : public ::testing::TestWithParam<std::string>
{};

TEST_P(SchedulerEquivalence, AppBitIdenticalUnderAllPolicies)
{
    const apps::App &app = apps::findApp(GetParam());
    const int scale = 4;
    expectPoliciesEquivalent(
        app.source,
        [&](DramImage &dram) { return app.generate(dram, scale); },
        app.name);

    // And the golden verifier must pass under the worklist policy...
    auto prog = CompiledArtifact::build(app.source);
    DramImage dram(prog->hir());
    auto args = app.generate(dram, scale);
    prog->execute(dram, args, Engine::Policy::worklist);
    EXPECT_EQ(app.verify(dram, scale), "") << app.name;

    // ...and under the parallel policy with real worker threads.
    DramImage pdram(prog->hir());
    auto pargs = app.generate(pdram, scale);
    prog->execute(pdram, pargs, Engine::Policy::parallel, kTestWorkers);
    EXPECT_EQ(app.verify(pdram, scale), "")
        << app.name << " (parallel)";
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, SchedulerEquivalence,
    ::testing::Values("isipv4", "ip2int", "murmur3", "hash-table",
                      "search", "huff-dec", "huff-enc", "kD-tree"),
    [](const auto &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

// ---------------------------------------------------------------------
// Equivalence: the shared language fixtures, covering every lowering
// construct (branches, loops, foreach, fork, SRAM, iterators, narrow
// lanes, and replicate regions with FIFO and ordinal-keyed parks).

TEST(SchedulerEquivalence, LanguageFixtures)
{
    for (const auto &f : fixtures::languageFixtures())
        expectPoliciesEquivalent(f.source, f.generate, f.label);
}

// ---------------------------------------------------------------------
// Worklist scheduler mechanics.

TEST(WorklistScheduler, SparsePipelineSkipsIdleStages)
{
    // 8 identical 8-stage pipelines; only pipeline 0 has input. The
    // worklist policy must not burn steps scanning the 7 idle replicas:
    // it may take at most half the steps that scanning every process
    // each round would (steps + stepsSkipped).
    constexpr int kTokens = 50;
    constexpr int kStages = 8;
    Engine e;
    Sink *sink = nullptr;
    for (int rep = 0; rep < 8; ++rep) {
        Channel *cur = e.channel("p" + std::to_string(rep) + ".in", 1);
        if (rep == 0) {
            StreamBuilder sb;
            for (int i = 0; i < kTokens; ++i)
                sb.d(i);
            sb.b(1);
            e.make<Source>("src", cur, sb.build());
        }
        for (int stage = 0; stage < kStages; ++stage) {
            Channel *next = e.channel("p" + std::to_string(rep) + ".s" +
                                          std::to_string(stage),
                                      1);
            e.make<ElementWise>(
                "ew", Bundle{cur}, Bundle{next},
                [](const std::vector<Word> &in, std::vector<Word> &out) {
                    out.push_back(in[0] + 1);
                });
            cur = next;
        }
        Sink *s = e.make<Sink>("sink", cur);
        if (rep == 0)
            sink = s;
    }
    e.run();
    EXPECT_TRUE(e.drained());
    ASSERT_NE(sink, nullptr);
    StreamBuilder want;
    for (int i = 0; i < kTokens; ++i)
        want.d(i + kStages);
    want.b(1);
    EXPECT_EQ(sink->collected(), want.build());

    const SchedStats &st = e.schedStats();
    EXPECT_EQ(st.missedWakeups, 0u);
    EXPECT_LE(st.steps * 2, st.steps + st.stepsSkipped)
        << "worklist should step far fewer primitives on a sparse graph";
    // Every token moves once through the source, each stage, and the
    // sink: one quantum per hop, no more.
    EXPECT_EQ(st.quanta,
              static_cast<uint64_t>((kTokens + 1) * (kStages + 2)));
}

TEST(WorklistScheduler, ExternalPushesBetweenRunsAreScheduled)
{
    // Re-running after out-of-band pushes (the ForwardMerge test
    // pattern) must work: run() re-seeds the ready deque.
    Engine e;
    auto *in = e.channel("in");
    auto *out = e.channel("out");
    e.make<Flatten>("flat", in, out);
    auto *sink = e.make<Sink>("sink", out);
    e.run();
    EXPECT_TRUE(sink->collected().empty());
    in->pushAll(StreamBuilder().d(5).b(2));
    e.run();
    EXPECT_EQ(sink->collected(), (TokenStream)StreamBuilder().d(5).b(1));
    EXPECT_TRUE(e.drained());
}

TEST(WorklistScheduler, QuiescingInExactlyMaxRoundsIsNotLivelock)
{
    // Regression for the off-by-one: the final no-progress pass used to
    // count as a round and trip the cap on networks that finish right
    // at max_rounds.
    Engine e;
    auto *in = e.channel("in");
    auto *out = e.channel("out");
    e.make<Source>("src", in, StreamBuilder().d(1).b(1));
    e.make<Sink>("sink", out);
    e.make<Flatten>("flat", in, out);
    // First measure the exact working-round count...
    uint64_t rounds = 0;
    {
        Engine m;
        auto *mi = m.channel("in");
        auto *mo = m.channel("out");
        m.make<Source>("src", mi, StreamBuilder().d(1).b(1));
        m.make<Sink>("sink", mo);
        m.make<Flatten>("flat", mi, mo);
        rounds = m.run();
    }
    ASSERT_GT(rounds, 0u);
    // ...then a cap of exactly that count must succeed.
    EXPECT_EQ(e.run(rounds), rounds);
    EXPECT_TRUE(e.drained());
}

TEST(WorklistScheduler, LivelockMessageNamesWorkingRounds)
{
    Engine e;
    auto *a = e.channel("a");
    auto *b = e.channel("b");
    a->push(Token::data(1));
    auto passthrough = [](const std::vector<Word> &in,
                          std::vector<Word> &out) {
        out.push_back(in[0]);
    };
    e.make<ElementWise>("fwd", Bundle{a}, Bundle{b}, passthrough);
    e.make<ElementWise>("back", Bundle{b}, Bundle{a}, passthrough);
    try {
        e.run(100);
        FAIL() << "expected livelock throw";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("livelock"),
                  std::string::npos);
        EXPECT_NE(std::string(err.what()).find("tokens still moving"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Parallel scheduler mechanics: work stealing, distributed quiescence,
// and cross-thread channel traffic.

namespace
{

/** Build the skewed region-array fixture (replicas x stages pipeline
 * chains, only replica 0 fed) on @p e; returns replica 0's sink. */
Sink *
buildSkewedArray(Engine &e, int replicas, int stages, int tokens,
                 size_t capacity)
{
    Sink *sink0 = nullptr;
    for (int rep = 0; rep < replicas; ++rep) {
        Channel *cur = e.channel(
            "r" + std::to_string(rep) + ".in", capacity);
        if (rep == 0) {
            StreamBuilder sb;
            for (int i = 0; i < tokens; ++i)
                sb.d(static_cast<Word>(i));
            sb.b(1);
            e.make<Source>("src", cur, sb.build());
        }
        for (int stage = 0; stage < stages; ++stage) {
            Channel *next = e.channel(
                "r" + std::to_string(rep) + ".s" +
                    std::to_string(stage),
                capacity);
            e.make<ElementWise>(
                "ew", Bundle{cur}, Bundle{next},
                [](const std::vector<Word> &in,
                   std::vector<Word> &out) {
                    out.push_back(in[0] * 3 + 1);
                });
            cur = next;
        }
        Sink *s = e.make<Sink>("sink", cur);
        if (rep == 0)
            sink0 = s;
    }
    return sink0;
}

} // namespace

TEST(ParallelScheduler, SkewedPipelineBitIdenticalToWorklist)
{
    Engine wl(Engine::Policy::worklist);
    Sink *wl_sink = buildSkewedArray(wl, 8, 8, 200, 4);
    wl.run();
    ASSERT_TRUE(wl.drained());

    Engine pl(Engine::Policy::parallel);
    pl.setNumThreads(kTestWorkers);
    Sink *pl_sink = buildSkewedArray(pl, 8, 8, 200, 4);
    pl.run();
    EXPECT_TRUE(pl.drained());
    EXPECT_EQ(pl_sink->collected(), wl_sink->collected())
        << "parallel scheduling leaked into the token stream";
    // Useful work is schedule-independent on a merge-free chain.
    EXPECT_EQ(pl.schedStats().quanta, wl.schedStats().quanta);
    EXPECT_EQ(pl.schedStats().workers,
              static_cast<uint64_t>(kTestWorkers));
}

TEST(ParallelScheduler, RepeatedRunsAreDeterministic)
{
    TokenStream first;
    for (int trial = 0; trial < 3; ++trial) {
        Engine e(Engine::Policy::parallel);
        e.setNumThreads(kTestWorkers);
        Sink *sink = buildSkewedArray(e, 4, 6, 300, 2);
        e.run();
        ASSERT_TRUE(e.drained());
        if (trial == 0)
            first = sink->collected();
        else
            EXPECT_EQ(sink->collected(), first)
                << "trial " << trial << " diverged";
    }
}

TEST(ParallelScheduler, SmallGraphFallsBackToSerialWorklist)
{
    // One process cannot be sharded; the engine must degrade to the
    // worklist (workers == 1) rather than spin up useless threads.
    Engine e(Engine::Policy::parallel);
    e.setNumThreads(kTestWorkers);
    auto *out = e.channel("out");
    e.make<Source>("src", out, StreamBuilder().d(1).b(1));
    e.run();
    EXPECT_EQ(e.schedStats().workers, 1u);
}

TEST(ParallelScheduler, ExternalPushesBetweenRunsAreScheduled)
{
    // Parallel run state is rebuilt per run(); re-running after
    // out-of-band pushes must re-seed every worker deque.
    Engine e(Engine::Policy::parallel);
    e.setNumThreads(2);
    auto *in = e.channel("in");
    auto *out = e.channel("out");
    e.make<Flatten>("flat", in, out);
    auto *sink = e.make<Sink>("sink", out);
    e.run();
    EXPECT_TRUE(sink->collected().empty());
    in->pushAll(StreamBuilder().d(5).b(2));
    e.run();
    EXPECT_EQ(sink->collected(), (TokenStream)StreamBuilder().d(5).b(1));
    EXPECT_TRUE(e.drained());
}

TEST(ParallelScheduler, PrimitiveExceptionPropagatesFromWorker)
{
    Engine e(Engine::Policy::parallel);
    e.setNumThreads(kTestWorkers);
    auto *a = e.channel("a");
    auto *b = e.channel("b");
    auto *c = e.channel("c");
    e.make<Source>("src", a, StreamBuilder().d(7).b(1));
    e.make<ElementWise>("boom", Bundle{a}, Bundle{b},
                        [](const std::vector<Word> &,
                           std::vector<Word> &) -> void {
                            throw std::runtime_error("injected fault");
                        });
    e.make<Sink>("sink", b);
    e.make<Sink>("sink2", c);
    try {
        e.run();
        FAIL() << "expected the worker's exception to propagate";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("injected fault"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ParallelScheduler, StallReportSafeAfterParallelRun)
{
    // Satellite: stallReport after a parallel run must reflect the
    // joined workers' final state, same content as the serial report.
    Engine e(Engine::Policy::parallel);
    e.setNumThreads(kTestWorkers);
    auto *fwd = e.channel("fwd");
    auto *back = e.channel("back");
    auto *out = e.channel("out");
    e.make<Source>("src", fwd, StreamBuilder().d(1).b(1));
    e.make<FwdBackMerge>("head", Bundle{fwd}, Bundle{back},
                         Bundle{out});
    e.make<Sink>("sink", out);
    e.run();
    EXPECT_TRUE(e.drained());
    std::string report = e.stallReport();
    EXPECT_NE(report.find("stalled channels: none"), std::string::npos)
        << report;
    EXPECT_NE(report.find("head"), std::string::npos) << report;
    EXPECT_NE(report.find("mode=drain"), std::string::npos) << report;
}

TEST(ParallelScheduler, LivelockDetectedAcrossWorkers)
{
    // A two-process token cycle never quiesces; the distributed
    // progress counter must trip the cap and raise the livelock error
    // out of the worker pool.
    Engine e(Engine::Policy::parallel);
    e.setNumThreads(2);
    auto *a = e.channel("a");
    auto *b = e.channel("b");
    a->push(Token::data(1));
    auto passthrough = [](const std::vector<Word> &in,
                          std::vector<Word> &out) {
        out.push_back(in[0]);
    };
    e.make<ElementWise>("fwd", Bundle{a}, Bundle{b}, passthrough);
    e.make<ElementWise>("back", Bundle{b}, Bundle{a}, passthrough);
    try {
        e.run(100);
        FAIL() << "expected livelock throw";
    } catch (const std::runtime_error &err) {
        EXPECT_NE(std::string(err.what()).find("livelock"),
                  std::string::npos)
            << err.what();
    }
}

TEST(ParallelScheduler, ContendedCapacityOneChainsBitIdentical)
{
    // Satellite: capacity-0/1 backpressure under contention. Every
    // chain is fed (not just replica 0) and every channel holds one
    // token, so with 8 workers the full->non-full and empty->non-empty
    // edges fire constantly across threads. Results must match the
    // serial worklist chain for chain.
    constexpr int kChains = 8;
    constexpr int kStages = 6;
    constexpr int kTokens = 64;
    auto build = [&](Engine &e, std::vector<Sink *> &sinks) {
        for (int chain = 0; chain < kChains; ++chain) {
            Channel *cur = e.channel(
                "c" + std::to_string(chain) + ".in", 1);
            StreamBuilder sb;
            for (int i = 0; i < kTokens; ++i)
                sb.d(static_cast<Word>(chain * 1000 + i));
            sb.b(1);
            e.make<Source>("src", cur, sb.build());
            for (int stage = 0; stage < kStages; ++stage) {
                Channel *next = e.channel(
                    "c" + std::to_string(chain) + ".s" +
                        std::to_string(stage),
                    1);
                e.make<ElementWise>(
                    "ew", Bundle{cur}, Bundle{next},
                    [](const std::vector<Word> &in,
                       std::vector<Word> &out) {
                        out.push_back(in[0] + 1);
                    });
                cur = next;
            }
            sinks.push_back(e.make<Sink>("sink", cur));
        }
    };
    Engine wl(Engine::Policy::worklist);
    std::vector<Sink *> wl_sinks;
    build(wl, wl_sinks);
    wl.run();
    ASSERT_TRUE(wl.drained());

    Engine pl(Engine::Policy::parallel);
    pl.setNumThreads(8);
    std::vector<Sink *> pl_sinks;
    build(pl, pl_sinks);
    pl.run();
    EXPECT_TRUE(pl.drained());
    ASSERT_EQ(pl_sinks.size(), wl_sinks.size());
    for (size_t i = 0; i < wl_sinks.size(); ++i) {
        EXPECT_EQ(pl_sinks[i]->collected(), wl_sinks[i]->collected())
            << "chain " << i << " diverged under contention";
    }
    EXPECT_EQ(pl.schedStats().quanta, wl.schedStats().quanta);
}

// ---------------------------------------------------------------------
// Channel FIFO storage.

TEST(ChannelRing, KeepsFifoOrderAcrossWrapAndGrowth)
{
    // Offset the head, wrap the ring, then force a doubling while it is
    // wrapped: order, counts, and the drained remainder must survive.
    Channel ch("ring");
    Word next_in = 0;
    Word next_out = 0;
    for (int i = 0; i < 10; ++i)
        ch.push(Token::data(next_in++));
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ(ch.pop().word(), next_out++);
    for (int i = 0; i < 40; ++i) {
        ch.push(Token::data(next_in++));
        if (i % 3 == 0) {
            EXPECT_EQ(ch.pop().word(), next_out++);
        }
    }
    ch.push(Token::barrier(2));
    EXPECT_EQ(ch.front().word(), next_out);
    EXPECT_EQ(ch.size(), static_cast<size_t>(next_in - next_out) + 1);
    EXPECT_EQ(ch.totalPushed(), static_cast<uint64_t>(next_in) + 1);
    EXPECT_EQ(ch.watch().barriersPushed, 1u);

    TokenStream rest = ch.drain();
    ASSERT_EQ(rest.size(), static_cast<size_t>(next_in - next_out) + 1);
    for (size_t i = 0; i + 1 < rest.size(); ++i)
        EXPECT_EQ(rest[i].word(), next_out + static_cast<Word>(i));
    EXPECT_EQ(rest.back(), Token::barrier(2));
    EXPECT_TRUE(ch.empty());

    ch.resetForReuse();
    EXPECT_EQ(ch.totalPushed(), 0u);
    ch.push(Token::data(7));
    EXPECT_EQ(ch.pop().word(), 7u);
}

// ---------------------------------------------------------------------
// Bounded-channel backpressure.

TEST(Backpressure, PushOnFullChannelThrows)
{
    Channel ch("tight", 1);
    ch.push(Token::data(1));
    EXPECT_FALSE(ch.canPush());
    EXPECT_THROW(ch.push(Token::data(2)), std::runtime_error);
    // The failed push must not corrupt the FIFO.
    EXPECT_EQ(ch.size(), 1u);
    EXPECT_EQ(ch.pop().word(), 1u);
}

TEST(Backpressure, PopOnEmptyChannelThrows)
{
    Channel ch("empty");
    EXPECT_THROW(ch.pop(), std::runtime_error);
}

TEST(Backpressure, CapacityZeroChannelRejectsEveryPush)
{
    Channel ch("closed", 0);
    EXPECT_FALSE(ch.canPush());
    EXPECT_THROW(ch.push(Token::data(1)), std::runtime_error);
    EXPECT_TRUE(ch.empty());
}

TEST(Backpressure, CapacityOnePipelineDrainsUnderEveryPolicy)
{
    for (Engine::Policy policy : kAllPolicies) {
        Engine e(policy);
        e.setNumThreads(kTestWorkers);
        auto *a = e.channel("a", 1);
        auto *b = e.channel("b", 1);
        auto *c = e.channel("c", 1);
        StreamBuilder sb;
        for (int i = 0; i < 100; ++i)
            sb.d(i);
        sb.b(1);
        e.make<Source>("src", a, sb.build());
        e.make<ElementWise>(
            "inc", Bundle{a}, Bundle{b},
            [](const std::vector<Word> &in, std::vector<Word> &out) {
                out.push_back(in[0] + 1);
            });
        e.make<Flatten>("flat", b, c);
        auto *sink = e.make<Sink>("sink", c);
        e.run();
        EXPECT_TRUE(e.drained());
        ASSERT_EQ(sink->collected().size(), 100u);
        for (size_t i = 0; i < 100; ++i)
            EXPECT_EQ(sink->collected()[i].word(), i + 1);
    }
}

TEST(Backpressure, CapacityZeroOutputStallsWithoutLivelock)
{
    // A source feeding a capacity-0 channel can never make progress;
    // the engine must quiesce (not spin) and the stall report must name
    // the blocked source even though every channel is empty.
    for (Engine::Policy policy : kAllPolicies) {
        Engine e(policy);
        e.setNumThreads(kTestWorkers);
        auto *dead = e.channel("dead", 0);
        auto *src =
            e.make<Source>("stuckSrc", dead, StreamBuilder().d(1).b(1));
        e.run();
        EXPECT_FALSE(src->done());
        EXPECT_TRUE(e.drained()) << "capacity-0 channel holds nothing";
        std::string report = e.stallReport();
        EXPECT_NE(report.find("stuckSrc"), std::string::npos) << report;
        EXPECT_NE(report.find("full outputs"), std::string::npos)
            << report;
    }
}

TEST(Backpressure, FullToNonFullTransitionWakesProducer)
{
    // Producer blocks on a full bounded channel; only the consumer's
    // pop can unblock it. If the worklist misses the full->non-full
    // wakeup, the quiescence rescan records it — assert it doesn't.
    Engine e(Engine::Policy::worklist);
    auto *narrow = e.channel("narrow", 1);
    auto *wide = e.channel("wide");
    StreamBuilder sb;
    for (int i = 0; i < 32; ++i)
        sb.d(i);
    sb.b(1);
    e.make<Source>("src", narrow, sb.build());
    e.make<Flatten>("flat", narrow, wide);
    auto *sink = e.make<Sink>("sink", wide);
    e.run();
    EXPECT_TRUE(e.drained());
    EXPECT_EQ(sink->collected().size(), 32u);
    EXPECT_EQ(e.schedStats().missedWakeups, 0u);
}

// ---------------------------------------------------------------------
// Stall diagnostics (satellite: internally blocked primitives).

TEST(StallReport, NamesInternallyBlockedMergeWithEmptyChannels)
{
    // Drive a FwdBackMerge into drain mode, then leave its backedge
    // empty: every channel is empty, yet the loop header is blocked
    // waiting for its bundle peer. The old report said "none".
    Engine e;
    auto *fwd = e.channel("fwd");
    auto *back = e.channel("back");
    auto *out = e.channel("out");
    e.make<Source>("src", fwd, StreamBuilder().d(1).b(1));
    e.make<FwdBackMerge>("head", Bundle{fwd}, Bundle{back},
                         Bundle{out});
    e.make<Sink>("sink", out);
    e.run();
    EXPECT_TRUE(e.drained()) << "all channels drained";
    std::string report = e.stallReport();
    EXPECT_NE(report.find("stalled channels: none"), std::string::npos)
        << report;
    EXPECT_NE(report.find("head"), std::string::npos) << report;
    EXPECT_NE(report.find("mode=drain"), std::string::npos) << report;
    EXPECT_NE(report.find("starved inputs"), std::string::npos)
        << report;
}

TEST(StallReport, IncludedInLivelockException)
{
    Engine e;
    auto *fwd = e.channel("fwd");
    auto *back = e.channel("back");
    auto *out = e.channel("out", 1);
    // The merge wants to push the drain barrier but the output stays
    // full forever: no Sink consumes it. run() quiesces; force the
    // exception path via a zero-round cap on a network with work.
    e.make<Source>("src", fwd, StreamBuilder().d(1).d(2).b(1));
    e.make<FwdBackMerge>("head", Bundle{fwd}, Bundle{back},
                         Bundle{out});
    try {
        e.run(0);
        // Quiescing in zero working rounds would mean no work at all.
        FAIL() << "expected livelock throw at cap 0";
    } catch (const std::runtime_error &err) {
        std::string msg = err.what();
        EXPECT_NE(msg.find("blocked processes"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("head"), std::string::npos) << msg;
    }
}

// ---------------------------------------------------------------------
// REVET_NUM_THREADS parsing: the knob must parse *strictly* — a typo
// like "8abc" used to be absorbed as 8 by atoi semantics. Invalid
// values fall back to hardware concurrency with a warning instead.

namespace
{

/** Scoped setenv/unsetenv so a failing assertion can't leak the knob
 * into later tests (notably the parallel-policy matrix). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr)
            saved_ = old;
        had_ = old != nullptr;
        if (value != nullptr)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }
    ~ScopedEnv()
    {
        if (had_)
            setenv(name_, saved_.c_str(), 1);
        else
            unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::string saved_;
    bool had_ = false;
};

int
hardwareFallback()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

} // namespace

TEST(NumThreadsKnob, UnsetUsesHardwareConcurrency)
{
    ScopedEnv env("REVET_NUM_THREADS", nullptr);
    EXPECT_EQ(Engine::defaultNumThreads(), hardwareFallback());
}

TEST(NumThreadsKnob, ValidValueAccepted)
{
    ScopedEnv env("REVET_NUM_THREADS", "2");
    EXPECT_EQ(Engine::defaultNumThreads(), 2);
    ScopedEnv env2("REVET_NUM_THREADS", "1023");
    EXPECT_EQ(Engine::defaultNumThreads(), 1023);
}

TEST(NumThreadsKnob, TrailingJunkRejected)
{
    // The historical bug: strtol-without-endptr (or atoi) reads "8abc"
    // as 8. Strict parsing must reject it.
    ScopedEnv env("REVET_NUM_THREADS", "8abc");
    EXPECT_EQ(Engine::defaultNumThreads(), hardwareFallback());
}

TEST(NumThreadsKnob, GarbageZeroNegativeAndHugeRejected)
{
    for (const char *bad : {"abc", "", " ", "0", "-3", "1024", "1e3",
                            "99999999999999999999"}) {
        ScopedEnv env("REVET_NUM_THREADS", bad);
        EXPECT_EQ(Engine::defaultNumThreads(), hardwareFallback())
            << "value \"" << bad << "\" should fall back";
    }
}

TEST(NumThreadsKnob, EngineResolvesKnobForParallelRuns)
{
    ScopedEnv env("REVET_NUM_THREADS", "3");
    Engine e(Engine::Policy::parallel);
    EXPECT_EQ(e.numThreads(), 3);
    e.setNumThreads(2); // explicit setting beats the environment
    EXPECT_EQ(e.numThreads(), 2);
}
