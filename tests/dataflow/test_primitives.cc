/**
 * @file
 * Tests for the streaming primitives of Section III-B, including exact
 * token-level reproductions of the paper's Figures 2 (foreach), 3
 * (filter/forward-merge) and 4 (forward-backward merge), the empty-tensor
 * composability rules, and a nested-while composition test.
 */

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>

#include "dataflow/engine.hh"
#include "sltf/codec.hh"
#include "sltf/ragged.hh"

#include "per_thread.hh"

using namespace revet::dataflow;
using revet::sltf::RaggedTensor;
using revet::sltf::StreamBuilder;
using revet::sltf::Token;
using revet::sltf::TokenStream;
using revet::sltf::Word;

namespace
{

/** Wire a source->proc->sink harness around one stream. */
struct Harness
{
    Engine eng;
};

LaneFn
unary(std::function<Word(Word)> f)
{
    return perThread([f](const std::vector<Word> &in, std::vector<Word> &out) {
        out.push_back(f(in[0]));
    });
}

} // namespace

TEST(ElementWise, AddsAlignedStreams)
{
    Engine e;
    auto *a = e.channel("a");
    auto *b = e.channel("b");
    auto *o = e.channel("o");
    e.make<Source>("srcA", a, StreamBuilder().d(1).d(2).b(1).d(3).b(2));
    e.make<Source>("srcB", b, StreamBuilder().d(10).d(20).b(1).d(30).b(2));
    e.make<ElementWise>(
        "add", Bundle{a, b}, Bundle{o},
        perThread([](const std::vector<Word> &in, std::vector<Word> &out) {
            out.push_back(in[0] + in[1]);
        }));
    auto *sink = e.make<Sink>("sink", o);
    e.run();
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().d(11).d(22).b(1).d(33).b(2));
    EXPECT_TRUE(e.drained());
}

TEST(ElementWise, BarrierMisalignmentThrows)
{
    Engine e;
    auto *a = e.channel("a");
    auto *b = e.channel("b");
    auto *o = e.channel("o");
    e.make<Source>("srcA", a, StreamBuilder().d(1).b(1));
    e.make<Source>("srcB", b, StreamBuilder().b(1).d(1));
    e.make<ElementWise>(
        "add", Bundle{a, b}, Bundle{o},
        perThread([](const std::vector<Word> &in, std::vector<Word> &out) {
            out.push_back(in[0] + in[1]);
        }));
    e.make<Sink>("sink", o);
    EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(ElementWise, MultipleResults)
{
    Engine e;
    auto *a = e.channel("a");
    auto *s = e.channel("s");
    auto *d = e.channel("d");
    e.make<Source>("src", a, StreamBuilder().d(5).d(9).b(1));
    e.make<ElementWise>(
        "split", Bundle{a}, Bundle{s, d},
        perThread([](const std::vector<Word> &in, std::vector<Word> &out) {
            out.push_back(in[0] + 1);
            out.push_back(in[0] - 1);
        }));
    auto *s1 = e.make<Sink>("s1", s);
    auto *s2 = e.make<Sink>("s2", d);
    e.run();
    EXPECT_EQ(s1->collected(), (TokenStream)StreamBuilder().d(6).d(10).b(1));
    EXPECT_EQ(s2->collected(), (TokenStream)StreamBuilder().d(4).d(8).b(1));
}

TEST(ElementWise, LaneFnSeesOneCallPerDataRun)
{
    // A firing hands the lane function one column per lane, as long as
    // the aligned data run and no longer than the firing's budget; a
    // barrier fires alone and never reaches the function.
    Engine e;
    auto *a = e.channel("a");
    auto *b = e.channel("b");
    auto *o = e.channel("o");
    a->pushAll(StreamBuilder().d(1).d(2).d(3).b(1).d(4).b(1));
    b->pushAll(StreamBuilder().d(10).d(20).d(30).b(1).d(40).b(1));
    std::vector<size_t> runs;
    auto *add = e.make<ElementWise>(
        "add", Bundle{a, b}, Bundle{o}, [&runs](const LaneRun &run) {
            EXPECT_EQ(run.ins, 2u);
            EXPECT_EQ(run.outs, 1u);
            runs.push_back(run.n);
            for (size_t t = 0; t < run.n; ++t)
                run.out[0][t] = run.in[0][t] + run.in[1][t];
        });
    EXPECT_EQ(add->runQuanta(2), 2); // a run stops at the budget
    EXPECT_EQ(add->runQuanta(10), 4); // 1 thread, B1, 1 thread, B1
    EXPECT_EQ(add->runQuanta(10), 0);
    EXPECT_EQ(runs, (std::vector<size_t>{2, 1, 1}));
    EXPECT_EQ(o->drain(),
              (TokenStream)StreamBuilder().d(11).d(22).d(33).b(1).d(44).b(1));
}

TEST(ElementWise, RejectsEmptyInputBundle)
{
    // With no input to wait on every step would be a firing.
    Engine e;
    auto *o = e.channel("o");
    EXPECT_THROW(e.make<ElementWise>(
                     "const", Bundle{}, Bundle{o},
                     perThread([](const std::vector<Word> &,
                                  std::vector<Word> &out) {
                         out.push_back(1);
                     })),
                 std::logic_error);
}

TEST(Counter, ExpandsRangesAndRaisesBarriers)
{
    Engine e;
    auto *mn = e.channel("min");
    auto *mx = e.channel("max");
    auto *st = e.channel("step");
    auto *o = e.channel("o");
    // Two parents with trip counts 3 and 4, terminated at level 1
    // (Figure 2 with n = 1).
    e.make<Source>("min", mn, StreamBuilder().d(0).d(0).b(1));
    e.make<Source>("max", mx, StreamBuilder().d(3).d(4).b(1));
    e.make<Source>("step", st, StreamBuilder().d(1).d(1).b(1));
    e.make<Counter>("ctr", mn, mx, st, o);
    auto *sink = e.make<Sink>("sink", o);
    e.run();
    EXPECT_EQ(sink->collected(), (TokenStream)StreamBuilder()
                                     .d(0).d(1).d(2).b(1)
                                     .d(0).d(1).d(2).d(3).b(1)
                                     .b(2));
}

TEST(Counter, EmptyRangeEmitsExplicitBarrier)
{
    Engine e;
    auto *mn = e.channel("min");
    auto *mx = e.channel("max");
    auto *st = e.channel("step");
    auto *o = e.channel("o");
    e.make<Source>("min", mn, StreamBuilder().d(0).d(0).b(1));
    e.make<Source>("max", mx, StreamBuilder().d(0).d(2).b(1));
    e.make<Source>("step", st, StreamBuilder().d(1).d(1).b(1));
    e.make<Counter>("ctr", mn, mx, st, o);
    auto *sink = e.make<Sink>("sink", o);
    e.run();
    // [[],[0,1]] — the empty expansion keeps its explicit Omega(1).
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().b(1).d(0).d(1).b(1).b(2));
}

TEST(Counter, NegativeStride)
{
    Engine e;
    auto *mn = e.channel("min");
    auto *mx = e.channel("max");
    auto *st = e.channel("step");
    auto *o = e.channel("o");
    e.make<Source>("min", mn, StreamBuilder().d(3).b(1));
    e.make<Source>("max", mx, StreamBuilder().d(0).b(1));
    e.make<Source>("step", st,
                   StreamBuilder().d(static_cast<Word>(-1)).b(1));
    e.make<Counter>("ctr", mn, mx, st, o);
    auto *sink = e.make<Sink>("sink", o);
    e.run();
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().d(3).d(2).d(1).b(1).b(2));
}

TEST(Reduce, SumsGroupsAndLowersBarriers)
{
    Engine e;
    auto *in = e.channel("in");
    auto *o = e.channel("o");
    e.make<Source>("src", in, StreamBuilder()
                                  .d(1).d(2).d(3).b(1)
                                  .d(10).b(1)
                                  .b(2));
    e.make<Reduce>("sum", in, o, 0);
    auto *sink = e.make<Sink>("sink", o);
    e.run();
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().d(6).d(10).b(1));
}

TEST(Reduce, EmptyTensorComposability)
{
    // Section III-A(b): [[]] -> [0]; [[],[]] -> [0,0]; [] -> [].
    struct Case
    {
        TokenStream in;
        TokenStream expect;
    };
    std::vector<Case> cases = {
        {StreamBuilder().b(1).b(2), StreamBuilder().d(0).b(1)},
        {StreamBuilder().b(1).b(1).b(2), StreamBuilder().d(0).d(0).b(1)},
        {StreamBuilder().b(2), StreamBuilder().b(1)},
    };
    for (auto &c : cases) {
        Engine e;
        auto *in = e.channel("in");
        auto *o = e.channel("o");
        e.make<Source>("src", in, c.in);
        e.make<Reduce>("sum", in, o, 0);
        auto *sink = e.make<Sink>("sink", o);
        e.run();
        EXPECT_EQ(sink->collected(), c.expect)
            << "input " << revet::sltf::toString(c.in);
    }
}

TEST(Flatten, RemovesOneLevel)
{
    Engine e;
    auto *in = e.channel("in");
    auto *o = e.channel("o");
    e.make<Source>("src", in,
                   StreamBuilder().d(1).d(2).b(1).d(3).b(1).b(2));
    e.make<Flatten>("flat", in, o);
    auto *sink = e.make<Sink>("sink", o);
    e.run();
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().d(1).d(2).d(3).b(1));
}

TEST(Flatten, EmptyGroupsVanish)
{
    Engine e;
    auto *in = e.channel("in");
    auto *o = e.channel("o");
    e.make<Source>("src", in, StreamBuilder().b(1).b(1).b(2));
    e.make<Flatten>("flat", in, o);
    auto *sink = e.make<Sink>("sink", o);
    e.run();
    EXPECT_EQ(sink->collected(), (TokenStream)StreamBuilder().b(1));
}

TEST(Filter, Figure3Partition)
{
    // Figure 3: A = [t1..t5, On]; predicate singles out t3. Use n = 1.
    Engine e;
    auto *val = e.channel("val");
    auto *pb = e.channel("predB");
    auto *pc = e.channel("predC");
    auto *vb = e.channel("valB");
    auto *vc = e.channel("valC");
    auto *bOut = e.channel("B");
    auto *cOut = e.channel("C");
    e.make<Source>("vals", val,
                   StreamBuilder().d(1).d(2).d(3).d(4).d(5).b(1));
    // Predicate: value == 3 (the slow-path thread).
    e.make<ElementWise>(
        "pred", Bundle{val}, Bundle{pb, pc, vb, vc},
        perThread([](const std::vector<Word> &in, std::vector<Word> &out) {
            Word p = in[0] == 3 ? 1 : 0;
            out.push_back(p);
            out.push_back(p);
            out.push_back(in[0]);
            out.push_back(in[0]);
        }));
    e.make<Filter>("fB", pb, Bundle{vb}, Bundle{bOut}, true);
    e.make<Filter>("fC", pc, Bundle{vc}, Bundle{cOut}, false);
    auto *sb = e.make<Sink>("sinkB", bOut);
    auto *sc = e.make<Sink>("sinkC", cOut);
    e.run();
    EXPECT_EQ(sb->collected(), (TokenStream)StreamBuilder().d(3).b(1));
    EXPECT_EQ(sc->collected(),
              (TokenStream)StreamBuilder().d(1).d(2).d(4).d(5).b(1));
}

TEST(ForwardMerge, Figure3Join)
{
    // The slow-path thread t3 arrives after the fast path; the merge
    // interleaves eagerly and emits one barrier: D = t1,t2,t4,t5,t3,On.
    Engine e;
    auto *fast = e.channel("fast");
    auto *slow = e.channel("slow");
    auto *out = e.channel("out");
    e.make<Source>("fastSrc", fast,
                   StreamBuilder().d(1).d(2).d(4).d(5).b(1));
    e.make<ForwardMerge>("join", Bundle{fast}, Bundle{slow}, Bundle{out});
    auto *sink = e.make<Sink>("sink", out);
    // Run with the slow branch empty: fast data passes, barrier stalls.
    e.run();
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().d(1).d(2).d(4).d(5));
    // Now the delayed slow thread shows up.
    slow->pushAll(StreamBuilder().d(3).b(1));
    e.run();
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().d(1).d(2).d(4).d(5).d(3).b(1));
    EXPECT_TRUE(e.drained());
}

TEST(ForwardMerge, AtomicBundles)
{
    // Live values of one thread never separate across the merge.
    Engine e;
    auto *a0 = e.channel();
    auto *a1 = e.channel();
    auto *b0 = e.channel();
    auto *b1 = e.channel();
    auto *o0 = e.channel();
    auto *o1 = e.channel();
    e.make<Source>("a0", a0, StreamBuilder().d(1).d(2).b(1));
    e.make<Source>("a1", a1, StreamBuilder().d(10).d(20).b(1));
    e.make<Source>("b0", b0, StreamBuilder().d(3).b(1));
    e.make<Source>("b1", b1, StreamBuilder().d(30).b(1));
    e.make<ForwardMerge>("join", Bundle{a0, a1}, Bundle{b0, b1},
                         Bundle{o0, o1});
    auto *s0 = e.make<Sink>("s0", o0);
    auto *s1 = e.make<Sink>("s1", o1);
    e.run();
    ASSERT_EQ(s0->collected().size(), 4u);
    ASSERT_EQ(s1->collected().size(), 4u);
    // Pairing invariant: value in o1 is 10x its partner in o0.
    for (size_t i = 0; i + 1 < s0->collected().size(); ++i) {
        EXPECT_EQ(s0->collected()[i].word() * 10,
                  s1->collected()[i].word());
    }
}

TEST(ForwardMerge, MismatchedBarriersThrow)
{
    Engine e;
    auto *a = e.channel("a");
    auto *b = e.channel("b");
    auto *o = e.channel("o");
    e.make<Source>("a", a, StreamBuilder().b(1));
    e.make<Source>("b", b, StreamBuilder().b(2));
    e.make<ForwardMerge>("join", Bundle{a}, Bundle{b}, Bundle{o});
    e.make<Sink>("s", o);
    EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Broadcast, RepeatsParentAcrossGroups)
{
    Engine e;
    auto *deep = e.channel("deep");
    auto *shal = e.channel("shallow");
    auto *o = e.channel("o");
    e.make<Source>("deep", deep, StreamBuilder()
                                     .d(100).d(101).b(1)
                                     .d(200).b(1)
                                     .b(2));
    e.make<Source>("shallow", shal, StreamBuilder().d(7).d(9).b(1));
    e.make<Broadcast>("bc", deep, shal, o, 1);
    auto *sink = e.make<Sink>("sink", o);
    e.run();
    EXPECT_EQ(sink->collected(), (TokenStream)StreamBuilder()
                                     .d(7).d(7).b(1)
                                     .d(9).b(1)
                                     .b(2));
    EXPECT_TRUE(e.drained());
}

TEST(Broadcast, EmptyDeepGroupStillRetiresParent)
{
    Engine e;
    auto *deep = e.channel("deep");
    auto *shal = e.channel("shallow");
    auto *o = e.channel("o");
    // Parent 7 has an empty child group; parent 9 has one element.
    e.make<Source>("deep", deep, StreamBuilder().b(1).d(0).b(1).b(2));
    e.make<Source>("shallow", shal, StreamBuilder().d(7).d(9).b(1));
    e.make<Broadcast>("bc", deep, shal, o, 1);
    auto *sink = e.make<Sink>("sink", o);
    e.run();
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().b(1).d(9).b(1).b(2));
    EXPECT_TRUE(e.drained());
}

TEST(Broadcast, TwoLevel)
{
    Engine e;
    auto *deep = e.channel("deep");
    auto *shal = e.channel("shallow");
    auto *o = e.channel("o");
    // One parent broadcast across a 2-deep structure (level = 2).
    e.make<Source>("deep", deep, StreamBuilder()
                                     .d(0).b(1).d(0).d(0).b(1).b(2)
                                     .b(3));
    e.make<Source>("shallow", shal, StreamBuilder().d(42).b(1));
    e.make<Broadcast>("bc", deep, shal, o, 2);
    auto *sink = e.make<Sink>("sink", o);
    e.run();
    EXPECT_EQ(sink->collected(), (TokenStream)StreamBuilder()
                                     .d(42).b(1).d(42).d(42).b(1).b(2)
                                     .b(3));
}

TEST(ForeachPipeline, CounterBroadcastReduce)
{
    // A complete foreach: parents p in [3, 4]; each computes
    // sum_{i<p}(i + 10*p) — exercises counter + broadcast + reduce
    // exactly as in Figure 2.
    Engine e;
    auto *par = e.channel("parents");
    auto *par_ctr = e.channel("parCtr");
    auto *par_bc = e.channel("parBc");
    auto *mn = e.channel("mn");
    auto *mx = e.channel("mx");
    auto *st = e.channel("st");
    auto *iter = e.channel("iter");
    auto *iter_bc = e.channel("iterBc");
    auto *iter_ew = e.channel("iterEw");
    auto *expanded = e.channel("expanded");
    auto *body = e.channel("body");
    auto *red = e.channel("red");

    e.make<Source>("src", par, StreamBuilder().d(3).d(4).b(1));
    e.multicast(par, {par_ctr, par_bc});
    e.make<ElementWise>(
        "bounds", Bundle{par_ctr}, Bundle{mn, mx, st},
        perThread([](const std::vector<Word> &in, std::vector<Word> &out) {
            out.push_back(0);
            out.push_back(in[0]);
            out.push_back(1);
        }));
    e.make<Counter>("ctr", mn, mx, st, iter);
    e.multicast(iter, {iter_bc, iter_ew});
    e.make<Broadcast>("bc", iter_bc, par_bc, expanded, 1);
    e.make<ElementWise>(
        "body", Bundle{iter_ew, expanded}, Bundle{body},
        perThread([](const std::vector<Word> &in, std::vector<Word> &out) {
            out.push_back(in[0] + 10 * in[1]);
        }));
    e.make<Reduce>("red", body, red, 0);
    auto *sink = e.make<Sink>("sink", red);
    e.run();
    // p=3: 0+1+2 + 3*30 = 93;  p=4: 0+1+2+3 + 4*40 = 166.
    EXPECT_EQ(sink->collected(),
              (TokenStream)StreamBuilder().d(93).d(166).b(1));
    EXPECT_TRUE(e.drained());
}

namespace
{

/**
 * Build a while loop over a bundle {id, cnt}: each thread iterates until
 * its cnt reaches zero (decrement per trip). Returns sinks for the body
 * stream (ids) and the stripped exit stream (ids).
 */
struct WhileLoopHarness
{
    Engine e;
    Sink *body_ids;
    Sink *exit_ids;

    explicit WhileLoopHarness(const TokenStream &ids,
                              const TokenStream &cnts)
    {
        auto *fid = e.channel("fid");
        auto *fcnt = e.channel("fcnt");
        e.make<Source>("idSrc", fid, ids);
        e.make<Source>("cntSrc", fcnt, cnts);

        auto *mid = e.channel("mid");
        auto *mcnt = e.channel("mcnt");
        auto *bid = e.channel("bid");
        auto *bcnt = e.channel("bcnt");
        e.make<FwdBackMerge>("head", Bundle{fid, fcnt}, Bundle{bid, bcnt},
                             Bundle{mid, mcnt});

        // Tap the body stream for inspection.
        auto *mid_tap = e.channel("midTap");
        auto *mid_body = e.channel("midBody");
        e.multicast(mid, {mid_tap, mid_body});
        body_ids = e.make<Sink>("bodySink", mid_tap);

        // Body: cnt' = cnt-1; continue while cnt' > 0.
        auto *did1 = e.channel("did1");
        auto *dcnt1 = e.channel("dcnt1");
        auto *p1 = e.channel("p1");
        auto *did2 = e.channel("did2");
        auto *dcnt2 = e.channel("dcnt2");
        auto *p2 = e.channel("p2");
        e.make<ElementWise>(
            "dec", Bundle{mid_body, mcnt},
            Bundle{did1, dcnt1, p1, did2, dcnt2, p2},
            perThread([](const std::vector<Word> &in, std::vector<Word> &out) {
                Word cnt = in[1] - 1;
                Word cont = static_cast<int32_t>(cnt) > 0 ? 1 : 0;
                out.push_back(in[0]);
                out.push_back(cnt);
                out.push_back(cont);
                out.push_back(in[0]);
                out.push_back(cnt);
                out.push_back(cont);
            }));
        e.make<Filter>("backF", p1, Bundle{did1, dcnt1},
                       Bundle{bid, bcnt}, true);
        auto *xid = e.channel("xid");
        auto *xcnt = e.channel("xcnt");
        e.make<Filter>("exitF", p2, Bundle{did2, dcnt2},
                       Bundle{xid, xcnt}, false);

        // Loop-exit edges strip one hierarchy level.
        auto *sid = e.channel("sid");
        auto *scnt = e.channel("scnt");
        e.make<Flatten>("stripId", xid, sid);
        e.make<Flatten>("stripCnt", xcnt, scnt);
        exit_ids = e.make<Sink>("exitSink", sid);
        e.make<Sink>("exitCntSink", scnt);
    }
};

} // namespace

TEST(FwdBackMerge, Figure4ExactTrace)
{
    // Iteration counts: t1=2, t2=3, t3=1, t4=3; entry barrier level 1.
    WhileLoopHarness h(StreamBuilder().d(1).d(2).d(3).d(4).b(1),
                       StreamBuilder().d(2).d(3).d(1).d(3).b(1));
    h.e.run();
    // B: t1,t2,t3,t4,O1 | t1,t2,t4,O1 | t2,t4,O1 | O2.
    EXPECT_EQ(h.body_ids->collected(), (TokenStream)StreamBuilder()
                                           .d(1).d(2).d(3).d(4).b(1)
                                           .d(1).d(2).d(4).b(1)
                                           .d(2).d(4).b(1)
                                           .b(2));
    // D: t3, t1, t2, t4, O1 (stripped back to the entry level).
    EXPECT_EQ(h.exit_ids->collected(),
              (TokenStream)StreamBuilder().d(3).d(1).d(2).d(4).b(1));
    EXPECT_TRUE(h.e.drained()) << h.e.stallReport();
}

TEST(FwdBackMerge, MultipleGroupsFlushSeparately)
{
    // Two groups separated by O1, closed by O2: the loop flushes at every
    // barrier, so group 2's threads never mix into group 1's batches.
    WhileLoopHarness h(StreamBuilder().d(1).d(2).b(1).d(3).b(2),
                       StreamBuilder().d(2).d(1).b(1).d(2).b(2));
    h.e.run();
    EXPECT_EQ(h.body_ids->collected(), (TokenStream)StreamBuilder()
                                           .d(1).d(2).b(1) // batch g1.1
                                           .d(1).b(1)      // batch g1.2
                                           .b(2)           // g1 done
                                           .d(3).b(1)      // batch g2.1
                                           .d(3).b(1)      // batch g2.2
                                           .b(3));         // g2 done
    EXPECT_EQ(h.exit_ids->collected(),
              (TokenStream)StreamBuilder().d(2).d(1).b(1).d(3).b(2));
    EXPECT_TRUE(h.e.drained()) << h.e.stallReport();
}

TEST(FwdBackMerge, EmptyGroupPassesThrough)
{
    // An empty input group must exit as an empty group.
    WhileLoopHarness h(StreamBuilder().b(1).d(5).b(2),
                       StreamBuilder().b(1).d(1).b(2));
    h.e.run();
    EXPECT_EQ(h.exit_ids->collected(),
              (TokenStream)StreamBuilder().b(1).d(5).b(2));
    EXPECT_TRUE(h.e.drained()) << h.e.stallReport();
}

TEST(FwdBackMerge, ZeroTripThreadsExitFirstBatch)
{
    // cnt = 1 means one trip; all threads leave in batch 1 and the
    // second batch is already empty.
    WhileLoopHarness h(StreamBuilder().d(7).d(8).b(1),
                       StreamBuilder().d(1).d(1).b(1));
    h.e.run();
    EXPECT_EQ(h.body_ids->collected(),
              (TokenStream)StreamBuilder().d(7).d(8).b(1).b(2));
    EXPECT_EQ(h.exit_ids->collected(),
              (TokenStream)StreamBuilder().d(7).d(8).b(1));
}

TEST(NestedWhile, InnerLoopInsideOuterLoop)
{
    // Outer loop: n decrements to 0. Inner loop: counts w = n down to 0,
    // incrementing acc per inner trip. Result: acc = n(n+1)/2.
    Engine e;
    auto *fid = e.channel("fid");
    auto *fn = e.channel("fn");
    auto *facc = e.channel("facc");
    e.make<Source>("ids", fid, StreamBuilder().d(1).d(2).d(3).b(1));
    e.make<Source>("ns", fn, StreamBuilder().d(1).d(2).d(3).b(1));
    e.make<Source>("accs", facc, StreamBuilder().d(0).d(0).d(0).b(1));

    // Outer loop header.
    auto *oid = e.channel("oid");
    auto *on = e.channel("on");
    auto *oacc = e.channel("oacc");
    auto *obid = e.channel("obid");
    auto *obn = e.channel("obn");
    auto *obacc = e.channel("obacc");
    e.make<FwdBackMerge>("outer", Bundle{fid, fn, facc},
                         Bundle{obid, obn, obacc},
                         Bundle{oid, on, oacc});

    // Init inner counter w = n.
    auto *wid = e.channel("wid");
    auto *wn = e.channel("wn");
    auto *wacc = e.channel("wacc");
    auto *ww = e.channel("ww");
    e.make<ElementWise>(
        "initW", Bundle{oid, on, oacc}, Bundle{wid, wn, wacc, ww},
        perThread([](const std::vector<Word> &in, std::vector<Word> &out) {
            out.push_back(in[0]);
            out.push_back(in[1]);
            out.push_back(in[2]);
            out.push_back(in[1]); // w = n
        }));

    // Inner loop header.
    auto *iid = e.channel("iid");
    auto *in_ = e.channel("in");
    auto *iacc = e.channel("iacc");
    auto *iw = e.channel("iw");
    auto *ibid = e.channel("ibid");
    auto *ibn = e.channel("ibn");
    auto *ibacc = e.channel("ibacc");
    auto *ibw = e.channel("ibw");
    e.make<FwdBackMerge>("inner", Bundle{wid, wn, wacc, ww},
                         Bundle{ibid, ibn, ibacc, ibw},
                         Bundle{iid, in_, iacc, iw});

    // Inner body: acc++, w--; continue while w > 0.
    Bundle inner_out;
    for (int i = 0; i < 10; ++i)
        inner_out.push_back(e.channel("ib" + std::to_string(i)));
    e.make<ElementWise>(
        "innerBody", Bundle{iid, in_, iacc, iw}, inner_out,
        perThread([](const std::vector<Word> &in, std::vector<Word> &out) {
            Word w = in[3] - 1;
            Word cont = static_cast<int32_t>(w) > 0 ? 1 : 0;
            for (int copy = 0; copy < 2; ++copy) {
                out.push_back(in[0]);
                out.push_back(in[1]);
                out.push_back(in[2] + 1);
                out.push_back(w);
                out.push_back(cont);
            }
        }));
    e.make<Filter>("innerBack", inner_out[4],
                   Bundle{inner_out[0], inner_out[1], inner_out[2],
                          inner_out[3]},
                   Bundle{ibid, ibn, ibacc, ibw}, true);
    auto *xid = e.channel("xid");
    auto *xn = e.channel("xn");
    auto *xacc = e.channel("xacc");
    auto *xw = e.channel("xw");
    e.make<Filter>("innerExit", inner_out[9],
                   Bundle{inner_out[5], inner_out[6], inner_out[7],
                          inner_out[8]},
                   Bundle{xid, xn, xacc, xw}, false);

    // Strip the inner-loop level; drop w.
    auto *sid = e.channel("sid");
    auto *sn = e.channel("sn");
    auto *sacc = e.channel("sacc");
    auto *sw = e.channel("sw");
    e.make<Flatten>("st0", xid, sid);
    e.make<Flatten>("st1", xn, sn);
    e.make<Flatten>("st2", xacc, sacc);
    e.make<Flatten>("st3", xw, sw);
    e.make<Sink>("dropW", sw);

    // Outer tail: n--; continue while n > 0.
    Bundle outer_out;
    for (int i = 0; i < 8; ++i)
        outer_out.push_back(e.channel("ob" + std::to_string(i)));
    e.make<ElementWise>(
        "outerTail", Bundle{sid, sn, sacc}, outer_out,
        perThread([](const std::vector<Word> &in, std::vector<Word> &out) {
            Word n = in[1] - 1;
            Word cont = static_cast<int32_t>(n) > 0 ? 1 : 0;
            for (int copy = 0; copy < 2; ++copy) {
                out.push_back(in[0]);
                out.push_back(n);
                out.push_back(in[2]);
                out.push_back(cont);
            }
        }));
    e.make<Filter>("outerBack", outer_out[3],
                   Bundle{outer_out[0], outer_out[1], outer_out[2]},
                   Bundle{obid, obn, obacc}, true);
    auto *eid = e.channel("eid");
    auto *en = e.channel("en");
    auto *eacc = e.channel("eacc");
    e.make<Filter>("outerExit", outer_out[7],
                   Bundle{outer_out[4], outer_out[5], outer_out[6]},
                   Bundle{eid, en, eacc}, false);

    auto *rid = e.channel("rid");
    auto *rn = e.channel("rn");
    auto *racc = e.channel("racc");
    e.make<Flatten>("so0", eid, rid);
    e.make<Flatten>("so1", en, rn);
    e.make<Flatten>("so2", eacc, racc);
    auto *id_sink = e.make<Sink>("ids", rid);
    e.make<Sink>("ns", rn);
    auto *acc_sink = e.make<Sink>("accs", racc);

    e.run();
    EXPECT_TRUE(e.drained()) << e.stallReport();

    // Collect (id, acc) pairs; order across threads is unspecified.
    std::map<Word, Word> results;
    const auto &ids = id_sink->collected();
    const auto &accs = acc_sink->collected();
    ASSERT_EQ(ids.size(), accs.size());
    for (size_t i = 0; i < ids.size(); ++i) {
        if (ids[i].isData())
            results[ids[i].word()] = accs[i].word();
    }
    EXPECT_EQ(results[1], 1u); // 1
    EXPECT_EQ(results[2], 3u); // 2+1
    EXPECT_EQ(results[3], 6u); // 3+2+1
    // Final barrier level must be restored to the entry level.
    ASSERT_FALSE(ids.empty());
    EXPECT_TRUE(ids.back().isBarrier());
    EXPECT_EQ(ids.back().barrierLevel(), 1);
}

TEST(FilterMergeProperty, PartitionAndRejoinPreservesGroups)
{
    // Property: split a random 2-level stream by a random predicate and
    // forward-merge the halves: each group's element multiset and the
    // barrier structure are preserved.
    std::mt19937 rng(42);
    for (int iter = 0; iter < 40; ++iter) {
        // Build a random 2-D tensor stream.
        StreamBuilder sb;
        std::vector<std::multiset<Word>> groups;
        int ngroups = 1 + rng() % 4;
        for (int g = 0; g < ngroups; ++g) {
            std::multiset<Word> group;
            int n = rng() % 5;
            for (int i = 0; i < n; ++i) {
                Word v = rng() % 100;
                group.insert(v);
                sb.d(v);
            }
            sb.b(1);
            groups.push_back(group);
        }
        sb.b(2);

        Engine e;
        auto *val = e.channel("val");
        auto *pt = e.channel("pt");
        auto *pf = e.channel("pf");
        auto *vt = e.channel("vt");
        auto *vf = e.channel("vf");
        auto *bt = e.channel("bt");
        auto *bf = e.channel("bf");
        auto *out = e.channel("out");
        e.make<Source>("src", val, sb.build());
        e.make<ElementWise>(
            "pred", Bundle{val}, Bundle{pt, pf, vt, vf},
            perThread([](const std::vector<Word> &in, std::vector<Word> &out) {
                Word p = in[0] % 2;
                out.push_back(p);
                out.push_back(p);
                out.push_back(in[0]);
                out.push_back(in[0]);
            }));
        e.make<Filter>("ft", pt, Bundle{vt}, Bundle{bt}, true);
        e.make<Filter>("ff", pf, Bundle{vf}, Bundle{bf}, false);
        e.make<ForwardMerge>("join", Bundle{bt}, Bundle{bf}, Bundle{out});
        auto *sink = e.make<Sink>("sink", out);
        e.run();
        ASSERT_TRUE(e.drained());

        auto tensors =
            revet::sltf::decodeAll(sink->collected(), 2);
        ASSERT_EQ(tensors.size(), 1u);
        ASSERT_EQ(tensors[0].size(), groups.size());
        for (size_t g = 0; g < groups.size(); ++g) {
            std::multiset<Word> got;
            for (const auto &leaf : tensors[0][g].children())
                got.insert(leaf.word());
            EXPECT_EQ(got, groups[g]) << "group " << g;
        }
    }
}

TEST(Engine, StallReportNamesBlockedChannels)
{
    Engine e;
    auto *a = e.channel("lonely");
    a->push(Token::data(1));
    EXPECT_FALSE(e.drained());
    EXPECT_NE(e.stallReport().find("lonely"), std::string::npos);
}

TEST(Engine, LivelockGuardThrows)
{
    // A self-feeding loop that never terminates trips the round cap.
    Engine e;
    auto *a = e.channel("a");
    auto *b = e.channel("b");
    a->push(Token::data(1));
    e.make<ElementWise>("inc", Bundle{a}, Bundle{b}, unary([](Word w) {
                            return w + 1;
                        }));
    e.make<ElementWise>("back", Bundle{b}, Bundle{a}, unary([](Word w) {
                            return w;
                        }));
    EXPECT_THROW(e.run(1000), std::runtime_error);
}

namespace
{

/** One machine-model violation: a hand-built network whose run must
 * throw @p message. @p build wires it on an engine and returns the
 * channel to fill (with @p late) before a second run, or null when the
 * first run must already throw. The primitives push @p moved tokens in
 * all before the throw. */
struct Violation
{
    const char *label;
    std::function<Channel *(Engine &)> build;
    TokenStream late;
    std::string message;
    uint64_t moved = 0;
};

/** A channel of @p e pre-filled with @p stream, with no producer. */
Channel *
filled(Engine &e, const std::string &name, const TokenStream &stream)
{
    Channel *ch = e.channel(name);
    ch->pushAll(stream);
    return ch;
}

LaneFn
sumLanes()
{
    return perThread([](const std::vector<Word> &in, std::vector<Word> &out) {
        Word s = 0;
        for (Word w : in)
            s += w;
        out.push_back(s);
    });
}

std::vector<Violation>
violations()
{
    const TokenStream none;
    return {
        {"ElementWise data vs barrier",
         [](Engine &e) -> Channel * {
             auto *a = filled(e, "a", StreamBuilder().d(1).b(1));
             auto *b = filled(e, "b", StreamBuilder().b(1).d(1));
             auto *o = e.channel("o");
             e.make<ElementWise>("ew", Bundle{a, b}, Bundle{o}, sumLanes());
             e.make<Sink>("sink", o);
             return nullptr;
         },
         none, "[ew] bundle misaligned: data vs barrier at channel heads"},
        {"ElementWise barrier levels",
         [](Engine &e) -> Channel * {
             auto *a = filled(e, "a", StreamBuilder().b(1));
             auto *b = filled(e, "b", StreamBuilder().b(2));
             auto *o = e.channel("o");
             e.make<ElementWise>("ew", Bundle{a, b}, Bundle{o}, sumLanes());
             e.make<Sink>("sink", o);
             return nullptr;
         },
         none, "[ew] bundle misaligned: barriers B1 vs B2"},
        {"ElementWise misaligned once the empty third lane fills",
         [](Engine &e) -> Channel * {
             auto *a = filled(e, "a", StreamBuilder().d(1));
             auto *b = filled(e, "b", StreamBuilder().b(1));
             auto *c = e.channel("c");
             auto *o = e.channel("o");
             e.make<ElementWise>("ew", Bundle{a, b, c}, Bundle{o},
                                 sumLanes());
             e.make<Sink>("sink", o);
             return c;
         },
         StreamBuilder().d(1),
         "[ew] bundle misaligned: data vs barrier at channel heads"},
        {"ElementWise barrier levels once the empty third lane fills",
         [](Engine &e) -> Channel * {
             auto *a = filled(e, "a", StreamBuilder().b(1));
             auto *b = filled(e, "b", StreamBuilder().b(2));
             auto *c = e.channel("c");
             auto *o = e.channel("o");
             e.make<ElementWise>("ew", Bundle{a, b, c}, Bundle{o},
                                 sumLanes());
             e.make<Sink>("sink", o);
             return c;
         },
         StreamBuilder().b(1), "[ew] bundle misaligned: barriers B1 vs B2"},
        {"Filter misaligned",
         [](Engine &e) -> Channel * {
             auto *p = filled(e, "p", StreamBuilder().d(1).b(1));
             auto *x = filled(e, "x", StreamBuilder().b(1));
             auto *o = e.channel("o");
             e.make<Filter>("filt", p, Bundle{x}, Bundle{o});
             e.make<Sink>("sink", o);
             return nullptr;
         },
         none, "[filt] bundle misaligned: data vs barrier at channel heads"},
        {"Counter misaligned",
         [](Engine &e) -> Channel * {
             auto *lo = filled(e, "lo", StreamBuilder().d(0));
             auto *hi = filled(e, "hi", StreamBuilder().b(1));
             auto *st = filled(e, "st", StreamBuilder().d(1));
             auto *o = e.channel("o");
             e.make<Counter>("ctr", lo, hi, st, o);
             e.make<Sink>("sink", o);
             return nullptr;
         },
         none, "[ctr] bundle misaligned: data vs barrier at channel heads"},
        {"Counter zero stride",
         [](Engine &e) -> Channel * {
             auto *lo = filled(e, "lo", StreamBuilder().d(0).b(1));
             auto *hi = filled(e, "hi", StreamBuilder().d(4).b(1));
             auto *st = filled(e, "st", StreamBuilder().d(0).b(1));
             auto *o = e.channel("o");
             e.make<Counter>("ctr", lo, hi, st, o);
             e.make<Sink>("sink", o);
             return nullptr;
         },
         none, "[ctr] ctr: zero counter stride"},
        {"ForwardMerge branch barrier mismatch",
         [](Engine &e) -> Channel * {
             auto *a = filled(e, "a", StreamBuilder().b(1));
             auto *b = filled(e, "b", StreamBuilder().b(2));
             auto *o = e.channel("o");
             e.make<ForwardMerge>("join", Bundle{a}, Bundle{b}, Bundle{o});
             e.make<Sink>("sink", o);
             return nullptr;
         },
         none, "[join] join: branch barrier mismatch B1 vs B2"},
        {"ForwardMerge B misaligned while A's head is data",
         [](Engine &e) -> Channel * {
             auto *a0 = filled(e, "a0", StreamBuilder().d(1).b(1));
             auto *a1 = filled(e, "a1", StreamBuilder().d(10).b(1));
             auto *b0 = filled(e, "b0", StreamBuilder().d(2).b(1));
             auto *b1 = filled(e, "b1", StreamBuilder().b(1));
             auto *o0 = e.channel("o0");
             auto *o1 = e.channel("o1");
             e.make<ForwardMerge>("join", Bundle{a0, a1}, Bundle{b0, b1},
                                  Bundle{o0, o1});
             e.make<Sink>("sink0", o0);
             e.make<Sink>("sink1", o1);
             return nullptr;
         },
         none, "[join] bundle misaligned: data vs barrier at channel heads"},
        {"FwdBackMerge forward bundle misaligned",
         [](Engine &e) -> Channel * {
             auto *f0 = filled(e, "f0", StreamBuilder().d(1).b(1));
             auto *f1 = filled(e, "f1", StreamBuilder().b(1));
             auto *k0 = e.channel("k0");
             auto *k1 = e.channel("k1");
             auto *o0 = e.channel("o0");
             auto *o1 = e.channel("o1");
             e.make<FwdBackMerge>("head", Bundle{f0, f1}, Bundle{k0, k1},
                                  Bundle{o0, o1});
             e.make<Sink>("sink0", o0);
             e.make<Sink>("sink1", o1);
             return nullptr;
         },
         none, "[head] bundle misaligned: data vs barrier at channel heads"},
        {"FwdBackMerge backedge barrier outside a flush",
         [](Engine &e) -> Channel * {
             auto *f = filled(e, "f", StreamBuilder().d(1));
             auto *k = filled(e, "k", StreamBuilder().b(1));
             auto *o = e.channel("o");
             e.make<FwdBackMerge>("head", Bundle{f}, Bundle{k}, Bundle{o});
             e.make<Sink>("sink", o);
             return nullptr;
         },
         none, "[head] head: unexpected backedge barrier B1 outside a flush"},
        {"FwdBackMerge backedge barrier during drain",
         [](Engine &e) -> Channel * {
             auto *f = filled(e, "f", StreamBuilder().b(1));
             auto *k = e.channel("k");
             auto *o = e.channel("o");
             e.make<FwdBackMerge>("head", Bundle{f}, Bundle{k}, Bundle{o});
             e.make<Sink>("sink", o);
             return k;
         },
         StreamBuilder().b(2),
         "[head] head: backedge barrier B2 during drain (expected B1)", 1},
        {"Broadcast shallow barrier under deep data",
         [](Engine &e) -> Channel * {
             auto *deep = filled(e, "deep", StreamBuilder().d(1).b(1));
             auto *sh = filled(e, "sh", StreamBuilder().b(1));
             auto *o = e.channel("o");
             e.make<Broadcast>("bc", deep, sh, o);
             e.make<Sink>("sink", o);
             return nullptr;
         },
         none,
         "[bc] bc: shallow stream has a barrier where the deep structure "
         "still carries data"},
        {"Broadcast shallow barrier at the group end",
         [](Engine &e) -> Channel * {
             auto *deep = filled(e, "deep", StreamBuilder().b(1));
             auto *sh = filled(e, "sh", StreamBuilder().b(1));
             auto *o = e.channel("o");
             e.make<Broadcast>("bc", deep, sh, o);
             e.make<Sink>("sink", o);
             return nullptr;
         },
         none, "[bc] bc: expected shallow data"},
        {"Broadcast shallow barrier mismatch",
         [](Engine &e) -> Channel * {
             auto *deep = filled(e, "deep", StreamBuilder().b(2));
             auto *sh = filled(e, "sh", StreamBuilder().b(2));
             auto *o = e.channel("o");
             e.make<Broadcast>("bc", deep, sh, o);
             e.make<Sink>("sink", o);
             return nullptr;
         },
         none, "[bc] bc: shallow barrier mismatch at deep B2"},
    };
}

} // namespace

TEST(MachineModel, ViolationsThrowTheirMessage)
{
    // Every machine-model violation a primitive detects throws one
    // message, prefixed with the process name, under both policies.
    // A violation is detected only once every lane it reads has a
    // token, and before the firing moves anything.
    for (const Violation &v : violations()) {
        for (Engine::Policy policy :
             {Engine::Policy::worklist, Engine::Policy::parallel}) {
            const std::string label =
                std::string(v.label) +
                (policy == Engine::Policy::worklist ? " (worklist)"
                                                    : " (parallel)");
            Engine e(policy);
            e.setNumThreads(4);
            Channel *late = v.build(e);
            if (late != nullptr) {
                EXPECT_NO_THROW(e.run()) << label;
                late->pushAll(v.late);
            }
            try {
                e.run();
                ADD_FAILURE() << label << ": no throw";
            } catch (const std::runtime_error &err) {
                EXPECT_EQ(std::string(err.what()), v.message) << label;
            }
            uint64_t moved = 0;
            for (const auto &ch : e.channels()) {
                if (ch->producer() != nullptr)
                    moved += ch->totalPushed();
            }
            EXPECT_EQ(moved, v.moved) << label;
        }
    }
}
