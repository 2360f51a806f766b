/**
 * @file
 * Rings and cursors: link fan-out as read cursors over one producer's
 * ring (Engine::multicast, channel.hh), and the one-reader rings of
 * point-to-point links.
 *
 * Every engine-run case runs under the worklist and under the parallel
 * policy at 4 workers, so the ring protocol (one lock per ring, a size
 * mirror per cursor, per-cursor wakeups) also runs with real
 * cross-thread traffic; direct-traffic cases take both the serial and
 * the locked push/pop paths. scripts/check.sh --tsan re-runs this
 * suite under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "dataflow/engine.hh"
#include "graph/bytecode.hh"
#include "graph/dfg.hh"
#include "lang/parse.hh"
#include "sltf/codec.hh"

#include "per_thread.hh"

using namespace revet;
using namespace revet::dataflow;
using revet::sltf::StreamBuilder;
using revet::sltf::TokenStream;

namespace
{

constexpr Engine::Policy kAllPolicies[] = {Engine::Policy::worklist,
                                           Engine::Policy::parallel};

constexpr int kTestWorkers = 4;

const char *
policyName(Engine::Policy policy)
{
    return policy == Engine::Policy::worklist ? "worklist" : "parallel";
}

/** 0..n-1 as data, a level-1 barrier, then n..2n-1 and a level-2
 * barrier: enough tokens to regrow a 16-slot ring several times. */
TokenStream
longStream(int n)
{
    StreamBuilder sb;
    for (int i = 0; i < n; ++i)
        sb.d(static_cast<Word>(i));
    sb.b(1);
    for (int i = n; i < 2 * n; ++i)
        sb.d(static_cast<Word>(i * 3 - 7));
    sb.b(2);
    return sb.build();
}

/** A chain of @p stages capacity-1 identity stages from @p in; returns
 * its output channel. Each stage holds one token, so the chain drains
 * a cursor more slowly than a bare sink does. */
Channel *
slowChain(Engine &e, Channel *in, const std::string &name, int stages)
{
    for (int s = 0; s < stages; ++s) {
        Channel *next = e.channel(name + std::to_string(s), 1);
        e.make<ElementWise>(
            name + ".ew" + std::to_string(s), Bundle{in}, Bundle{next},
            perThread([](const std::vector<Word> &v, std::vector<Word> &out) {
                out.push_back(v[0]);
            }));
        in = next;
    }
    return in;
}

/** Flip every channel of @p e between the serial and the locked
 * (Policy::parallel) push/pop paths, as a parallel run does. */
void
setConcurrent(Engine &e, bool on)
{
    for (const auto &ch : e.channels())
        ch->setConcurrent(on);
}

/** @p fn throws std::logic_error whose message names every one of
 * @p parts. */
template <typename Fn>
void
expectLogicError(Fn fn, const std::vector<std::string> &parts)
{
    try {
        fn();
        ADD_FAILURE() << "no std::logic_error";
    } catch (const std::logic_error &err) {
        for (const std::string &part : parts) {
            EXPECT_NE(std::string(err.what()).find(part), std::string::npos)
                << "'" << part << "' missing from: " << err.what();
        }
    }
}

void
expectSameWatch(const Channel::ValueWatch &a, const Channel::ValueWatch &b,
                const std::string &label)
{
    EXPECT_EQ(a.dataPushed, b.dataPushed) << label;
    EXPECT_EQ(a.barriersPushed, b.barriersPushed) << label;
    EXPECT_EQ(a.first, b.first) << label;
    EXPECT_EQ(a.allEqual, b.allEqual) << label;
    EXPECT_EQ(a.smin, b.smin) << label;
    EXPECT_EQ(a.smax, b.smax) << label;
    EXPECT_EQ(a.umin, b.umin) << label;
    EXPECT_EQ(a.umax, b.umax) << label;
}

} // namespace

TEST(Multicast, CursorsDrainAtDifferentRatesAcrossRingGrowth)
{
    // One producer, three cursors: a bare sink, a 2-stage and an
    // 8-stage capacity-1 chain. The worklist source bursts the whole
    // stream before any consumer runs, so the slowest cursor holds
    // back the ring through several doublings; in parallel the
    // consumers interleave arbitrarily with the producer's growth.
    const TokenStream stream = longStream(300);
    for (Engine::Policy policy : kAllPolicies) {
        Engine e(policy);
        e.setNumThreads(kTestWorkers);
        Channel *root = e.channel("root");
        Channel *fast = e.channel("fast");
        Channel *mid = e.channel("mid");
        Channel *slow = e.channel("slow");
        e.make<Source>("src", root, stream);
        e.multicast(root, {fast, mid, slow});
        auto *s_fast = e.make<Sink>("sinkFast", fast);
        auto *s_mid = e.make<Sink>("sinkMid", slowChain(e, mid, "m", 2));
        auto *s_slow =
            e.make<Sink>("sinkSlow", slowChain(e, slow, "s", 8));
        e.run();
        const std::string label = policyName(policy);
        EXPECT_TRUE(e.drained()) << label << ": " << e.stallReport();
        EXPECT_EQ(s_fast->collected(), stream) << label;
        EXPECT_EQ(s_mid->collected(), stream) << label;
        EXPECT_EQ(s_slow->collected(), stream) << label;
        if (policy == Engine::Policy::worklist) {
            EXPECT_EQ(e.schedStats().missedWakeups, 0u);
        }
    }
}

TEST(Multicast, CursorsKeepOrderThroughStaggeredPopsAndGrowth)
{
    // Direct channel traffic: cursor a pops every token, b every third,
    // c nothing until the end, so the ring grows while a and b sit at
    // different offsets inside it.
    Engine e;
    Channel *root = e.channel("root");
    Channel *a = e.channel("a");
    Channel *b = e.channel("b");
    Channel *c = e.channel("c");
    e.multicast(root, {a, b, c});
    Word next_b = 0;
    for (Word i = 0; i < 200; ++i) {
        root->push(Token::data(i));
        EXPECT_EQ(a->pop().word(), i);
        if (i % 3 == 2) {
            for (int k = 0; k < 3; ++k)
                EXPECT_EQ(b->pop().word(), next_b++);
        }
    }
    EXPECT_TRUE(root->empty()) << "the root holds no tokens of its own";
    EXPECT_TRUE(a->empty());
    EXPECT_EQ(b->size(), static_cast<size_t>(200 - next_b));
    EXPECT_EQ(c->size(), 200u);
    EXPECT_EQ(c->front().word(), 0u);
    TokenStream rest_c = c->drain();
    ASSERT_EQ(rest_c.size(), 200u);
    for (size_t i = 0; i < rest_c.size(); ++i)
        EXPECT_EQ(rest_c[i].word(), i);
    for (Word i = next_b; i < 200; ++i)
        EXPECT_EQ(b->pop().word(), i);

    // Reuse: the group resets as one, and a cursor picks up where the
    // producer writes next.
    root->resetForReuse();
    for (Channel *ch : {root, a, b, c}) {
        EXPECT_TRUE(ch->empty()) << ch->name();
        EXPECT_EQ(ch->totalPushed(), 0u) << ch->name();
    }
    root->push(Token::barrier(1));
    for (Channel *ch : {a, b, c})
        EXPECT_EQ(ch->pop(), Token::barrier(1)) << ch->name();
}

TEST(Multicast, CursorStatsEqualTheGroups)
{
    // Every link of a group reports what a copying fanout would have
    // pushed onto it: the producer's lifetime count and value watch.
    const TokenStream stream = longStream(40);
    Channel reference("reference");
    reference.setValueWatch(true);
    reference.pushAll(stream);
    for (Engine::Policy policy : kAllPolicies) {
        Engine e(policy);
        e.setNumThreads(kTestWorkers);
        Channel *root = e.channel("root");
        Channel *x = e.channel("x");
        Channel *y = e.channel("y");
        e.make<Source>("src", root, stream);
        e.multicast(root, {x, y});
        root->setValueWatch(true);
        e.make<Sink>("sinkX", x);
        e.make<Sink>("sinkY", slowChain(e, y, "y", 3));
        e.run();
        const std::string label = policyName(policy);
        EXPECT_TRUE(e.drained()) << label;
        for (const Channel *ch : {root, x, y}) {
            EXPECT_EQ(ch->totalPushed(), reference.totalPushed())
                << label << " " << ch->name();
            expectSameWatch(ch->watch(), reference.watch(),
                            label + " " + ch->name());
        }
    }
}

TEST(Multicast, FanoutChainResolvesToOneGroup)
{
    // fan1: in -> {a, b}; fan2: a -> {c, d}, wired in both orders. The
    // chain link a joins the root's group as a non-reading link, and
    // b, c, d become the group's three cursors.
    const TokenStream stream = longStream(50);
    for (bool parent_first : {true, false}) {
        for (Engine::Policy policy : kAllPolicies) {
            Engine e(policy);
            e.setNumThreads(kTestWorkers);
            Channel *in = e.channel("in");
            Channel *a = e.channel("a");
            Channel *b = e.channel("b");
            Channel *c = e.channel("c");
            Channel *d = e.channel("d");
            if (parent_first) {
                e.multicast(in, {a, b});
                e.multicast(a, {c, d});
            } else {
                e.multicast(a, {c, d});
                e.multicast(in, {a, b});
            }
            const std::string label = std::string(policyName(policy)) +
                (parent_first ? " parent-first" : " child-first");
            for (const Channel *ch : {in, a, b, c, d})
                EXPECT_EQ(ch->ringRoot(), in) << label << ch->name();
            EXPECT_FALSE(in->isMulticastCursor()) << label;
            EXPECT_FALSE(a->isMulticastCursor()) << label;
            for (const Channel *ch : {b, c, d})
                EXPECT_TRUE(ch->isMulticastCursor()) << label << ch->name();
            EXPECT_EQ(in->readers().size(), 3u) << label;

            e.make<Source>("src", in, stream);
            auto *sb = e.make<Sink>("sinkB", b);
            auto *sc = e.make<Sink>("sinkC", slowChain(e, c, "c", 2));
            auto *sd = e.make<Sink>("sinkD", d);
            e.run();
            EXPECT_TRUE(e.drained()) << label;
            for (const Sink *s : {sb, sc, sd})
                EXPECT_EQ(s->collected(), stream) << label << s->name();
            for (const Channel *ch : {a, b, c, d})
                EXPECT_EQ(ch->totalPushed(), in->totalPushed()) << label;
        }
    }
}

namespace
{

void
cnst(graph::Node &blk, int dst, Word imm)
{
    graph::BlockOp op;
    op.kind = graph::OpKind::cnst;
    op.dst = dst;
    op.imm = imm;
    blk.ops.push_back(op);
}

void
binop(graph::Node &blk, graph::OpKind kind, int dst, int a, int b)
{
    graph::BlockOp op;
    op.kind = kind;
    op.dst = dst;
    op.a = a;
    op.b = b;
    blk.ops.push_back(op);
}

/**
 * The fuzz generator's stageFanout shape, applied twice to one lane:
 * counter 0..n -> fan1 -> {lane', extra1}, then fan2(lane') ->
 * {lane'', extra2}. Block k writes out[k*n + i] = i * (k + 2) from
 * one of the three leaves.
 */
graph::Dfg
fanoutChainGraph(int n)
{
    using graph::NodeKind;
    graph::Dfg g;
    auto &src = g.newNode(NodeKind::source, "__start");
    int lstart = g.newLink("start");
    g.connectOut(src.id, lstart);
    auto &bounds = g.newNode(NodeKind::block, "bounds");
    g.connectIn(bounds.id, lstart);
    bounds.inputRegs = {0};
    bounds.nRegs = 4;
    cnst(bounds, 1, 0);
    cnst(bounds, 2, static_cast<Word>(n));
    cnst(bounds, 3, 1);
    int lmin = g.newLink("min"), lmax = g.newLink("max"),
        lstep = g.newLink("step");
    bounds.outputRegs = {1, 2, 3};
    for (int l : {lmin, lmax, lstep})
        g.connectOut(bounds.id, l);
    auto &ctr = g.newNode(NodeKind::counter, "threads");
    for (int l : {lmin, lmax, lstep})
        g.connectIn(ctr.id, l);
    int lane = g.newLink("lane");
    g.connectOut(ctr.id, lane);

    std::vector<int> leaves;
    for (int f = 0; f < 2; ++f) {
        auto &fan = g.newNode(NodeKind::fanout, "fan" + std::to_string(f));
        g.connectIn(fan.id, lane);
        int keep = g.newLink("lane" + std::to_string(f));
        int extra = g.newLink("extra" + std::to_string(f));
        g.connectOut(fan.id, keep);
        g.connectOut(fan.id, extra);
        lane = keep;
        leaves.push_back(extra);
    }
    leaves.push_back(lane);

    for (size_t k = 0; k < leaves.size(); ++k) {
        auto &wr = g.newNode(NodeKind::block, "write" + std::to_string(k));
        g.connectIn(wr.id, leaves[k]);
        wr.inputRegs = {0};
        wr.nRegs = 5;
        cnst(wr, 1, static_cast<Word>(k * n));
        binop(wr, graph::OpKind::add, 2, 0, 1);
        cnst(wr, 3, static_cast<Word>(k + 2));
        binop(wr, graph::OpKind::mul, 4, 0, 3);
        graph::BlockOp st;
        st.kind = graph::OpKind::dramWrite;
        st.a = 2;
        st.b = 4;
        st.dram = 0;
        wr.ops.push_back(st);
    }
    g.verify();
    return g;
}

} // namespace

TEST(Multicast, CompiledFanoutChainRunsAsOneGroup)
{
    const int n = 40;
    graph::Dfg g = fanoutChainGraph(n);
    const auto prog = graph::BytecodeProgram::compile(g);
    const lang::Program hir =
        lang::parseAndAnalyze("DRAM<int> out; void main() {}");
    std::vector<int> chain; // the counter's lane, then both fans' outputs
    for (const graph::Node &node : g.nodes) {
        if (node.kind != graph::NodeKind::fanout)
            continue;
        if (chain.empty())
            chain.push_back(node.ins[0]);
        chain.insert(chain.end(), node.outs.begin(), node.outs.end());
    }
    ASSERT_EQ(chain.size(), 5u);

    graph::ExecutionContext ctx(prog);
    for (Engine::Policy policy : kAllPolicies) {
        for (int rep = 0; rep < 2; ++rep) { // fresh, then reused
            const bool watched = rep == 1;
            ctx.setValueWatch(watched);
            lang::DramImage dram(hir);
            dram.resize("out", 3 * n);
            auto stats = ctx.run(dram, {}, policy, kTestWorkers);
            const std::string label = std::string(policyName(policy)) +
                " run " + std::to_string(rep);
            EXPECT_TRUE(stats.drained) << label;
            auto out = dram.read<int32_t>("out");
            for (int k = 0; k < 3; ++k) {
                for (int i = 0; i < n; ++i)
                    EXPECT_EQ(out[k * n + i], i * (k + 2))
                        << label << " leaf " << k << " thread " << i;
            }
            // n threads plus the counter's two closing barriers on
            // every link of the group, as a copying fanout pushed; the
            // value summary only when the watch is on.
            EXPECT_EQ(stats.linkValues.size(), watched ? g.links.size() : 0)
                << label;
            for (int l : chain) {
                EXPECT_EQ(stats.linkTokens[l], static_cast<uint64_t>(n + 2))
                    << label << " link " << g.links[l].name;
                EXPECT_EQ(stats.linkBarriers[l], 2u) << label;
                if (watched) {
                    EXPECT_EQ(stats.linkValues[l].umax,
                              static_cast<Word>(n - 1))
                        << label;
                }
            }
        }
    }
}

TEST(Multicast, BoundedCursorStallsAndWakesItsProducer)
{
    // A capacity-2 cursor behind a 4-stage chain throttles the source:
    // the producer may only run two tokens ahead of the slow consumer,
    // so it blocks and must be woken by that cursor's full -> non-full
    // edge (the fast cursor never fills).
    const TokenStream stream = longStream(60);
    for (Engine::Policy policy : kAllPolicies) {
        Engine e(policy);
        e.setNumThreads(kTestWorkers);
        // The root holds no tokens, so its own capacity never gates.
        Channel *root = e.channel("root", 0);
        Channel *fast = e.channel("fast");
        Channel *tight = e.channel("tight", 2);
        auto *src = e.make<Source>("src", root, stream);
        e.multicast(root, {fast, tight});
        auto *s_fast = e.make<Sink>("sinkFast", fast);
        auto *s_tight =
            e.make<Sink>("sinkTight", slowChain(e, tight, "t", 4));
        e.run();
        const std::string label = policyName(policy);
        EXPECT_TRUE(src->done()) << label;
        EXPECT_TRUE(e.drained()) << label << ": " << e.stallReport();
        EXPECT_EQ(s_fast->collected(), stream) << label;
        EXPECT_EQ(s_tight->collected(), stream) << label;
        if (policy == Engine::Policy::worklist) {
            EXPECT_EQ(e.schedStats().missedWakeups, 0u)
                << "the producer's wakeup came from the rescan";
            EXPECT_GT(e.schedStats().wakeups, 0u);
        }
    }
}

TEST(Multicast, StallReportNamesTheGroupsProducer)
{
    // A capacity-2 cursor with no reader: the source pushes twice and
    // stalls for good. The report names the full cursor behind the
    // producer's full output, and names the producer against the
    // cursor's stalled tokens.
    for (Engine::Policy policy : kAllPolicies) {
        Engine e(policy);
        e.setNumThreads(kTestWorkers);
        Channel *root = e.channel("root");
        Channel *fast = e.channel("fast");
        Channel *stuck = e.channel("stuck", 2);
        auto *src = e.make<Source>("stuckSrc", root, longStream(10));
        e.multicast(root, {fast, stuck});
        auto *sink = e.make<Sink>("sink", fast);
        e.run();
        const std::string label = policyName(policy);
        EXPECT_FALSE(src->done()) << label;
        EXPECT_EQ(sink->collected().size(), 2u) << label;
        EXPECT_EQ(stuck->size(), 2u) << label;
        EXPECT_FALSE(root->canPush()) << label;
        const std::string report = e.stallReport();
        EXPECT_NE(report.find("stuck(2 head=0, multicast of root from "
                              "stuckSrc)"),
                  std::string::npos)
            << label << ": " << report;
        EXPECT_NE(report.find("stuckSrc"), std::string::npos) << report;
        EXPECT_NE(report.find("full outputs:[root->{stuck}]"),
                  std::string::npos)
            << label << ": " << report;
    }
}

TEST(Multicast, RejectsWiringThatBreaksOneWriterOneReader)
{
    Engine e;
    Channel *in = e.channel("in");
    Channel *a = e.channel("a");
    Channel *b = e.channel("b");
    Channel *fed = e.channel("fed");
    e.make<Source>("src", fed, StreamBuilder().d(1).b(1));
    e.multicast(in, {a, b});

    EXPECT_THROW(e.multicast(in, {e.channel("x")}), std::logic_error)
        << "a root already has its readers";
    EXPECT_THROW(e.multicast(e.channel("y"), {a}), std::logic_error)
        << "a cursor already has a writer";
    EXPECT_THROW(e.multicast(e.channel("z"), {fed}), std::logic_error)
        << "a source's channel already has a writer";
    EXPECT_THROW(e.multicast(a, {in}), std::logic_error)
        << "a group cannot feed itself";
    EXPECT_THROW(e.multicast(e.channel("u"), {}), std::logic_error);
    Channel *dup = e.channel("dup");
    EXPECT_THROW(e.multicast(b, {dup, dup}), std::logic_error);
    Engine other;
    EXPECT_THROW(e.multicast(e.channel("w"), {other.channel("v")}),
                 std::logic_error);

    EXPECT_THROW(e.make<Sink>("readsRoot", in), std::logic_error)
        << "the root has no reader of its own";
    EXPECT_THROW(e.make<Source>("writesCursor", a, TokenStream{}),
                 std::logic_error);
    EXPECT_THROW(a->push(Token::data(1)), std::runtime_error);

    // A point-to-point link is a one-reader ring: a second reader or a
    // second writer is refused by name, and leaves the first wired.
    Channel *plain = e.channel("plain");
    auto *first = e.make<Sink>("firstReader", plain);
    expectLogicError([&] { e.make<Sink>("secondReader", plain); },
                     {"secondReader", "'plain'", "firstReader"});
    EXPECT_EQ(plain->consumer(), first);
    expectLogicError(
        [&] { e.make<Source>("secondWriter", fed, TokenStream{}); },
        {"secondWriter", "'fed'", "src"});
    EXPECT_EQ(fed->producer()->name(), "src");
}

TEST(Multicast, OverflowOnTheSecondBoundedCursorChangesNothing)
{
    // Two bounded cursors; the second fills first. The push that finds
    // it full throws before writing, recording or counting anything.
    for (bool locked : {false, true}) {
        Engine e;
        Channel *root = e.channel("root");
        Channel *roomy = e.channel("roomy", 3);
        Channel *tight = e.channel("tight", 2);
        e.multicast(root, {roomy, tight});
        root->setValueWatch(true);
        setConcurrent(e, locked);
        const std::string label = locked ? "locked" : "serial";
        root->push(Token::data(7));
        root->push(Token::data(9));
        EXPECT_FALSE(root->canPush()) << label;
        const Channel::ValueWatch before = root->watch();
        try {
            root->push(Token::data(11));
            ADD_FAILURE() << label << ": push on a full cursor did not throw";
        } catch (const std::runtime_error &err) {
            EXPECT_NE(std::string(err.what()).find("'tight' overflow"),
                      std::string::npos)
                << label << ": " << err.what();
        }
        for (const Channel *ch : {root, roomy, tight}) {
            EXPECT_EQ(ch->totalPushed(), 2u) << label << " " << ch->name();
            expectSameWatch(ch->watch(), before, label + " " + ch->name());
        }
        EXPECT_EQ(roomy->size(), 2u) << label;
        EXPECT_EQ(tight->size(), 2u) << label;
        // The rejected token is nowhere: popping the full cursor frees
        // room, and the next push lands after the two accepted ones.
        EXPECT_EQ(tight->pop(), Token::data(7)) << label;
        EXPECT_TRUE(root->canPush()) << label;
        root->push(Token::data(13));
        setConcurrent(e, false);
        EXPECT_EQ(roomy->drain(), (TokenStream)StreamBuilder().d(7).d(9).d(13))
            << label;
        EXPECT_EQ(tight->drain(), (TokenStream)StreamBuilder().d(9).d(13))
            << label;
    }
}

TEST(Multicast, ResetForReuseInAnyMemberOrder)
{
    // Members of one ring — root, chain link, three cursors — and a
    // plain channel, reset in every order: all end empty with a clean
    // count, and the next push reaches every cursor.
    Engine e;
    Channel *in = e.channel("in");
    Channel *a = e.channel("a");
    Channel *b = e.channel("b");
    Channel *c = e.channel("c");
    Channel *d = e.channel("d");
    Channel *plain = e.channel("plain");
    e.multicast(in, {a, b});
    e.multicast(a, {c, d}); // a retires to a chain link
    std::vector<Channel *> members = {in, a, b, c, d, plain};
    std::vector<size_t> order = {0, 1, 2, 3, 4, 5};
    int orders = 0;
    do {
        const std::string label = "order " + std::to_string(orders);
        for (Word i = 0; i < 20; ++i)
            in->push(Token::data(i));
        for (Word i = 0; i < 5; ++i)
            plain->push(Token::data(100 + i));
        for (int k = 0; k < 7; ++k)
            c->pop();
        plain->pop();
        for (size_t i : order)
            members[i]->resetForReuse();
        for (const Channel *ch : members) {
            EXPECT_TRUE(ch->empty()) << label << " " << ch->name();
            EXPECT_EQ(ch->totalPushed(), 0u) << label << " " << ch->name();
        }
        in->push(Token::barrier(1));
        plain->push(Token::data(5));
        for (Channel *ch : {b, c, d})
            EXPECT_EQ(ch->pop(), Token::barrier(1)) << label << ch->name();
        EXPECT_EQ(plain->pop(), Token::data(5)) << label;
        for (const Channel *ch : members)
            EXPECT_EQ(ch->totalPushed(), 1u) << label << " " << ch->name();
        ++orders;
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(orders, 720);
}

TEST(Multicast, RingGrowsRightAfterTheWriteThatFillsIt)
{
    // The ring starts at 16 slots and doubles on the write that leaves
    // its slowest reader holding a token in every slot: at exactly 16
    // and 32 pending tokens. Pops first move the head off slot 0, so
    // each growth unwraps a wrapped ring.
    for (bool locked : {false, true}) {
        const std::string label = locked ? "locked" : "serial";
        Engine e;
        Channel *solo = e.channel("solo");
        Channel *root = e.channel("root");
        Channel *fast = e.channel("fast");
        Channel *slow = e.channel("slow");
        e.multicast(root, {fast, slow}); // the slowest reader is second
        setConcurrent(e, locked);
        for (Channel *ring : {solo, root}) {
            const std::vector<Channel *> readers =
                ring == solo ? std::vector<Channel *>{solo}
                             : std::vector<Channel *>{fast, slow};
            Channel *full = readers.back(); // pops nothing below
            for (Word i = 0; i < 5; ++i) {
                ring->push(Token::data(1000 + i));
                for (Channel *r : readers)
                    r->pop();
            }
            for (Word i = 0; i < 40; ++i) {
                ring->push(Token::data(i));
                if (ring == root) {
                    EXPECT_EQ(fast->pop(), Token::data(i)) << label;
                }
                const size_t pending = i + 1;
                const size_t want =
                    pending < 16 ? 16 : pending < 32 ? 32 : 64;
                for (const Channel *r : readers) {
                    EXPECT_EQ(r->ringSlots(), want)
                        << label << " " << r->name() << " at " << pending;
                }
            }
            TokenStream rest = full->drain();
            ASSERT_EQ(rest.size(), 40u) << label;
            for (Word i = 0; i < 40; ++i)
                EXPECT_EQ(rest[i], Token::data(i)) << label << ring->name();
        }
    }
}

// ---------------------------------------------------------------------
// Bundle rings: a producer's output lanes share one ring, and the lanes
// of one consumer argument on one ring share one cursor.

namespace
{

/** An ElementWise fanning one lane out to @p outs lanes, lane j
 * carrying v * (j + 1). */
ElementWise *
spread(Engine &e, const std::string &name, Channel *in, const Bundle &outs)
{
    return e.make<ElementWise>(name, Bundle{in}, outs,
                               [](const LaneRun &run) {
                                   for (size_t j = 0; j < run.outs; ++j) {
                                       for (size_t t = 0; t < run.n; ++t)
                                           run.out[j][t] =
                                               run.in[0][t] *
                                               static_cast<Word>(j + 1);
                                   }
                               });
}

/** An ElementWise summing its input lanes into one. */
ElementWise *
sum(Engine &e, const std::string &name, const Bundle &ins, Channel *out)
{
    return e.make<ElementWise>(name, ins, Bundle{out},
                               [](const LaneRun &run) {
                                   for (size_t t = 0; t < run.n; ++t) {
                                       Word s = 0;
                                       for (size_t i = 0; i < run.ins; ++i)
                                           s += run.in[i][t];
                                       run.out[0][t] = s;
                                   }
                               });
}

/** @p stream with every data word mapped through @p f. */
TokenStream
mapData(const TokenStream &stream, Word (*f)(Word))
{
    TokenStream out;
    for (const Token &tok : stream)
        out.push_back(tok.isData() ? Token::data(f(tok.word())) : tok);
    return out;
}

} // namespace

TEST(Multicast, ArgumentGroupsTwoColumnsOfOneRingBesideAnotherRing)
{
    // x0 and x1 are two columns of one ring; y is another producer's.
    // The consumer's one argument {x1, y, x0} reads through two
    // cursors, and a barrier-level mismatch between them is still a
    // misaligned bundle.
    const TokenStream stream = longStream(40);
    for (Engine::Policy policy : kAllPolicies) {
        const std::string label = policyName(policy);
        Engine e(policy);
        e.setNumThreads(kTestWorkers);
        Channel *in = e.channel("in");
        Channel *x0 = e.channel("x0");
        Channel *x1 = e.channel("x1");
        Channel *y = e.channel("y");
        Channel *z = e.channel("z");
        e.make<Source>("srcX", in, stream);
        e.make<Source>("srcY", y, stream);
        spread(e, "spread", in, {x0, x1});
        sum(e, "sum", {x1, y, x0}, z);
        auto *sink = e.make<Sink>("sink", z);
        EXPECT_EQ(x0->ring(), x1->ring()) << label;
        EXPECT_EQ(x0->ring()->width(), 2u) << label;
        EXPECT_EQ(x0->cursor(), x1->cursor()) << label;
        EXPECT_NE(y->cursor(), x0->cursor()) << label;
        e.run();
        EXPECT_TRUE(e.drained()) << label << ": " << e.stallReport();
        EXPECT_EQ(sink->collected(),
                  mapData(stream, [](Word w) { return w * 4; }))
            << label;

        // The same wiring with y's first barrier one level deeper.
        Engine bad(policy);
        bad.setNumThreads(kTestWorkers);
        in = bad.channel("in");
        x0 = bad.channel("x0");
        x1 = bad.channel("x1");
        y = bad.channel("y");
        z = bad.channel("z");
        bad.make<Source>("srcX", in, StreamBuilder().d(1).d(2).b(1));
        bad.make<Source>("srcY", y, StreamBuilder().d(3).d(4).b(2));
        spread(bad, "spread", in, {x0, x1});
        sum(bad, "sum", {x1, y, x0}, z);
        bad.make<Sink>("sink", z);
        try {
            bad.run();
            ADD_FAILURE() << label << ": no misalignment reported";
        } catch (const std::runtime_error &err) {
            EXPECT_NE(std::string(err.what()).find(
                          "[sum] bundle misaligned: barriers B1 vs B2"),
                      std::string::npos)
                << label << ": " << err.what();
        }
    }
}

TEST(Multicast, OneCursorReadsAColumnTwice)
{
    // Both outputs of one fanout feed one argument: a single cursor
    // whose column map names the column twice.
    const TokenStream stream = longStream(60);
    for (Engine::Policy policy : kAllPolicies) {
        const std::string label = policyName(policy);
        Engine e(policy);
        e.setNumThreads(kTestWorkers);
        Channel *in = e.channel("in");
        Channel *o = e.channel("o");
        Channel *o1 = e.channel("o1");
        Channel *o2 = e.channel("o2");
        Channel *z = e.channel("z");
        e.make<Source>("src", in, stream);
        spread(e, "copy", in, {o});
        e.multicast(o, {o1, o2});
        sum(e, "sum", {o1, o2}, z);
        auto *sink = e.make<Sink>("sink", z);
        ASSERT_EQ(o1->cursor(), o2->cursor()) << label;
        const auto &lanes = o1->cursor()->lanes();
        ASSERT_EQ(lanes.size(), 2u) << label;
        EXPECT_EQ(lanes[0].col, lanes[1].col) << label;
        EXPECT_NE(lanes[0].pos, lanes[1].pos) << label;
        e.run();
        EXPECT_TRUE(e.drained()) << label << ": " << e.stallReport();
        EXPECT_EQ(sink->collected(),
                  mapData(stream, [](Word w) { return w * 2; }))
            << label;
        EXPECT_EQ(o1->totalPushed(), stream.size()) << label;
    }
}

TEST(Backpressure, BoundedCursorInAGroupThrottlesItsRing)
{
    // Lane x1 holds two tokens and x0 none of its own bound: their
    // shared cursor takes x1's capacity, so the producer's ring may run
    // only two tokens ahead of the slow chain behind it, while x2's
    // sink drains at once.
    const TokenStream stream = longStream(50);
    for (Engine::Policy policy : kAllPolicies) {
        const std::string label = policyName(policy);
        Engine e(policy);
        e.setNumThreads(kTestWorkers);
        Channel *in = e.channel("in");
        Channel *x0 = e.channel("x0");
        Channel *x1 = e.channel("x1", 2);
        Channel *x2 = e.channel("x2");
        Channel *z = e.channel("z");
        e.make<Source>("src", in, stream);
        spread(e, "spread", in, {x0, x1, x2});
        sum(e, "sum", {x0, x1}, z);
        auto *slow = e.make<Sink>("slow", slowChain(e, z, "z", 4));
        auto *fast = e.make<Sink>("fast", x2);
        ASSERT_EQ(x0->cursor(), x1->cursor()) << label;
        EXPECT_EQ(x2->room(), 2u) << label;
        e.run();
        EXPECT_TRUE(e.drained()) << label << ": " << e.stallReport();
        EXPECT_EQ(fast->collected(),
                  mapData(stream, [](Word w) { return w * 3; }))
            << label;
        EXPECT_EQ(slow->collected(),
                  mapData(stream, [](Word w) { return w * 3; }))
            << label;
        if (policy == Engine::Policy::worklist) {
            EXPECT_EQ(e.schedStats().missedWakeups, 0u)
                << label << ": the producer's wakeup came from the rescan";
        }
    }
}

TEST(Multicast, LanesArrivingDirectlyAndThroughFanoutsShareACursor)
{
    // a and b are one producer's two columns; a reaches the consumer
    // through a fanout (a -> {a1, a2}), b directly. Whatever order the
    // producer, the consumer and the fanout are wired in, {b, a1} is
    // one cursor.
    const TokenStream stream = longStream(30);
    for (Engine::Policy policy : kAllPolicies) {
        std::vector<int> order = {0, 1, 2};
        do {
            std::string label = policyName(policy);
            for (int step : order)
                label += " " + std::to_string(step);
            Engine e(policy);
            e.setNumThreads(kTestWorkers);
            Channel *in = e.channel("in");
            Channel *a = e.channel("a");
            Channel *b = e.channel("b");
            Channel *a1 = e.channel("a1");
            Channel *a2 = e.channel("a2");
            Channel *z = e.channel("z");
            e.make<Source>("src", in, stream);
            for (int step : order) {
                if (step == 0)
                    spread(e, "spread", in, {a, b});
                else if (step == 1)
                    sum(e, "sum", {b, a1}, z);
                else
                    e.multicast(a, {a1, a2});
            }
            auto *sum_sink = e.make<Sink>("sumSink", z);
            auto *a2_sink = e.make<Sink>("a2Sink", a2);
            EXPECT_EQ(a1->cursor(), b->cursor()) << label;
            EXPECT_EQ(a1->ring(), b->ring()) << label;
            EXPECT_EQ(a1->ringRoot(), a) << label;
            EXPECT_EQ(a1->cursor()->lanes().size(), 2u) << label;
            e.run();
            EXPECT_TRUE(e.drained()) << label << ": " << e.stallReport();
            EXPECT_EQ(sum_sink->collected(),
                      mapData(stream, [](Word w) { return w * 3; }))
                << label;
            EXPECT_EQ(a2_sink->collected(), stream) << label;
        } while (std::next_permutation(order.begin(), order.end()));
    }
}

TEST(Multicast, BundleRingNotifiesOncePerPush)
{
    // A 4-lane bundle from one producer reaches its consumer through
    // one cursor. Capacity-1 lanes make every push land on an empty
    // cursor, so each push is one notification: one per token, plus
    // the source's single push, where a cursor per lane made four per
    // token.
    StreamBuilder sb;
    for (int i = 0; i < 12; ++i) {
        sb.d(static_cast<Word>(i));
        if (i % 4 == 3)
            sb.b(1);
    }
    const TokenStream stream = sb.build();
    for (Engine::Policy policy : kAllPolicies) {
        const std::string label = policyName(policy);
        Engine e(policy);
        e.setNumThreads(kTestWorkers);
        Channel *in = e.channel("in");
        Bundle lanes;
        for (int j = 0; j < 4; ++j)
            lanes.push_back(e.channel("l" + std::to_string(j), 1));
        e.make<Source>("src", in, stream);
        spread(e, "spread", in, lanes);
        std::vector<Word> seen;
        e.make<ElementWise>("take", lanes, Bundle{},
                            [&seen](const LaneRun &run) {
                                for (size_t t = 0; t < run.n; ++t) {
                                    for (size_t i = 0; i < run.ins; ++i)
                                        seen.push_back(run.in[i][t]);
                                }
                            });
        ASSERT_EQ(lanes[0]->cursor()->lanes().size(), 4u) << label;
        e.run();
        EXPECT_TRUE(e.drained()) << label << ": " << e.stallReport();
        EXPECT_EQ(seen.size(), 4u * 12) << label;
        EXPECT_EQ(e.schedStats().notifications, 1 + stream.size()) << label;
    }
}
