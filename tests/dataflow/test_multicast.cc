/**
 * @file
 * Multicast groups: link fan-out as read cursors over one producer's
 * ring (Engine::multicast, channel.hh).
 *
 * Every engine-run case runs under the worklist and under the parallel
 * policy at 4 workers, so the group protocol (one lock per group, a
 * size mirror per cursor, per-cursor wakeups) also runs with real
 * cross-thread traffic; scripts/check.sh --tsan re-runs this suite
 * under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dataflow/engine.hh"
#include "graph/bytecode.hh"
#include "graph/dfg.hh"
#include "lang/parse.hh"
#include "sltf/codec.hh"

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
            [](const std::vector<Word> &v, std::vector<Word> &out) {
                out.push_back(v[0]);
            });
        in = next;
    }
    return in;
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
    reference.pushAll(stream);
    for (Engine::Policy policy : kAllPolicies) {
        Engine e(policy);
        e.setNumThreads(kTestWorkers);
        Channel *root = e.channel("root");
        Channel *x = e.channel("x");
        Channel *y = e.channel("y");
        e.make<Source>("src", root, stream);
        e.multicast(root, {x, y});
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
            for (const Channel *ch : {in, a, b, c, d}) {
                ASSERT_NE(ch->multicastGroup(), nullptr) << label;
                EXPECT_EQ(ch->multicastGroup()->root, in)
                    << label << ch->name();
            }
            EXPECT_FALSE(in->isMulticastCursor()) << label;
            EXPECT_FALSE(a->isMulticastCursor()) << label;
            for (const Channel *ch : {b, c, d})
                EXPECT_TRUE(ch->isMulticastCursor()) << label << ch->name();
            EXPECT_EQ(in->multicastGroup()->cursors.size(), 3u) << label;

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
            lang::DramImage dram(hir);
            dram.resize("out", 3 * n * 4);
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
            // every link of the group, as a copying fanout pushed.
            for (int l : chain) {
                EXPECT_EQ(stats.linkTokens[l], static_cast<uint64_t>(n + 2))
                    << label << " link " << g.links[l].name;
                EXPECT_EQ(stats.linkBarriers[l], 2u) << label;
                EXPECT_EQ(stats.linkValues[l].umax,
                          static_cast<Word>(n - 1))
                    << label;
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
}
