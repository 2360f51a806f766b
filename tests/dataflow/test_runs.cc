/**
 * @file
 * Run-at-a-time firing against one token at a time.
 *
 * A firing moves a whole data run, and a quantum stays one thread or
 * barrier moved, so a network must give the same outputs and the same
 * total quanta however its firings are cut. The property tests build
 * small networks around every primitive on seeded random well-formed
 * SLTF streams, over unbounded and small bounded channels, and drive
 * each three ways: runQuanta(1) loops (every firing moves one thread
 * or one barrier), Engine::run under the worklist, and Engine::run on
 * two parallel workers.
 *
 * The channel cases pin the run API itself: a run that wraps the ring
 * end, ring growth mid-run under two multicast cursors at different
 * lags, a bounded reader that cuts a run to its room, the value watch
 * of a run against per-token pushes, and one consumer wakeup per
 * empty -> non-empty run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "dataflow/engine.hh"

#include "per_thread.hh"

using namespace revet::dataflow;
using revet::sltf::StreamBuilder;
using revet::sltf::Token;
using revet::sltf::TokenStream;
using revet::sltf::Word;

namespace
{

/** Append a random dim-@p dim tensor: up to 12 threads per innermost
 * group, up to 4 groups per outer one, empty groups included. */
void
emitTensor(std::mt19937 &rng, int dim, TokenStream &out)
{
    if (dim == 0) {
        out.push_back(Token::data(static_cast<Word>(rng())));
        return;
    }
    const unsigned kids = rng() % (dim == 1 ? 13 : 5);
    for (unsigned i = 0; i < kids; ++i)
        emitTensor(rng, dim - 1, out);
    out.push_back(Token::barrier(dim));
}

/** A random well-formed explicit SLTF stream of 1-3 dim-@p dim
 * tensors. */
TokenStream
randomStream(std::mt19937 &rng, int dim)
{
    TokenStream out;
    const unsigned n = 1 + rng() % 3;
    for (unsigned i = 0; i < n; ++i)
        emitTensor(rng, dim, out);
    return out;
}

/** @p shape with every data word replaced by draw(): another lane of
 * the same threads. */
TokenStream
relabel(const TokenStream &shape, const std::function<Word()> &draw)
{
    TokenStream out;
    for (const Token &tok : shape)
        out.push_back(tok.isData() ? Token::data(draw()) : tok);
    return out;
}

/** A network under test, and the processes the token loop drives. */
struct Net
{
    Engine e;
    std::vector<Process *> procs;
    std::vector<Sink *> sinks;
    size_t cap = Channel::unbounded; ///< capacity of the wires' channels

    template <typename P, typename... Args>
    P *
    add(Args &&...args)
    {
        P *p = e.make<P>(std::forward<Args>(args)...);
        procs.push_back(p);
        return p;
    }

    Channel *
    ch(const std::string &name, bool bounded = true)
    {
        return e.channel(name, bounded ? cap : Channel::unbounded);
    }

    Channel *
    source(const std::string &name, const TokenStream &stream)
    {
        Channel *c = ch(name);
        add<Source>(name + ".src", c, stream);
        return c;
    }

    void sink(Channel *c) { sinks.push_back(add<Sink>("sink", c)); }
};

using Wire = std::function<void(Net &, std::mt19937 &)>;

enum class Drive { tokenLoop, worklist, parallel };

struct Outcome
{
    std::vector<TokenStream> outs;
    uint64_t quanta = 0;
    bool drained = false;
};

Outcome
drive(const Wire &wire, unsigned seed, size_t cap, Drive how)
{
    Net net;
    net.cap = cap;
    std::mt19937 rng(seed);
    wire(net, rng);
    Outcome out;
    if (how == Drive::tokenLoop) {
        for (bool progress = true; progress;) {
            progress = false;
            for (Process *p : net.procs) {
                while (const int q = p->runQuanta(1)) {
                    out.quanta += static_cast<uint64_t>(q);
                    progress = true;
                }
            }
        }
    } else {
        net.e.setPolicy(how == Drive::worklist ? Engine::Policy::worklist
                                               : Engine::Policy::parallel);
        net.e.setNumThreads(2);
        net.e.run();
        out.quanta = net.e.schedStats().quanta;
    }
    out.drained = net.e.drained();
    for (const Sink *s : net.sinks)
        out.outs.push_back(s->collected());
    return out;
}

/** Two aligned lanes of one random dim-@p dim stream. */
std::pair<TokenStream, TokenStream>
alignedPair(std::mt19937 &rng, int dim)
{
    const TokenStream a = randomStream(rng, dim);
    return {a, relabel(a, [&rng] { return static_cast<Word>(rng()); })};
}

void
wireElementWise(Net &n, std::mt19937 &rng)
{
    const TokenStream a = randomStream(rng, 1 + rng() % 3);
    auto draw = [&rng] { return static_cast<Word>(rng()); };
    Bundle ins{n.source("a", a), n.source("b", relabel(a, draw)),
               n.source("c", relabel(a, draw))};
    Bundle outs{n.ch("x"), n.ch("y")};
    n.add<ElementWise>("ew", ins, outs, [](const LaneRun &run) {
        for (size_t t = 0; t < run.n; ++t) {
            run.out[0][t] = run.in[0][t] + run.in[1][t] * run.in[2][t];
            run.out[1][t] = run.in[0][t] ^ run.in[2][t];
        }
    });
    n.sink(outs[0]);
    n.sink(outs[1]);
}

void
wireFilter(Net &n, std::mt19937 &rng)
{
    const auto [d1, d2] = alignedPair(rng, 1 + rng() % 3);
    const TokenStream pred =
        relabel(d1, [&rng] { return static_cast<Word>(rng() % 3 == 0); });
    Bundle outs{n.ch("k1"), n.ch("k2")};
    n.add<Filter>("filter", n.source("p", pred),
                  Bundle{n.source("d1", d1), n.source("d2", d2)}, outs,
                  rng() % 2 == 0);
    n.sink(outs[0]);
    n.sink(outs[1]);
}

void
wireForwardMerge(Net &n, std::mt19937 &rng)
{
    // Split one stream's threads between two branches, as a filter
    // pair does: both keep every barrier.
    const TokenStream all = randomStream(rng, 1 + rng() % 3);
    TokenStream a, b;
    for (const Token &tok : all) {
        const bool to_a = tok.isBarrier() || rng() % 2 == 0;
        if (to_a)
            a.push_back(tok);
        if (tok.isBarrier() || !to_a)
            b.push_back(tok);
    }
    auto draw = [&rng] { return static_cast<Word>(rng()); };
    Bundle outs{n.ch("o1"), n.ch("o2")};
    n.add<ForwardMerge>(
        "merge", Bundle{n.source("a1", a), n.source("a2", relabel(a, draw))},
        Bundle{n.source("b1", b), n.source("b2", relabel(b, draw))}, outs);
    n.sink(outs[0]);
    n.sink(outs[1]);
}

void
wireWhileLoop(Net &n, std::mt19937 &rng)
{
    // Each thread loops until its count (1-4) runs out. Only the entry
    // and exit edges take the bounded capacity: the loop body buffers a
    // whole batch while the merge drains it.
    const TokenStream ids = randomStream(rng, 1 + rng() % 2);
    const TokenStream cnts =
        relabel(ids, [&rng] { return static_cast<Word>(1 + rng() % 4); });
    Channel *fid = n.source("fid", ids);
    Channel *fcnt = n.source("fcnt", cnts);
    Channel *mid = n.ch("mid", false);
    Channel *mcnt = n.ch("mcnt", false);
    Channel *bid = n.ch("bid", false);
    Channel *bcnt = n.ch("bcnt", false);
    n.add<FwdBackMerge>("head", Bundle{fid, fcnt}, Bundle{bid, bcnt},
                        Bundle{mid, mcnt});
    Bundle dec;
    for (const char *name : {"did1", "dcnt1", "p1", "did2", "dcnt2", "p2"})
        dec.push_back(n.ch(name, false));
    n.add<ElementWise>(
        "dec", Bundle{mid, mcnt}, dec,
        perThread([](const std::vector<Word> &in, std::vector<Word> &out) {
            const Word cnt = in[1] - 1;
            const Word cont = static_cast<int32_t>(cnt) > 0 ? 1 : 0;
            out.assign({in[0], cnt, cont, in[0], cnt, cont});
        }));
    n.add<Filter>("backF", dec[2], Bundle{dec[0], dec[1]}, Bundle{bid, bcnt},
                  true);
    Channel *xid = n.ch("xid");
    Channel *xcnt = n.ch("xcnt");
    n.add<Filter>("exitF", dec[5], Bundle{dec[3], dec[4]}, Bundle{xid, xcnt},
                  false);
    Channel *sid = n.ch("sid");
    Channel *scnt = n.ch("scnt");
    n.add<Flatten>("stripId", xid, sid);
    n.add<Flatten>("stripCnt", xcnt, scnt);
    n.sink(sid);
    n.sink(scnt);
}

void
wireFlatten(Net &n, std::mt19937 &rng)
{
    Channel *out = n.ch("o");
    n.add<Flatten>("flatten", n.source("in", randomStream(rng, 2 + rng() % 2)),
                   out);
    n.sink(out);
}

void
wireReduce(Net &n, std::mt19937 &rng)
{
    Channel *out = n.ch("o");
    n.add<Reduce>("reduce", n.source("in", randomStream(rng, 2 + rng() % 2)),
                  out, static_cast<Word>(rng()));
    n.sink(out);
}

void
wireSourceSink(Net &n, std::mt19937 &rng)
{
    n.sink(n.source("in", randomStream(rng, 1 + rng() % 3)));
}

/** A foreach: each parent p spans a counter range (ascending for odd
 * p, descending for even p), the range takes its parent by broadcast,
 * a block combines them, and a reduce folds each range. */
void
wireForeach(Net &n, std::mt19937 &rng)
{
    const TokenStream parents = relabel(
        randomStream(rng, 1 + rng() % 2),
        [&rng] { return static_cast<Word>(rng() % 7); });
    Channel *par = n.source("par", parents);
    Channel *par_ctr = n.ch("parCtr");
    Channel *par_bc = n.ch("parBc");
    n.e.multicast(par, {par_ctr, par_bc});
    Bundle bounds{n.ch("mn"), n.ch("mx"), n.ch("st")};
    n.add<ElementWise>(
        "bounds", Bundle{par_ctr}, bounds,
        perThread([](const std::vector<Word> &in, std::vector<Word> &out) {
            const Word p = in[0];
            if (p % 2 == 1)
                out.assign({0, p, 1});
            else
                out.assign({p, 0, static_cast<Word>(-1)});
        }));
    Channel *iter = n.ch("iter");
    n.add<Counter>("ctr", bounds[0], bounds[1], bounds[2], iter);
    Channel *iter_bc = n.ch("iterBc");
    Channel *iter_ew = n.ch("iterEw");
    Channel *iter_tap = n.ch("iterTap");
    n.e.multicast(iter, {iter_bc, iter_ew, iter_tap});
    n.sink(iter_tap);
    Channel *expanded = n.ch("expanded");
    n.add<Broadcast>("bc", iter_bc, par_bc, expanded, 1);
    Channel *body = n.ch("body");
    n.add<ElementWise>(
        "body", Bundle{iter_ew, expanded}, Bundle{body},
        perThread([](const std::vector<Word> &in, std::vector<Word> &out) {
            out.push_back(in[0] + 10 * in[1]);
        }));
    Channel *red = n.ch("red");
    n.add<Reduce>("red", body, red, 0);
    n.sink(red);
}

struct Case
{
    const char *name;
    Wire wire;
    /** Eager merges interleave their branches in arrival order, which
     * the schedule decides: compare each group's threads as a set. */
    bool eager = false;
};

/** @p outs (the lanes of one bundle) with the threads of every group
 * sorted, so that only the threads each group holds are compared. */
std::vector<TokenStream>
groupsAsSets(const std::vector<TokenStream> &outs)
{
    std::vector<TokenStream> sorted(outs.size());
    std::vector<std::vector<Word>> group;
    auto flush = [&] {
        std::sort(group.begin(), group.end());
        for (const auto &thread : group) {
            for (size_t l = 0; l < outs.size(); ++l)
                sorted[l].push_back(Token::data(thread[l]));
        }
        group.clear();
    };
    for (size_t t = 0; t < outs[0].size(); ++t) {
        if (outs[0][t].isBarrier()) {
            flush();
            for (size_t l = 0; l < outs.size(); ++l)
                sorted[l].push_back(outs[l][t]);
            continue;
        }
        group.emplace_back();
        for (const auto &lane : outs)
            group.back().push_back(lane[t].word());
    }
    flush();
    return sorted;
}

const std::vector<Case> &
cases()
{
    static const std::vector<Case> all = {
        {"elementwise", wireElementWise},
        {"filter", wireFilter},
        {"forward_merge", wireForwardMerge, true},
        {"fwdback_merge", wireWhileLoop},
        {"flatten", wireFlatten},
        {"reduce", wireReduce},
        {"source_sink", wireSourceSink},
        {"foreach", wireForeach},
    };
    return all;
}

} // namespace

class RunVsToken : public ::testing::TestWithParam<size_t>
{};

TEST_P(RunVsToken, SameOutputsAndQuanta)
{
    const Case &c = cases()[GetParam()];
    for (unsigned seed = 1; seed <= 24; ++seed) {
        for (size_t cap : {Channel::unbounded, size_t{1}, size_t{3}}) {
            const std::string at = std::string(c.name) + " seed " +
                std::to_string(seed) + " capacity " +
                (cap == Channel::unbounded ? std::string("unbounded")
                                           : std::to_string(cap));
            const Outcome one = drive(c.wire, seed, cap, Drive::tokenLoop);
            ASSERT_TRUE(one.drained) << at;
            ASSERT_GT(one.quanta, 0u) << at;
            for (Drive how : {Drive::worklist, Drive::parallel}) {
                const Outcome run = drive(c.wire, seed, cap, how);
                const char *which =
                    how == Drive::worklist ? " (worklist)" : " (parallel)";
                EXPECT_TRUE(run.drained) << at << which;
                if (c.eager)
                    EXPECT_EQ(groupsAsSets(run.outs), groupsAsSets(one.outs))
                        << at << which;
                else
                    EXPECT_EQ(run.outs, one.outs) << at << which;
                EXPECT_EQ(run.quanta, one.quanta) << at << which;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Primitives, RunVsToken, ::testing::Range<size_t>(0, cases().size()),
    [](const auto &info) { return std::string(cases()[info.param].name); });

// ---------------------------------------------------------------------
// The channel run API
// ---------------------------------------------------------------------

namespace
{

std::vector<Word>
words(size_t first, size_t n)
{
    std::vector<Word> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(static_cast<Word>(first + i));
    return out;
}

/** The pending tokens of @p ch, without taking them. */
TokenStream
pending(const Channel &ch)
{
    TokenStream out;
    ch.readTokens(ch.size(),
                  [&out](const Token &tok, size_t) { out.push_back(tok); });
    return out;
}

} // namespace

TEST(ChannelRuns, RunWrapsTheRingEnd)
{
    Channel ch("c");
    const auto first = words(0, 10);
    ch.pushData(first.data(), first.size());
    ch.consume(10);
    // 12 words from slot 10 of 16: the run wraps, and with 12 held of
    // 16 slots the ring need not grow.
    const auto run = words(100, 12);
    ch.pushData(run.data(), run.size());
    EXPECT_EQ(ch.ringSlots(), 16u);
    std::vector<Word> got(12);
    int head = -1;
    EXPECT_EQ(ch.peek(got.data(), 64, head), 12u);
    EXPECT_EQ(head, 0);
    EXPECT_EQ(got, run);
    ch.consume(5);
    EXPECT_EQ(ch.peek(got.data(), 64, head), 7u);
    EXPECT_EQ(got[0], 105u);
}

TEST(ChannelRuns, GrowthMidRunKeepsEveryCursorsLag)
{
    // The same traffic as runs and as single pushes: two cursors at
    // different lags, then a run that overflows the ring.
    Engine runs, singles;
    auto wire = [](Engine &e) {
        Channel *root = e.channel("root");
        Channel *near = e.channel("near");
        Channel *far = e.channel("far");
        e.multicast(root, {near, far});
        return std::vector<Channel *>{root, near, far};
    };
    auto r = wire(runs);
    auto s = wire(singles);
    const auto head = words(0, 12);
    r[0]->pushData(head.data(), head.size());
    for (Word w : head)
        s[0]->push(Token::data(w));
    r[1]->consume(9); // near holds 3, far 12
    s[1]->consume(9);
    const auto tail = words(50, 10);
    r[0]->pushData(tail.data(), tail.size());
    for (Word w : tail)
        s[0]->push(Token::data(w));
    EXPECT_EQ(r[0]->ringSlots(), 32u); // 22 held needs 32 slots
    EXPECT_EQ(r[0]->ringSlots(), s[0]->ringSlots());
    for (int i : {1, 2}) {
        EXPECT_EQ(pending(*r[i]), pending(*s[i])) << r[i]->name();
    }
    EXPECT_EQ(r[1]->size(), 13u);
    EXPECT_EQ(r[2]->size(), 22u);
}

TEST(ChannelRuns, BoundedReaderCutsARunToItsRoom)
{
    Engine e;
    Channel *ch = e.channel("bounded", 4);
    ch->push(Token::data(1));
    EXPECT_EQ(ch->room(), 3u);
    auto *src = e.make<Source>("src", ch,
                               StreamBuilder().d(2).d(3).d(4).d(5).d(6));
    EXPECT_EQ(src->runQuanta(10), 3); // cut to the room, no overflow
    EXPECT_EQ(ch->room(), 0u);
    EXPECT_FALSE(ch->canPush());
    EXPECT_EQ(src->runQuanta(10), 0);
    ch->consume(2);
    EXPECT_EQ(src->runQuanta(10), 2);
    // A run longer than the room throws before it changes anything.
    ch->consume(1);
    const auto two = words(7, 2);
    EXPECT_THROW(ch->pushData(two.data(), two.size()), std::runtime_error);
    EXPECT_EQ(pending(*ch),
              (TokenStream)StreamBuilder().d(4).d(5).d(6));
}

TEST(ChannelRuns, ValueWatchOfARunEqualsPerTokenPushes)
{
    std::mt19937 rng(11);
    Channel runs("runs"), singles("singles");
    runs.setValueWatch(true);
    singles.setValueWatch(true);
    for (int round = 0; round < 20; ++round) {
        std::vector<Word> run(rng() % 9);
        for (Word &w : run)
            w = rng() % 4 == 0 ? 7u : static_cast<Word>(rng());
        runs.pushData(run.data(), run.size());
        for (Word w : run)
            singles.push(Token::data(w));
        runs.push(Token::barrier(1));
        singles.push(Token::barrier(1));
    }
    const auto &a = runs.watch();
    const auto &b = singles.watch();
    EXPECT_EQ(a.dataPushed, b.dataPushed);
    EXPECT_EQ(a.barriersPushed, b.barriersPushed);
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.allEqual, b.allEqual);
    EXPECT_EQ(a.smin, b.smin);
    EXPECT_EQ(a.smax, b.smax);
    EXPECT_EQ(a.umin, b.umin);
    EXPECT_EQ(a.umax, b.umax);
}

TEST(ChannelRuns, OneWakeupPerEmptyToNonEmptyRun)
{
    // The sinks are registered before the block, so they have retired
    // with nothing to read when its 10-thread run lands: the run wakes
    // each reader of its ring once, and the barrier behind it, landing
    // on non-empty channels, wakes nobody.
    Engine e;
    Channel *a = e.channel("a");
    Channel *o = e.channel("o");
    Channel *o1 = e.channel("o1");
    Channel *o2 = e.channel("o2");
    StreamBuilder ten;
    for (Word w = 0; w < 10; ++w)
        ten.d(w);
    e.make<Source>("src", a, ten.b(1));
    e.multicast(o, {o1, o2});
    auto *s1 = e.make<Sink>("s1", o1);
    auto *s2 = e.make<Sink>("s2", o2);
    e.make<ElementWise>("ew", Bundle{a}, Bundle{o}, [](const LaneRun &run) {
        for (size_t t = 0; t < run.n; ++t)
            run.out[0][t] = run.in[0][t] * 2;
    });
    e.run();
    EXPECT_EQ(e.schedStats().wakeups, 2u);
    EXPECT_EQ(s1->collected().size(), 11u);
    EXPECT_EQ(s1->collected(), s2->collected());
}
