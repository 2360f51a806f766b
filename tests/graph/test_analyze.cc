/**
 * @file
 * Static DFG analyzer validation (graph/analyze.hh).
 *
 * Rate balance: constant-bound counters fold to exact trip counts,
 * merges obey conservation, and a deliberately imbalanced bundle is
 * flagged with a node-naming diagnostic.
 *
 * Translation validation: the default pipeline certifies every pass
 * application on real programs, while deliberately broken rewrites —
 * a dropped memory effect, reordered program-entry sources, a
 * widened bundle lane, an unsolicited park — are each rejected by
 * runPasses() with the expected diagnostic, and a mispaired park by
 * the Dfg::verify() it runs first.
 *
 * Deadlock lint: the minimal safe park size computed statically for a
 * thread-reordering keyed park matches ExecStats::sramParkedPeak from
 * real executions, and a cycle whose contraction demand exceeds its
 * link buffering is reported.
 *
 * Solver goldens: for every app and language fixture, the rate and
 * deadlock reports of each graph the default pipeline certifies (the
 * lowered graph, the graph after each applied pass) and of the final
 * graph under analyzeGraph() hash to recorded FNV-1a digests
 * (analyze_goldens.txt), so solver speedups must keep the output byte
 * for byte.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "apps/apps.hh"
#include "core/revet.hh"
#include "graph/analyze.hh"
#include "graph/exec.hh"
#include "graph/optimize.hh"
#include "lang/parse.hh"
#include "passes/passes.hh"

#include "lang_fixtures.hh"

using namespace revet;
using namespace revet::graph;
using lang::DramImage;

namespace
{

lang::Program
outProgram()
{
    return lang::parseAndAnalyze("DRAM<int> out; void main() {}");
}

void
addCnst(Node &blk, int dst, sltf::Word imm)
{
    BlockOp op;
    op.kind = OpKind::cnst;
    op.dst = dst;
    op.imm = imm;
    blk.ops.push_back(op);
}

void
addBinop(Node &blk, OpKind kind, int dst, int a, int b)
{
    BlockOp op;
    op.kind = kind;
    op.dst = dst;
    op.a = a;
    op.b = b;
    blk.ops.push_back(op);
}

/** "__start" source feeding a block of three unconditional cnst ops
 * (min, max, step) feeding a counter; returns the counter's out link. */
int
addConstCounter(Dfg &g, int64_t min, int64_t max, int64_t step)
{
    auto &src = g.newNode(NodeKind::source, "__start");
    int tok = g.newLink("tok");
    g.connectOut(src.id, tok);

    auto &bounds = g.newNode(NodeKind::block, "bounds");
    g.connectIn(bounds.id, tok);
    bounds.inputRegs = {0};
    bounds.nRegs = 4;
    addCnst(bounds, 1, static_cast<sltf::Word>(min));
    addCnst(bounds, 2, static_cast<sltf::Word>(max));
    addCnst(bounds, 3, static_cast<sltf::Word>(step));
    bounds.outputRegs = {1, 2, 3};
    int lmin = g.newLink("min"), lmax = g.newLink("max"),
        lstep = g.newLink("step");
    for (int l : {lmin, lmax, lstep})
        g.connectOut(bounds.id, l);

    auto &ctr = g.newNode(NodeKind::counter, "threads");
    for (int l : {lmin, lmax, lstep})
        g.connectIn(ctr.id, l);
    int iv = g.newLink("iv");
    g.connectOut(ctr.id, iv);
    return iv;
}

/**
 * The thread-reordering keyed-park graph from the executor tests:
 * counter 0..n -> {v = i*7+3 -> keyed park}, {k = n-1-i -> restore key
 * + write address}; the key stream is the exact reverse of park order,
 * so the restore must buffer all n values (sramParkedPeak == n).
 */
Dfg
keyedParkGraph(int n)
{
    Dfg g;
    graph::ReplicateInfo info;
    info.id = 0;
    info.replicas = 2;
    g.replicates.push_back(info);

    int iv = addConstCounter(g, 0, n, 1);
    auto &fan = g.newNode(NodeKind::fanout, "fan");
    g.connectIn(fan.id, iv);
    int iv_a = g.newLink("iva"), iv_b = g.newLink("ivb");
    g.connectOut(fan.id, iv_a);
    g.connectOut(fan.id, iv_b);

    auto &bv = g.newNode(NodeKind::block, "blockV");
    g.connectIn(bv.id, iv_a);
    bv.inputRegs = {0};
    bv.nRegs = 5;
    addCnst(bv, 1, 7);
    addBinop(bv, OpKind::mul, 2, 0, 1);
    addCnst(bv, 3, 3);
    addBinop(bv, OpKind::add, 4, 2, 3);
    int v = g.newLink("v");
    bv.outputRegs = {4};
    g.connectOut(bv.id, v);

    auto &bk = g.newNode(NodeKind::block, "blockK");
    g.connectIn(bk.id, iv_b);
    bk.inputRegs = {0};
    bk.nRegs = 3;
    addCnst(bk, 1, static_cast<sltf::Word>(n - 1));
    addBinop(bk, OpKind::sub, 2, 1, 0);
    int k = g.newLink("k");
    bk.outputRegs = {2};
    g.connectOut(bk.id, k);
    auto &kfan = g.newNode(NodeKind::fanout, "kfan");
    g.connectIn(kfan.id, k);
    int k_key = g.newLink("k.key"), k_addr = g.newLink("k.addr");
    g.connectOut(kfan.id, k_key);
    g.connectOut(kfan.id, k_addr);

    auto &park = g.newNode(NodeKind::park, "park.v");
    park.parkRegion = 0;
    park.keyed = true;
    g.connectIn(park.id, v);
    int sram = g.newLink("v.park");
    g.connectOut(park.id, sram);
    auto &rest = g.newNode(NodeKind::restore, "restore.v");
    rest.parkRegion = 0;
    rest.keyed = true;
    g.connectIn(rest.id, sram);
    g.connectIn(rest.id, k_key);
    int rst = g.newLink("v.rst");
    g.connectOut(rest.id, rst);

    auto &wr = g.newNode(NodeKind::block, "write");
    g.connectIn(wr.id, k_addr);
    g.connectIn(wr.id, rst);
    wr.inputRegs = {0, 1};
    wr.nRegs = 2;
    BlockOp st;
    st.kind = OpKind::dramWrite;
    st.a = 0;
    st.b = 1;
    st.dram = 0;
    wr.ops.push_back(st);
    g.verify();
    return g;
}

/** Two sources merged into one lane (rates 1 + 1) feeding a sink. */
Dfg
mergeGraph(lang::Scalar elem = lang::Scalar::i32)
{
    Dfg g;
    auto &sa = g.newNode(NodeKind::source, "__start");
    int la = g.newLink("a", elem);
    g.connectOut(sa.id, la);
    auto &sb = g.newNode(NodeKind::source, "arg0");
    int lb = g.newLink("b", elem);
    g.connectOut(sb.id, lb);
    auto &m = g.newNode(NodeKind::fwdMerge, "join");
    g.connectIn(m.id, la);
    g.connectIn(m.id, lb);
    int lo = g.newLink("o", elem);
    g.connectOut(m.id, lo);
    auto &snk = g.newNode(NodeKind::sink, "sink");
    g.connectIn(snk.id, lo);
    g.verify();
    return g;
}

int
linkByName(const Dfg &g, const std::string &name)
{
    for (const auto &l : g.links)
        if (l.name == name)
            return l.id;
    return -1;
}

int
nodeByName(const Dfg &g, const std::string &name)
{
    for (const auto &n : g.nodes)
        if (n.name == name)
            return n.id;
    return -1;
}

bool
hasCode(const std::vector<Diagnostic> &diags, const std::string &code)
{
    return std::any_of(diags.begin(), diags.end(),
                       [&](const Diagnostic &d) { return d.code == code; });
}

const char *writeSrc = R"(
DRAM<int> data; DRAM<int> out;
void main(int n) {
  foreach (n) { int t =>
    out[t] = data[t] * 3 + 1;
  };
}
)";

const char *replSrc = R"(
DRAM<int> data; DRAM<int> out;
void main(int n) {
  foreach (n) { int t =>
    int a = data[t];
    int k1 = t * 3 + 1;
    int k2 = t ^ 929;
    int h = a;
    replicate (4) {
      h = h * 31 + 7;
      h = h ^ (h / 64);
    };
    out[t] = h + k1 + k2;
  };
}
)";

/** A named pass running @p fn: the mutation tests' deliberately broken
 * rewrites, and the solver goldens' recording wrappers. */
template <typename Fn> class FnPass : public GraphPass
{
  public:
    FnPass(std::string name, Fn fn)
        : name_(std::move(name)), fn_(std::move(fn))
    {
    }
    std::string name() const override { return name_; }
    int
    run(Dfg &g, const GraphPassOptions &) override
    {
        return fn_(g);
    }

  private:
    std::string name_;
    Fn fn_;
};

template <typename Fn>
std::vector<std::unique_ptr<GraphPass>>
brokenPipeline(const std::string &name, Fn fn)
{
    std::vector<std::unique_ptr<GraphPass>> out;
    out.push_back(
        std::make_unique<FnPass<Fn>>(name, std::move(fn)));
    return out;
}

std::string
runBrokenExpectThrow(Dfg g,
                     const std::vector<std::unique_ptr<GraphPass>> &p)
{
    try {
        runPasses(g, p, GraphPassOptions{});
    } catch (const ValidationError &e) {
        return e.what();
    }
    return {};
}

} // namespace

// ---------------------------------------------------------------------
// Token-rate balance
// ---------------------------------------------------------------------

TEST(AnalyzeRates, ConstantCounterFoldsToTripCount)
{
    Dfg g = keyedParkGraph(5);
    RateReport rr = analyzeRates(g);
    EXPECT_TRUE(rr.consistent);
    EXPECT_EQ(rr.rate(linkByName(g, "iv")), "5");
    EXPECT_EQ(rr.rate(linkByName(g, "v")), "5");
    EXPECT_EQ(rr.rate(linkByName(g, "v.rst")), "5");
    EXPECT_EQ(rr.rate(linkByName(g, "tok")), "1");
}

TEST(AnalyzeRates, MergeObeysConservation)
{
    Dfg g = mergeGraph();
    RateReport rr = analyzeRates(g);
    EXPECT_TRUE(rr.consistent);
    EXPECT_EQ(rr.rate(linkByName(g, "a")), "1");
    EXPECT_EQ(rr.rate(linkByName(g, "o")), "2");
}

TEST(AnalyzeRates, ImbalancedBundleFlagged)
{
    // A block bundling a rate-5 counter stream with a rate-1 source
    // stream can never align its lanes: the balance equations must
    // flag the block by name.
    Dfg g;
    int iv = addConstCounter(g, 0, 5, 1);
    auto &src = g.newNode(NodeKind::source, "arg0");
    int lb = g.newLink("b");
    g.connectOut(src.id, lb);
    auto &blk = g.newNode(NodeKind::block, "misaligned");
    g.connectIn(blk.id, iv);
    g.connectIn(blk.id, lb);
    blk.inputRegs = {0, 1};
    blk.nRegs = 3;
    addBinop(blk, OpKind::add, 2, 0, 1);
    int lo = g.newLink("o");
    blk.outputRegs = {2};
    g.connectOut(blk.id, lo);
    auto &snk = g.newNode(NodeKind::sink, "sink");
    g.connectIn(snk.id, lo);
    g.verify();

    RateReport rr = analyzeRates(g);
    EXPECT_FALSE(rr.consistent);
    ASSERT_TRUE(hasCode(rr.diagnostics, "rate-imbalance"));
    // The conflict surfaces wherever propagation detects it — at the
    // bundling block or at the counter whose trip count contradicts
    // the already-propagated rate. Either way it must name a node.
    int ctr = nodeByName(g, "threads");
    bool named = false;
    for (const auto &d : rr.diagnostics) {
        EXPECT_FALSE(d.nodes.empty()) << d.message;
        named |= std::find(d.nodes.begin(), d.nodes.end(), blk.id) !=
            d.nodes.end();
        named |= std::find(d.nodes.begin(), d.nodes.end(), ctr) !=
            d.nodes.end();
    }
    EXPECT_TRUE(named) << "diagnostic must name an involved node";
}

TEST(AnalyzeRates, LateMergeConflictAfterSettledBundles)
{
    // The source's fanout bundle and the filter's pred + data bundle
    // agree (rate 1) in the first sweep and are settled for good. The
    // filter's kept lanes get a rate only once bindUnknown() names a
    // fresh symbol for them; only then does the merge see its output
    // (tied to a kept lane by the block's bundle) against kept + 1, a
    // constant difference no binding can absorb.
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "__start");
    int t = g.newLink("t");
    g.connectOut(src.id, t);
    auto &fan = g.newNode(NodeKind::fanout, "fan");
    g.connectIn(fan.id, t);
    int p = g.newLink("p"), d1 = g.newLink("d1"), d2 = g.newLink("d2"),
        b = g.newLink("b");
    for (int l : {p, d1, d2, b})
        g.connectOut(fan.id, l);
    auto &flt = g.newNode(NodeKind::filter, "keep");
    for (int l : {p, d1, d2})
        g.connectIn(flt.id, l);
    int fa = g.newLink("fa"), fc = g.newLink("fc");
    g.connectOut(flt.id, fa);
    g.connectOut(flt.id, fc);
    auto &m = g.newNode(NodeKind::fwdMerge, "join");
    g.connectIn(m.id, fa);
    g.connectIn(m.id, b);
    int o = g.newLink("o");
    g.connectOut(m.id, o);
    auto &blk = g.newNode(NodeKind::block, "tie");
    g.connectIn(blk.id, o);
    g.connectIn(blk.id, fc);
    blk.inputRegs = {0, 1};
    blk.nRegs = 2;
    g.verify();

    RateReport rr = analyzeRates(g);
    EXPECT_FALSE(rr.consistent);
    EXPECT_EQ(rr.rate(t), "1");
    EXPECT_EQ(rr.rate(b), "1");
    ASSERT_EQ(rr.diagnostics.size(), 1u);
    const Diagnostic &d = rr.diagnostics[0];
    EXPECT_EQ(d.code, "rate-imbalance");
    EXPECT_EQ(d.nodes, std::vector<int>{m.id});
    EXPECT_EQ(d.message,
              "balance conflict at 'join' (fwd-merge #3): merge "
              "conservation require rate f2 but found f2+1");
}

TEST(AnalyzeRates, AppGraphsBalance)
{
    for (const auto &app : apps::allApps()) {
        auto prog = CompiledArtifact::build(app.source);
        RateReport rr = analyzeRates(prog->dfg());
        EXPECT_TRUE(rr.consistent) << app.name;
        for (const auto &d : rr.diagnostics)
            ADD_FAILURE() << app.name << ": " << d.message;
    }
}

// ---------------------------------------------------------------------
// Token accounting
// ---------------------------------------------------------------------

TEST(AnalyzeAccount, SnapshotsSourcesEffectsAndParks)
{
    auto prog = CompiledArtifact::build(writeSrc);
    TokenAccount acc = accountTokens(prog->dfg());
    ASSERT_GE(acc.sources.size(), 2u);
    EXPECT_EQ(acc.sources[0], "__start");
    int writes = 0;
    for (const auto &kv : acc.effects)
        if (kv.first.rfind("dramWrite@", 0) == 0)
            writes += kv.second;
    EXPECT_EQ(writes, 1);

    auto repl = CompiledArtifact::build(replSrc);
    TokenAccount racc = accountTokens(repl->dfg());
    int parks = 0;
    for (const auto &kv : racc.parks)
        parks += kv.second.fifoParks + kv.second.keyedParks;
    EXPECT_GT(parks, 0)
        << "replicate-bufferize should have parked pass-over values";
}

// ---------------------------------------------------------------------
// Translation validation: clean pipelines certify
// ---------------------------------------------------------------------

TEST(AnalyzeValidate, DefaultPipelineCertifiesEveryApplication)
{
    for (const char *src : {writeSrc, replSrc}) {
        auto prog = CompiledArtifact::build(src);
        EXPECT_GT(prog->optReport().validatedPasses, 0);
    }
    for (const auto &app : apps::allApps()) {
        auto prog = CompiledArtifact::build(app.source);
        EXPECT_GT(prog->optReport().validatedPasses, 0) << app.name;
    }
}

// ---------------------------------------------------------------------
// Translation validation: mutation tests
// ---------------------------------------------------------------------

TEST(AnalyzeValidate, DroppedEffectRejected)
{
    auto prog = CompiledArtifact::build(writeSrc);
    auto pipeline =
        brokenPipeline("broken-drop-effect", [](Dfg &g) {
            for (auto &n : g.nodes) {
                for (size_t i = 0; i < n.ops.size(); ++i) {
                    if (n.ops[i].kind == OpKind::dramWrite) {
                        n.ops.erase(n.ops.begin() +
                                    static_cast<long>(i));
                        return 1;
                    }
                }
            }
            return 0;
        });
    std::string what = runBrokenExpectThrow(prog->dfg(), pipeline);
    ASSERT_FALSE(what.empty()) << "broken rewrite was not rejected";
    EXPECT_NE(what.find("effect-dropped"), std::string::npos) << what;
    EXPECT_NE(what.find("dramWrite"), std::string::npos) << what;
}

TEST(AnalyzeValidate, ReorderedSourcesRejected)
{
    auto prog = CompiledArtifact::build(writeSrc);
    auto pipeline =
        brokenPipeline("broken-swap-sources", [](Dfg &g) {
            std::vector<Node *> sources;
            for (auto &n : g.nodes)
                if (n.kind == NodeKind::source)
                    sources.push_back(&n);
            if (sources.size() < 2)
                return 0;
            std::swap(sources[0]->name, sources[1]->name);
            return 1;
        });
    std::string what = runBrokenExpectThrow(prog->dfg(), pipeline);
    ASSERT_FALSE(what.empty()) << "broken rewrite was not rejected";
    EXPECT_NE(what.find("source-changed"), std::string::npos) << what;
}

TEST(AnalyzeValidate, MispairedParkRejected)
{
    // Dfg::verify() is the one park/restore pairing check: runPasses()
    // runs it on every applied pass before validateRewrite(), so the
    // mispaired park is rejected there, by name.
    auto prog = CompiledArtifact::build(replSrc);
    std::string parkName;
    auto pipeline =
        brokenPipeline("broken-flip-keyed", [&parkName](Dfg &g) {
            for (auto &n : g.nodes) {
                if (n.kind == NodeKind::park) {
                    n.keyed = !n.keyed;
                    parkName = n.name;
                    return 1;
                }
            }
            return 0;
        });
    Dfg g = prog->dfg();
    std::string what;
    try {
        runPasses(g, pipeline, GraphPassOptions{});
    } catch (const ValidationError &e) {
        FAIL() << "verify() should reject before validation: " << e.what();
    } catch (const std::logic_error &e) {
        what = e.what();
    }
    ASSERT_FALSE(parkName.empty()) << "no park to mispair";
    ASSERT_FALSE(what.empty()) << "broken rewrite was not rejected";
    EXPECT_NE(what.find("'" + parkName + "' (park)"), std::string::npos)
        << what;
    EXPECT_NE(what.find("ordinal-key mismatch"), std::string::npos)
        << what;
}

TEST(AnalyzeValidate, WidenedBundleLaneRejected)
{
    Dfg g = mergeGraph(lang::Scalar::i8);
    int join = nodeByName(g, "join");
    auto pipeline =
        brokenPipeline("broken-widen-lane", [](Dfg &g2) {
            for (auto &n : g2.nodes) {
                if (n.kind == NodeKind::fwdMerge) {
                    g2.links[n.ins[0]].elem = lang::Scalar::i32;
                    return 1;
                }
            }
            return 0;
        });
    std::string what = runBrokenExpectThrow(g, pipeline);
    ASSERT_FALSE(what.empty()) << "broken rewrite was not rejected";
    EXPECT_NE(what.find("bundle-elem"), std::string::npos) << what;
    EXPECT_NE(what.find("#" + std::to_string(join)), std::string::npos)
        << what;
}

TEST(AnalyzeValidate, UnsolicitedParkRejected)
{
    // Only replicate-bufferize may create park machinery; any other
    // pass sneaking a (correctly paired) park/restore pair onto a link
    // is rejected by the census.
    Dfg g = mergeGraph();
    g.replicates.push_back(ReplicateInfo{0, 2, 0, 0, {}});
    auto pipeline =
        brokenPipeline("broken-add-park", [](Dfg &g2) {
            int la = -1;
            for (auto &n : g2.nodes)
                if (n.kind == NodeKind::fwdMerge)
                    la = n.ins[0];
            if (la < 0)
                return 0;
            int consumer = g2.links[la].dst;
            auto &park = g2.newNode(NodeKind::park, "sneak.park");
            park.parkRegion = 0;
            auto &rest = g2.newNode(NodeKind::restore, "sneak.restore");
            rest.parkRegion = 0;
            int sram = g2.newLink("sneak.sram");
            int out = g2.newLink("sneak.out");
            g2.links[la].dst = park.id;
            park.ins.push_back(la);
            g2.connectOut(park.id, sram);
            g2.connectIn(rest.id, sram);
            g2.connectOut(rest.id, out);
            g2.links[out].dst = consumer;
            for (auto &n : g2.nodes)
                for (auto &l : n.ins)
                    if (l == la && n.id == consumer)
                        l = out;
            return 1;
        });
    std::string what = runBrokenExpectThrow(g, pipeline);
    ASSERT_FALSE(what.empty()) << "broken rewrite was not rejected";
    EXPECT_NE(what.find("park-added"), std::string::npos) << what;
}

// ---------------------------------------------------------------------
// Finite-buffer deadlock lint
// ---------------------------------------------------------------------

TEST(AnalyzeDeadlock, KeyedParkMinSafeMatchesExecutedPeak)
{
    const int n = 8;
    Dfg g = keyedParkGraph(n);
    DeadlockReport rep = lintDeadlock(g);
    ASSERT_EQ(rep.parks.size(), 1u);
    EXPECT_TRUE(rep.parks[0].bounded);
    EXPECT_EQ(rep.parks[0].minSafeSlots, n);
    EXPECT_FALSE(hasErrors(rep.diagnostics));

    lang::Program prog = outProgram();
    for (auto policy : {dataflow::Engine::Policy::worklist,
                        dataflow::Engine::Policy::parallel}) {
        DramImage dram(prog);
        dram.resize("out", n * 4);
        auto stats = graph::execute(graph::BytecodeProgram::compile(g),
                                    dram, {}, 1u << 24, policy, 2);
        EXPECT_TRUE(stats.drained);
        EXPECT_EQ(stats.sramParkedPeak,
                  static_cast<uint64_t>(rep.parks[0].minSafeSlots))
            << "static bound must match the executed high-water mark";
    }
}

TEST(AnalyzeDeadlock, UndersizedParkReported)
{
    // 100000 reordered threads against a 4096-slot MU bank.
    Dfg g = keyedParkGraph(100000);
    BufferCaps caps;
    DeadlockReport rep = lintDeadlock(g, caps);
    ASSERT_EQ(rep.parks.size(), 1u);
    EXPECT_TRUE(rep.parks[0].bounded);
    EXPECT_EQ(rep.parks[0].minSafeSlots, 100000);
    EXPECT_TRUE(hasCode(rep.diagnostics, "park-undersized"));
}

TEST(AnalyzeDeadlock, ContractionCycleOverflowReported)
{
    // A reduce inside a feedback cycle must absorb its whole group
    // (constant rate 100000) before emitting, but the cycle's two
    // links buffer only 2*256 words: guaranteed wedge.
    Dfg g;
    int iv = addConstCounter(g, 0, 100000, 1);
    auto &blk = g.newNode(NodeKind::block, "loopback");
    g.connectIn(blk.id, iv);
    int l1 = g.newLink("l1");
    g.connectOut(blk.id, l1);
    auto &red = g.newNode(NodeKind::reduce, "sum");
    g.connectIn(red.id, l1);
    int l2 = g.newLink("l2");
    g.connectOut(red.id, l2);
    g.connectIn(blk.id, l2);
    blk.inputRegs = {0, 1};
    blk.outputRegs = {0};
    blk.nRegs = 2;

    DeadlockReport rep = lintDeadlock(g);
    EXPECT_GE(rep.cycles.size(), 1u);
    EXPECT_EQ(rep.riskyCycles, 1);
    ASSERT_TRUE(hasCode(rep.diagnostics, "cycle-overflow"));
    for (const auto &d : rep.diagnostics) {
        if (d.code != "cycle-overflow")
            continue;
        EXPECT_NE(std::find(d.nodes.begin(), d.nodes.end(), red.id),
                  d.nodes.end())
            << "cycle diagnostic must include the contraction node";
    }
}

TEST(AnalyzeDeadlock, AppGraphsLintClean)
{
    for (const auto &app : apps::allApps()) {
        auto prog = CompiledArtifact::build(app.source);
        AnalyzeReport rep = analyzeGraph(prog->dfg());
        EXPECT_FALSE(rep.hasErrors()) << app.name << ": "
                                      << rep.summary();
    }
}

// ---------------------------------------------------------------------
// Solver goldens
// ---------------------------------------------------------------------

namespace
{

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 14695981039346656037ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Everything the rate solver decides about one graph, as text. */
std::string
solverReport(const RateReport &rates, const DeadlockReport &deadlock)
{
    std::ostringstream o;
    o << "consistent " << rates.consistent << "\n";
    for (size_t l = 0; l < rates.linkRates.size(); ++l)
        o << "link " << l << " " << rates.linkRates[l] << "\n";
    for (const auto &d : rates.diagnostics)
        o << "rates " << d.json() << "\n";
    for (const auto &d : deadlock.diagnostics)
        o << "deadlock " << d.json() << "\n";
    for (const auto &p : deadlock.parks) {
        o << "park " << p.park << " rate " << p.rate << " bounded "
          << p.bounded << " minSafeSlots " << p.minSafeSlots << "\n";
    }
    return o.str();
}

/** (graph label, solver report) for the lowered graph of @p source,
 * the graph after each applied default pass, and the final graph. */
std::vector<std::pair<std::string, std::string>>
pipelineReports(const std::string &label, const std::string &source)
{
    const GraphPassOptions opts;
    const BufferCaps caps = BufferCaps::fromMachine(opts.machine);
    std::vector<std::pair<std::string, std::string>> out;
    auto record = [&](const std::string &step, const Dfg &g) {
        char idx[8];
        std::snprintf(idx, sizeof idx, "%02zu-", out.size());
        out.emplace_back(label + "/" + idx + step,
                         solverReport(analyzeRates(g),
                                      lintDeadlock(g, caps)));
    };
    lang::Program prog = lang::parseAndAnalyze(source);
    passes::runPipeline(prog);
    Dfg g = lower(prog);
    record("lowered", g);
    std::vector<std::unique_ptr<GraphPass>> pipeline;
    for (auto &pass : makeDefaultPasses(opts)) {
        const std::string name = pass->name();
        auto recorded = [&, inner = std::move(pass)](Dfg &dfg) {
            int applied = inner->run(dfg, opts);
            if (applied)
                record(inner->name(), dfg);
            return applied;
        };
        pipeline.push_back(std::make_unique<FnPass<decltype(recorded)>>(
            name, std::move(recorded)));
    }
    runPasses(g, pipeline, opts);
    AnalyzeReport fin = analyzeGraph(g, opts.machine);
    out.emplace_back(label + "/final",
                     solverReport(fin.rates, fin.deadlock));
    return out;
}

/** Recorded digests, "<graph label> <hex digest>" per line. */
const std::map<std::string, std::string> &
goldenDigests()
{
    static const std::map<std::string, std::string> digests = [] {
        std::map<std::string, std::string> out;
        std::ifstream in(REVET_ANALYZE_GOLDENS);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string label, digest;
            fields >> label >> digest;
            out[label] = digest;
        }
        return out;
    }();
    return digests;
}

/** App names and language-fixture labels: the sources under golden. */
std::vector<std::string>
goldenSources()
{
    std::vector<std::string> out;
    for (const auto &app : apps::allApps())
        out.push_back(app.name);
    for (const auto &f : fixtures::languageFixtures())
        out.push_back(f.label);
    return out;
}

std::string
goldenSource(const std::string &label)
{
    for (const auto &app : apps::allApps())
        if (app.name == label)
            return app.source;
    for (const auto &f : fixtures::languageFixtures())
        if (label == f.label)
            return f.source;
    return {};
}

} // namespace

class AnalyzeGolden : public ::testing::TestWithParam<std::string>
{};

TEST_P(AnalyzeGolden, SolverReportsMatchRecordedDigests)
{
    const std::string &label = GetParam();
    const auto &goldens = goldenDigests();
    ASSERT_FALSE(goldens.empty())
        << "no digests in " << REVET_ANALYZE_GOLDENS;
    auto reports = pipelineReports(label, goldenSource(label));

    size_t recorded = 0;
    for (const auto &kv : goldens)
        recorded += kv.first.rfind(label + "/", 0) == 0;
    EXPECT_EQ(reports.size(), recorded)
        << label << ": the pipeline certified a different number of "
                    "graphs than were recorded";
    for (const auto &[graph, text] : reports) {
        const std::string digest = hex64(fnv1a(text));
        auto it = goldens.find(graph);
        if (it != goldens.end() && it->second == digest)
            continue;
        ADD_FAILURE() << "solver report of " << graph << " hashes to "
                      << digest << ", recorded "
                      << (it == goldens.end() ? "<none>" : it->second)
                      << "\ngolden-line: " << graph << " " << digest
                      << "\n" << text;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AppsAndFixtures, AnalyzeGolden, ::testing::ValuesIn(goldenSources()),
    [](const auto &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });
