/**
 * @file
 * DFG optimizer validation.
 *
 * Equivalence (WaveCert-style, against reference execution): the
 * differential matrix runs all eight Table III app fixtures and the
 * language fixtures covering every lowering construct, each
 * unoptimized, under every graph pass alone and under the full
 * pipeline, through the shared oracle (oracle.hh): DRAM bit-identical
 * to the AST interpreter under both engine scheduling policies, equal
 * per-link traffic across them, and link values inside what abstract
 * interpretation inferred.
 *
 * Structural tests pin down what each pass actually rewrites on
 * hand-built graphs: fanout chains coalesce, wiring blocks splice or
 * become fanouts, constants fold, adjacent blocks fuse within the
 * Table II budget, and dead cones disappear while effectful blocks,
 * sources, and multi-input alignment blocks survive.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "apps/apps.hh"
#include "core/revet.hh"
#include "graph/optimize.hh"
#include "graph/resources.hh"
#include "lang/parse.hh"
#include "lang/type.hh"
#include "passes/passes.hh"

#include "oracle.hh"
#include "reference_fixpoint.hh"
#include "single_pass.hh"

using namespace revet;
using namespace revet::graph;
using lang::DramImage;

namespace
{

Dfg
lowered(const std::string &src)
{
    lang::Program prog = lang::parseAndAnalyze(src);
    passes::runPipeline(prog);
    return lower(prog);
}

int
countKind(const Dfg &g, NodeKind kind)
{
    int n = 0;
    for (const auto &node : g.nodes)
        n += node.kind == kind;
    return n;
}

using ProgramConfig = std::tuple<std::string, std::string>;

const std::vector<std::string> kConfigs = {
    "none",          "const-fold",          "cross-block-const-prop",
    "copy-prop",     "fanout-coalesce",     "block-fusion",
    "dead-node-elim", "replicate-bufferize", "subword-pack",
    "full"};

std::vector<std::string>
fixtureLabels()
{
    std::vector<std::string> out;
    for (const auto &f : fixtures::languageFixtures())
        out.push_back(f.label);
    return out;
}

std::string
caseName(const ::testing::TestParamInfo<ProgramConfig> &info)
{
    std::string name =
        std::get<0>(info.param) + "_" + std::get<1>(info.param);
    for (auto &c : name) {
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    return name;
}

} // namespace

// ---------------------------------------------------------------------
// Equivalence: the differential matrix. Every Table III app and every
// language fixture, crossed with no optimization, each pass alone and
// the full pipeline, must match the AST interpreter under both
// scheduling policies (fixtures::expectMatchesInterpreter). The "none"
// row checks the unoptimized graph once per program, so each optimized
// row is also bit-identical to it. Cases are named program_config; the
// suite keeps the name of its first rows, the apps.

class GraphOptEquivApps : public ::testing::TestWithParam<ProgramConfig>
{};

TEST_P(GraphOptEquivApps, BitIdenticalToUnoptimizedAndInterp)
{
    const auto &[program, config] = GetParam();
    const std::string label = program + "/" + config;
    for (const auto &f : fixtures::languageFixtures()) {
        if (f.label == program) {
            fixtures::expectMatchesInterpreter(f.source, f.generate, config,
                                               label);
            return;
        }
    }
    const apps::App &app = apps::findApp(program);
    const int scale = 4;
    fixtures::expectMatchesInterpreter(
        app.source,
        [&](DramImage &dram) { return app.generate(dram, scale); },
        config, label);
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, GraphOptEquivApps,
    ::testing::Combine(::testing::Values("isipv4", "ip2int", "murmur3",
                                         "hash-table", "search",
                                         "huff-dec", "huff-enc",
                                         "kD-tree"),
                       ::testing::ValuesIn(kConfigs)),
    caseName);

INSTANTIATE_TEST_SUITE_P(
    LanguageFixtures, GraphOptEquivApps,
    ::testing::Combine(::testing::ValuesIn(fixtureLabels()),
                       ::testing::ValuesIn(kConfigs)),
    caseName);

// ---------------------------------------------------------------------
// Revision reuse. runPasses() accounts and value-analyzes each graph
// revision once, and skips a pass that already found nothing at the
// current revision. Both rest on GraphPass::run's contract (a run that
// returns 0 leaves the graph untouched), checked here for every pass at
// every revision the default pipeline visits; and the result must be
// the reference fixpoint's, which reuses nothing.

TEST(GraphOptPipeline, RevisionReuseMatchesReferenceFixpoint)
{
    std::vector<std::pair<std::string, std::string>> programs;
    for (const auto &app : apps::allApps())
        programs.emplace_back(app.name, app.source);
    for (const auto &f : fixtures::languageFixtures())
        programs.emplace_back(f.label, f.source);
    ASSERT_EQ(programs.size(), 22u);
    CompileOptions raw;
    raw.graphOpt.enable = false;
    const GraphPassOptions opts;
    for (const auto &[label, source] : programs) {
        const auto prog = CompiledArtifact::build(source, raw);
        Dfg reused = prog->dfg();
        Dfg reference = prog->dfg();
        const GraphOptReport got =
            runPasses(reused, makeDefaultPasses(opts), opts);
        std::vector<std::string> broken;
        const GraphOptReport want = fixtures::referenceFixpoint(
            reference, makeDefaultPasses(opts), opts, &broken);
        for (const std::string &b : broken)
            ADD_FAILURE() << label << ": " << b;
        EXPECT_GT(got.validatedPasses, 0) << label;
        EXPECT_EQ(got.summary(), want.summary()) << label;
        EXPECT_TRUE(fixtures::fingerprint(reused) ==
                    fixtures::fingerprint(reference))
            << label << ": runPasses and the reference fixpoint "
            << "optimized to different graphs";
    }
}

// ---------------------------------------------------------------------
// Structural: fanout coalescing.

TEST(GraphOptStructure, FanoutChainCoalesces)
{
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "__start");
    int a = g.newLink("a");
    g.connectOut(src.id, a);
    auto &f1 = g.newNode(NodeKind::fanout, "f1");
    g.connectIn(f1.id, a);
    int l1 = g.newLink("l1"), l4 = g.newLink("l4");
    g.connectOut(f1.id, l1);
    g.connectOut(f1.id, l4);
    auto &f2 = g.newNode(NodeKind::fanout, "f2");
    g.connectIn(f2.id, l1);
    int l2 = g.newLink("l2"), l3 = g.newLink("l3");
    g.connectOut(f2.id, l2);
    g.connectOut(f2.id, l3);
    for (int l : {l2, l3, l4}) {
        auto &sk = g.newNode(NodeKind::sink, "sink");
        g.connectIn(sk.id, l);
    }
    g.verify();

    GraphPassOptions opts;
    EXPECT_GT(makeFanoutCoalescePass()->run(g, opts), 0);
    g.verify();
    EXPECT_EQ(countKind(g, NodeKind::fanout), 1);
    for (const auto &n : g.nodes) {
        if (n.kind == NodeKind::fanout) {
            EXPECT_EQ(n.outs.size(), 3u);
        }
    }
}

TEST(GraphOptStructure, OneWayFanoutSpliced)
{
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "__start");
    int a = g.newLink("a");
    g.connectOut(src.id, a);
    auto &fan = g.newNode(NodeKind::fanout, "fan");
    g.connectIn(fan.id, a);
    int b = g.newLink("b");
    g.connectOut(fan.id, b);
    auto &sk = g.newNode(NodeKind::sink, "sink");
    g.connectIn(sk.id, b);
    g.verify();

    GraphPassOptions opts;
    EXPECT_EQ(makeFanoutCoalescePass()->run(g, opts), 1);
    g.verify();
    EXPECT_EQ(g.nodes.size(), 2u);
    EXPECT_EQ(g.links.size(), 1u);
    EXPECT_EQ(g.nodes[g.links[0].dst].kind, NodeKind::sink);
}

// ---------------------------------------------------------------------
// Structural: dead-node / sink elimination.

namespace
{

/** source -> block(op) -> sink, for effect/purity tests. */
Dfg
blockIntoSink(OpKind kind)
{
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "__start");
    int a = g.newLink("a");
    g.connectOut(src.id, a);
    auto &blk = g.newNode(NodeKind::block, "b0");
    g.connectIn(blk.id, a);
    blk.inputRegs = {0};
    blk.nRegs = 2;
    BlockOp op;
    op.kind = kind;
    op.dst = 1;
    op.a = 0;
    op.b = 0;
    if (kind == OpKind::dramWrite) {
        op.dst = -1;
        op.dram = 0;
    }
    blk.ops.push_back(op);
    int b = g.newLink("b");
    g.connectOut(blk.id, b);
    blk.outputRegs = {kind == OpKind::dramWrite ? 0 : 1};
    auto &sk = g.newNode(NodeKind::sink, "sink.b");
    g.connectIn(sk.id, b);
    return g;
}

} // namespace

TEST(GraphOptStructure, DeadPureBlockPruned)
{
    Dfg g = blockIntoSink(OpKind::add);
    GraphPassOptions opts;
    EXPECT_GT(makeDeadNodeElimPass()->run(g, opts), 0);
    g.verify();
    // The pure block and its sink die; the source cannot narrow, so its
    // stream terminates in a fresh sink.
    EXPECT_EQ(countKind(g, NodeKind::block), 0);
    EXPECT_EQ(countKind(g, NodeKind::source), 1);
    EXPECT_EQ(countKind(g, NodeKind::sink), 1);
}

TEST(GraphOptStructure, EffectfulBlockSurvivesAndDropsSinkOutput)
{
    Dfg g = blockIntoSink(OpKind::dramWrite);
    GraphPassOptions opts;
    EXPECT_GT(makeDeadNodeElimPass()->run(g, opts), 0);
    g.verify();
    // The store block stays (it is observable); its dangling output and
    // the sink disappear.
    EXPECT_EQ(countKind(g, NodeKind::block), 1);
    EXPECT_EQ(countKind(g, NodeKind::sink), 0);
    for (const auto &n : g.nodes) {
        if (n.kind == NodeKind::block) {
            EXPECT_TRUE(n.outs.empty());
        }
    }
}

TEST(GraphOptStructure, DeadConeBehindFanoutShrinksIt)
{
    // source -> fanout -> {store block, pure block -> sink}: the pure
    // arm dies and the fanout degenerates to 1-way (for the coalescer).
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "__start");
    int a = g.newLink("a");
    g.connectOut(src.id, a);
    auto &fan = g.newNode(NodeKind::fanout, "fan");
    g.connectIn(fan.id, a);
    int l1 = g.newLink("l1"), l2 = g.newLink("l2");
    g.connectOut(fan.id, l1);
    g.connectOut(fan.id, l2);

    auto &store = g.newNode(NodeKind::block, "store");
    g.connectIn(store.id, l1);
    store.inputRegs = {0};
    store.nRegs = 1;
    BlockOp wr;
    wr.kind = OpKind::dramWrite;
    wr.a = 0;
    wr.b = 0;
    wr.dram = 0;
    store.ops.push_back(wr);

    auto &pure = g.newNode(NodeKind::block, "pure");
    g.connectIn(pure.id, l2);
    pure.inputRegs = {0};
    pure.nRegs = 2;
    BlockOp add;
    add.kind = OpKind::add;
    add.dst = 1;
    add.a = 0;
    add.b = 0;
    pure.ops.push_back(add);
    int l3 = g.newLink("l3");
    g.connectOut(pure.id, l3);
    pure.outputRegs = {1};
    auto &sk = g.newNode(NodeKind::sink, "sink");
    g.connectIn(sk.id, l3);
    g.verify();

    GraphPassOptions opts;
    EXPECT_GT(makeDeadNodeElimPass()->run(g, opts), 0);
    g.verify();
    EXPECT_EQ(countKind(g, NodeKind::block), 1);
    EXPECT_EQ(countKind(g, NodeKind::sink), 0);
    for (const auto &n : g.nodes) {
        if (n.kind == NodeKind::fanout) {
            EXPECT_EQ(n.outs.size(), 1u);
        }
    }
}

// ---------------------------------------------------------------------
// Structural: copy propagation.

TEST(GraphOptStructure, PassthroughBlockSpliced)
{
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "__start");
    int a = g.newLink("a");
    g.connectOut(src.id, a);
    auto &blk = g.newNode(NodeKind::block, "pass");
    g.connectIn(blk.id, a);
    blk.inputRegs = {0};
    blk.nRegs = 1;
    int b = g.newLink("b");
    g.connectOut(blk.id, b);
    blk.outputRegs = {0};
    auto &sk = g.newNode(NodeKind::sink, "sink");
    g.connectIn(sk.id, b);
    g.verify();

    GraphPassOptions opts;
    EXPECT_EQ(makeCopyPropPass()->run(g, opts), 1);
    g.verify();
    EXPECT_EQ(g.nodes.size(), 2u);
    EXPECT_EQ(g.links.size(), 1u);
}

TEST(GraphOptStructure, MovOnlyBlockBecomesFanout)
{
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "__start");
    int a = g.newLink("a");
    g.connectOut(src.id, a);
    auto &blk = g.newNode(NodeKind::block, "dup");
    g.connectIn(blk.id, a);
    blk.inputRegs = {0};
    blk.nRegs = 2;
    BlockOp mv;
    mv.kind = OpKind::mov;
    mv.dst = 1;
    mv.a = 0;
    blk.ops.push_back(mv);
    int b = g.newLink("b"), c = g.newLink("c");
    g.connectOut(blk.id, b);
    g.connectOut(blk.id, c);
    blk.outputRegs = {0, 1};
    for (int l : {b, c}) {
        auto &sk = g.newNode(NodeKind::sink, "sink");
        g.connectIn(sk.id, l);
    }
    g.verify();

    GraphPassOptions opts;
    EXPECT_EQ(makeCopyPropPass()->run(g, opts), 1);
    g.verify();
    EXPECT_EQ(countKind(g, NodeKind::fanout), 1);
    EXPECT_EQ(countKind(g, NodeKind::block), 0);
}

TEST(GraphOptStructure, MultiInputAlignmentBlockPreserved)
{
    // Two sources -> one op-less 2-in/2-out block (the foreach sync
    // shape). It orders memory effects, so copy-prop must not touch it.
    Dfg g;
    int links[2];
    for (int i = 0; i < 2; ++i) {
        auto &src = g.newNode(NodeKind::source, "__src");
        links[i] = g.newLink("s" + std::to_string(i));
        g.connectOut(src.id, links[i]);
    }
    auto &sync = g.newNode(NodeKind::block, "sync");
    sync.nRegs = 2;
    for (int i = 0; i < 2; ++i) {
        g.connectIn(sync.id, links[i]);
        sync.inputRegs.push_back(i);
        int o = g.newLink("o" + std::to_string(i));
        g.connectOut(sync.id, o);
        sync.outputRegs.push_back(i);
        auto &sk = g.newNode(NodeKind::sink, "sink");
        g.connectIn(sk.id, o);
    }
    g.verify();

    GraphPassOptions opts;
    EXPECT_EQ(makeCopyPropPass()->run(g, opts), 0);
    EXPECT_EQ(countKind(g, NodeKind::block), 1);
}

// ---------------------------------------------------------------------
// Structural: in-block constant folding.

TEST(GraphOptStructure, ConstantsFoldAndDeadOpsVanish)
{
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "__start");
    int a = g.newLink("a");
    g.connectOut(src.id, a);
    auto &blk = g.newNode(NodeKind::block, "calc");
    g.connectIn(blk.id, a);
    blk.inputRegs = {0};
    blk.nRegs = 5;
    auto push = [&](OpKind k, int dst, int pa = -1, int pb = -1,
                    Word imm = 0) {
        BlockOp op;
        op.kind = k;
        op.dst = dst;
        op.a = pa;
        op.b = pb;
        op.imm = imm;
        blk.ops.push_back(op);
    };
    push(OpKind::cnst, 1, -1, -1, 2);
    push(OpKind::cnst, 2, -1, -1, 3);
    push(OpKind::add, 3, 1, 2); // fold -> 5
    push(OpKind::mov, 4, 3);    // alias, then dead
    int b = g.newLink("b");
    g.connectOut(blk.id, b);
    blk.outputRegs = {4};
    auto &sk = g.newNode(NodeKind::sink, "sink");
    g.connectIn(sk.id, b);
    g.verify();

    GraphPassOptions opts;
    EXPECT_GT(makeConstFoldPass()->run(g, opts), 0);
    g.verify();
    const Node &n = g.nodes[blk.id];
    ASSERT_EQ(n.ops.size(), 1u);
    EXPECT_EQ(n.ops[0].kind, OpKind::cnst);
    EXPECT_EQ(n.ops[0].imm, 5u);
    EXPECT_EQ(n.outputRegs[0], n.ops[0].dst);
    // Idempotent: a second run finds nothing.
    EXPECT_EQ(makeConstFoldPass()->run(g, opts), 0);
}

TEST(GraphOptStructure, AlgebraicIdentitiesSimplify)
{
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "__start");
    int a = g.newLink("a");
    g.connectOut(src.id, a);
    auto &blk = g.newNode(NodeKind::block, "calc");
    g.connectIn(blk.id, a);
    blk.inputRegs = {0};
    blk.nRegs = 4;
    BlockOp zero;
    zero.kind = OpKind::cnst;
    zero.dst = 1;
    zero.imm = 0;
    blk.ops.push_back(zero);
    BlockOp add;
    add.kind = OpKind::add;
    add.dst = 2;
    add.a = 0;
    add.b = 1; // x + 0 -> mov x
    blk.ops.push_back(add);
    BlockOp mul;
    mul.kind = OpKind::mul;
    mul.dst = 3;
    mul.a = 2;
    mul.b = 1; // x * 0 -> 0
    blk.ops.push_back(mul);
    int b = g.newLink("b"), c = g.newLink("c");
    g.connectOut(blk.id, b);
    g.connectOut(blk.id, c);
    blk.outputRegs = {2, 3};
    for (int l : {b, c}) {
        auto &sk = g.newNode(NodeKind::sink, "sink");
        g.connectIn(sk.id, l);
    }
    g.verify();

    GraphPassOptions opts;
    EXPECT_GT(makeConstFoldPass()->run(g, opts), 0);
    g.verify();
    const Node &n = g.nodes[blk.id];
    // x+0 aliased away entirely: first output reads the input register.
    EXPECT_EQ(n.outputRegs[0], 0);
    // x*0 folded to the constant 0.
    bool has_const_zero = false;
    for (const auto &op : n.ops) {
        has_const_zero |= op.kind == OpKind::cnst && op.imm == 0 &&
            op.dst == n.outputRegs[1];
        EXPECT_NE(op.kind, OpKind::mul);
        EXPECT_NE(op.kind, OpKind::add);
    }
    EXPECT_TRUE(has_const_zero);
}

TEST(GraphOptStructure, OutOfOrderDefinitionIsNotForwarded)
{
    // Non-SSA-ordered block: mov reads r1 *before* its definition, so
    // the export must keep reading zero — the alias r2 -> r1 (and with
    // it the later value 5) must not be recorded.
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "__start");
    int a = g.newLink("a");
    g.connectOut(src.id, a);
    auto &blk = g.newNode(NodeKind::block, "ooo");
    g.connectIn(blk.id, a);
    blk.inputRegs = {0};
    blk.nRegs = 3;
    BlockOp mv;
    mv.kind = OpKind::mov;
    mv.dst = 2;
    mv.a = 1; // read-before-write: observes zero
    blk.ops.push_back(mv);
    BlockOp cn;
    cn.kind = OpKind::cnst;
    cn.dst = 1;
    cn.imm = 5;
    blk.ops.push_back(cn);
    int b = g.newLink("b");
    g.connectOut(blk.id, b);
    blk.outputRegs = {2};
    auto &sk = g.newNode(NodeKind::sink, "sink");
    g.connectIn(sk.id, b);
    g.verify();

    GraphPassOptions opts;
    makeConstFoldPass()->run(g, opts);
    g.verify();
    // Whatever was rewritten, the exported value must still be zero:
    // either the output register is untouched-by-alias (reads the mov
    // result) or the whole chain folded to the constant 0.
    const Node &n = g.nodes[blk.id];
    std::vector<Word> regs(n.nRegs, 0);
    for (const auto &op : n.ops) {
        if (op.kind == OpKind::cnst)
            regs[op.dst] = op.imm;
        else if (op.kind == OpKind::mov)
            regs[op.dst] = regs[op.a];
    }
    EXPECT_EQ(regs[n.outputRegs[0]], 0u);
}

// ---------------------------------------------------------------------
// Structural: block fusion.

namespace
{

/** source -> A(aluOpsA) -> B(aluOpsB) -> sink chain. */
Dfg
blockChain(int alu_a, int alu_b)
{
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "__start");
    int a = g.newLink("a");
    g.connectOut(src.id, a);
    int cur = a;
    int which = 0;
    for (int alu : {alu_a, alu_b}) {
        auto &blk =
            g.newNode(NodeKind::block, "b" + std::to_string(which++));
        g.connectIn(blk.id, cur);
        blk.inputRegs = {0};
        blk.nRegs = 1 + alu;
        for (int i = 0; i < alu; ++i) {
            BlockOp op;
            op.kind = OpKind::add;
            op.dst = 1 + i;
            op.a = i;
            op.b = i;
            blk.ops.push_back(op);
        }
        int out = g.newLink("o" + std::to_string(which));
        g.connectOut(blk.id, out);
        blk.outputRegs = {alu};
        cur = out;
    }
    auto &sk = g.newNode(NodeKind::sink, "sink");
    g.connectIn(sk.id, cur);
    g.verify();
    return g;
}

} // namespace

TEST(GraphOptStructure, AdjacentBlocksFuse)
{
    Dfg g = blockChain(2, 3);
    GraphPassOptions opts;
    EXPECT_EQ(makeBlockFusionPass()->run(g, opts), 1);
    g.verify();
    EXPECT_EQ(countKind(g, NodeKind::block), 1);
    for (const auto &n : g.nodes) {
        if (n.kind == NodeKind::block) {
            // 2 + 3 adds plus the bridging mov.
            EXPECT_EQ(n.ops.size(), 6u);
        }
    }
}

TEST(GraphOptStructure, FusionStopsAtReplicateRegionBoundary)
{
    // The fused node carries a single replicateRegion id, so fusing
    // across a region boundary would misattribute the absorbed block's
    // work in the resource model.
    Dfg g = blockChain(2, 3);
    for (auto &n : g.nodes) {
        if (n.kind == NodeKind::block && n.name == "b1")
            n.replicateRegion = 0;
    }
    GraphPassOptions opts;
    EXPECT_EQ(makeBlockFusionPass()->run(g, opts), 0);
    EXPECT_EQ(countKind(g, NodeKind::block), 2);
}

TEST(GraphOptStructure, FusionRespectsStageBudget)
{
    // Table II: stages * 6 ops per context (6 * 6 = 36 default). Two
    // blocks that together exceed it must not fuse.
    GraphPassOptions opts;
    const int budget =
        opts.machine.stages * 6; // kOpsPerStage in resources.cc
    Dfg g = blockChain(budget - 1, 2);
    EXPECT_EQ(makeBlockFusionPass()->run(g, opts), 0);
    EXPECT_EQ(countKind(g, NodeKind::block), 2);
}

// ---------------------------------------------------------------------
// Structural: replicate bufferization.

namespace
{

/**
 * source -> pre -> [region blocks / filter] -> post, with @p passover
 * extra links from pre straight to post (the V-C(d) candidates).
 * Multiple regions chain in sequence so one link crosses them all.
 */
Dfg
replicateShape(int passover, int regions = 1, bool filter_in_region = false)
{
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "__start");
    int tok = g.newLink("tok");
    g.connectOut(src.id, tok);

    auto &pre = g.newNode(NodeKind::block, "pre");
    g.connectIn(pre.id, tok);
    pre.inputRegs = {0};
    pre.nRegs = 1;
    int carrier = g.newLink("carrier");
    pre.outputRegs.push_back(0);
    g.connectOut(pre.id, carrier);
    std::vector<int> po;
    for (int i = 0; i < passover; ++i) {
        int l = g.newLink("po" + std::to_string(i));
        pre.outputRegs.push_back(0);
        g.connectOut(pre.id, l);
        po.push_back(l);
    }

    int cur = carrier;
    for (int r = 0; r < regions; ++r) {
        ReplicateInfo info;
        info.id = r;
        info.replicas = 2;
        info.liveValuesIn = 1;
        auto &blk = g.newNode(NodeKind::block, "r" + std::to_string(r));
        blk.replicateRegion = r;
        info.nodeIds.push_back(blk.id);
        g.connectIn(blk.id, cur);
        blk.inputRegs = {0};
        blk.nRegs = filter_in_region ? 2 : 1;
        int out = g.newLink("c" + std::to_string(r));
        blk.outputRegs.push_back(0);
        g.connectOut(blk.id, out);
        cur = out;
        if (filter_in_region) {
            // Predicate + filter inside the region: reorders threads,
            // so the region must refuse bufferization.
            BlockOp op;
            op.kind = OpKind::eq;
            op.dst = 1;
            op.a = 0;
            op.b = 0;
            blk.ops.push_back(op);
            int pl = g.newLink("p" + std::to_string(r));
            blk.outputRegs.push_back(1);
            g.connectOut(blk.id, pl);
            auto &flt = g.newNode(NodeKind::filter,
                                  "f" + std::to_string(r));
            flt.replicateRegion = r;
            info.nodeIds.push_back(flt.id);
            g.connectIn(flt.id, pl);
            g.connectIn(flt.id, cur);
            int fo = g.newLink("fo" + std::to_string(r));
            g.connectOut(flt.id, fo);
            cur = fo;
        }
        g.replicates.push_back(info);
    }

    auto &post = g.newNode(NodeKind::block, "post");
    g.connectIn(post.id, cur);
    post.inputRegs = {0};
    post.nRegs = 1 + passover;
    for (int i = 0; i < passover; ++i) {
        g.connectIn(post.id, po[i]);
        post.inputRegs.push_back(1 + i);
    }
    BlockOp wr;
    wr.kind = OpKind::dramWrite;
    wr.a = 0;
    wr.b = passover > 0 ? 1 : 0;
    wr.dram = 0;
    post.ops.push_back(wr);
    g.verify();
    return g;
}

int
countParks(const Dfg &g)
{
    int n = 0;
    for (const auto &node : g.nodes)
        n += node.kind == NodeKind::park;
    return n;
}

} // namespace

TEST(GraphOptStructure, PassOverLinksGetParked)
{
    Dfg g = replicateShape(3);
    GraphPassOptions opts;
    EXPECT_EQ(makeReplicateBufferizePass()->run(g, opts), 3);
    g.verify();
    EXPECT_EQ(countParks(g), 3);
    EXPECT_EQ(g.replicates[0].bufferized, 3);
    EXPECT_EQ(g.replicateParkedValues(0), 3);
    // Parked detours are off the crossing set now.
    EXPECT_TRUE(g.replicatePassOverLinks(0).empty());
    // Idempotent: a second run finds nothing left to park.
    EXPECT_EQ(makeReplicateBufferizePass()->run(g, opts), 0);
    EXPECT_EQ(countParks(g), 3);
}

TEST(GraphOptStructure, ZeroPassOverValuesIsANoOp)
{
    Dfg g = replicateShape(0);
    GraphPassOptions opts;
    EXPECT_EQ(makeReplicateBufferizePass()->run(g, opts), 0);
    g.verify();
    EXPECT_EQ(countParks(g), 0);
    EXPECT_EQ(g.replicates[0].bufferized, 0);
}

TEST(GraphOptStructure, ValueBothConsumedInsideAndPassedOverIsSkipped)
{
    // pre -> fanout -> {region block, post}: the post-bound copy of a
    // value whose sibling enters the region keeps riding the region's
    // distribution tree (V-C(d) applies to pure pass-overs only).
    Dfg g = replicateShape(0);
    int region_block = -1, post = -1;
    for (const auto &n : g.nodes) {
        if (n.name == "r0")
            region_block = n.id;
        if (n.name == "post")
            post = n.id;
    }
    ASSERT_GE(region_block, 0);
    // Rewire: pre's carrier feeds a fanout with one arm into the
    // region and one arm straight to post.
    int carrier = g.nodes[region_block].ins[0];
    auto &fan = g.newNode(NodeKind::fanout, "split");
    int fan_id = fan.id;
    g.links[carrier].dst = fan_id;
    g.nodes[fan_id].ins.push_back(carrier);
    int arm_in = g.newLink("arm.in");
    int arm_over = g.newLink("arm.over");
    g.connectOut(fan_id, arm_in);
    g.connectOut(fan_id, arm_over);
    g.nodes[region_block].ins[0] = arm_in;
    g.links[arm_in].dst = region_block;
    g.connectIn(post, arm_over);
    g.nodes[post].inputRegs.push_back(0);
    g.verify();

    GraphPassOptions opts;
    EXPECT_EQ(makeReplicateBufferizePass()->run(g, opts), 0);
    g.verify();
    EXPECT_EQ(countParks(g), 0);
}

TEST(GraphOptStructure, LinkCrossingNestedRegionsIsRefused)
{
    // One pass-over link spanning two chained regions: a single
    // park/restore pair cannot sit on the right side of both
    // boundaries, so the pass must leave it carried.
    Dfg g = replicateShape(2, /*regions=*/2);
    GraphPassOptions opts;
    EXPECT_EQ(makeReplicateBufferizePass()->run(g, opts), 0);
    g.verify();
    EXPECT_EQ(countParks(g), 0);
    EXPECT_EQ(g.replicates[0].bufferized, 0);
    EXPECT_EQ(g.replicates[1].bufferized, 0);
}

TEST(GraphOptStructure, ParkBudgetOverflowBailsWholeRegion)
{
    GraphPassOptions opts;
    const int budget = opts.machine.muBanks;
    Dfg g = replicateShape(budget + 1);
    EXPECT_EQ(makeReplicateBufferizePass()->run(g, opts), 0);
    g.verify();
    EXPECT_EQ(countParks(g), 0);
    EXPECT_EQ(g.replicates[0].bufferized, 0);
    // At the budget the region parks in full.
    Dfg h = replicateShape(budget);
    EXPECT_EQ(makeReplicateBufferizePass()->run(h, opts), budget);
    h.verify();
    EXPECT_EQ(h.replicates[0].bufferized, budget);
}

TEST(GraphOptStructure, ReorderingRegionRefusesPositionalCrossings)
{
    // A filter inside the region emits threads out of arrival order;
    // its CROSSING links stay unparked (a positional FIFO re-pairing
    // would scramble values, and none of them is a ride the ordinal
    // machinery could key — they never enter the region).
    Dfg g = replicateShape(2, 1, /*filter_in_region=*/true);
    GraphPassOptions opts;
    EXPECT_EQ(makeReplicateBufferizePass()->run(g, opts), 0);
    g.verify();
    EXPECT_EQ(countParks(g), 0);
}

// ---------------------------------------------------------------------
// Structural: ordinal-keyed parking on thread-reordering regions.

namespace
{

/**
 * source -> pre{p, v, x} -> region{rb(v), filter(p; v', x)} -> post:
 * x traverses the region untouched (a pure ride lane), v is consumed
 * by the region block, p drives the filter. The filter makes the
 * region thread-reordering, so x is the ordinal-keyed candidate.
 */
Dfg
reorderingRideShape()
{
    Dfg g;
    ReplicateInfo info;
    info.id = 0;
    info.replicas = 2;
    info.liveValuesIn = 1;

    auto &src = g.newNode(NodeKind::source, "__start");
    int tok = g.newLink("tok");
    g.connectOut(src.id, tok);

    auto &pre = g.newNode(NodeKind::block, "pre");
    g.connectIn(pre.id, tok);
    pre.inputRegs = {0};
    pre.nRegs = 1;
    int p = g.newLink("p"), v = g.newLink("v"), x = g.newLink("x");
    for (int l : {p, v, x}) {
        pre.outputRegs.push_back(0);
        g.connectOut(pre.id, l);
    }

    auto &rb = g.newNode(NodeKind::block, "rb");
    rb.replicateRegion = 0;
    info.nodeIds.push_back(rb.id);
    g.connectIn(rb.id, v);
    rb.inputRegs = {0};
    rb.nRegs = 2;
    BlockOp op;
    op.kind = OpKind::add; // consumes v: not a ride
    op.dst = 1;
    op.a = 0;
    op.b = 0;
    rb.ops.push_back(op);
    int v2 = g.newLink("v2");
    rb.outputRegs = {1};
    g.connectOut(rb.id, v2);

    auto &flt = g.newNode(NodeKind::filter, "flt");
    flt.replicateRegion = 0;
    info.nodeIds.push_back(flt.id);
    g.connectIn(flt.id, p);
    g.connectIn(flt.id, v2);
    g.connectIn(flt.id, x);
    int vf = g.newLink("vf"), xf = g.newLink("xf");
    g.connectOut(flt.id, vf);
    g.connectOut(flt.id, xf);

    auto &post = g.newNode(NodeKind::block, "post");
    g.connectIn(post.id, vf);
    g.connectIn(post.id, xf);
    post.inputRegs = {0, 1};
    post.nRegs = 2;
    BlockOp wr;
    wr.kind = OpKind::dramWrite;
    wr.a = 0;
    wr.b = 1;
    wr.dram = 0;
    post.ops.push_back(wr);
    g.replicates.push_back(info);
    g.verify();
    return g;
}

int
countOrdinals(const Dfg &g)
{
    int n = 0;
    for (const auto &node : g.nodes)
        n += node.kind == NodeKind::ordinal;
    return n;
}

} // namespace

TEST(GraphOptStructure, ReorderingRideGetsOrdinalKeyed)
{
    Dfg g = reorderingRideShape();
    ASSERT_EQ(g.replicateRideLanes(0).size(), 1u);
    GraphPassOptions opts;
    EXPECT_EQ(makeReplicateBufferizePass()->run(g, opts), 1);
    g.verify();
    EXPECT_EQ(countParks(g), 1);
    EXPECT_EQ(countOrdinals(g), 1);
    EXPECT_EQ(g.replicates[0].bufferized, 1);
    EXPECT_EQ(g.replicateParkedValues(0), 1);
    for (const auto &n : g.nodes) {
        if (n.kind == NodeKind::park) {
            EXPECT_TRUE(n.keyed);
        }
        if (n.kind == NodeKind::restore) {
            EXPECT_TRUE(n.keyed);
            // ins = {park link, ordinal key from the region exit}.
            ASSERT_EQ(n.ins.size(), 2u);
            EXPECT_EQ(g.nodes[g.links[n.ins[0]].src].kind,
                      NodeKind::park);
        }
        // The ride's old lane still rides — repurposed as the i32
        // ordinal lane — so the filter keeps its bundle width.
        if (n.kind == NodeKind::filter) {
            EXPECT_EQ(n.outs.size(), 2u);
        }
    }
    // Idempotent: the ordinal lane is not itself a parkable ride.
    EXPECT_TRUE(g.replicateRideLanes(0).empty());
    EXPECT_EQ(makeReplicateBufferizePass()->run(g, opts), 0);
    EXPECT_EQ(countParks(g), 1);
}

TEST(GraphOptStructure, GuardedOverwriteInsideRegionTaintsRide)
{
    // A guarded write only overwrites on guard-true threads: the lane
    // still exports the original value for guard-false ones, so it is
    // neither a pure ride nor cleanly retired — detection must refuse
    // it rather than park a value the region can still emit.
    Dfg g = reorderingRideShape();
    int x = -1;
    for (const auto &l : g.links) {
        if (l.name == "x")
            x = l.id;
    }
    ASSERT_GE(x, 0);
    const int flt = g.links[x].dst;
    auto &blk = g.newNode(NodeKind::block, "guarded");
    blk.replicateRegion = 0;
    g.replicates[0].nodeIds.push_back(blk.id);
    const int bid = blk.id;
    blk.nRegs = 3;
    blk.inputRegs = {0};
    g.links[x].dst = bid;
    blk.ins.push_back(x);
    BlockOp mv;
    mv.kind = OpKind::mov;
    mv.dst = 1;
    mv.a = 0;
    blk.ops.push_back(mv);
    BlockOp gw; // conditionally overwrites the carrying register
    gw.kind = OpKind::add;
    gw.dst = 0;
    gw.a = 2;
    gw.b = 2;
    gw.guard = 2;
    blk.ops.push_back(gw);
    int x2 = g.newLink("x2");
    blk.outputRegs = {0};
    g.connectOut(bid, x2);
    auto it = std::find(g.nodes[flt].ins.begin(),
                        g.nodes[flt].ins.end(), x);
    ASSERT_NE(it, g.nodes[flt].ins.end());
    *it = x2;
    g.links[x2].dst = flt;
    g.verify();

    EXPECT_TRUE(g.replicateRideLanes(0).empty());
    GraphPassOptions opts;
    EXPECT_EQ(makeReplicateBufferizePass()->run(g, opts), 0);
    EXPECT_EQ(countParks(g), 0);
}

TEST(GraphOptStructure, ThreadMultiplyingRegionStillRefused)
{
    // A counter inside the region (a fork's distribution machinery)
    // multiplies the thread stream: one parked value per entering
    // thread cannot re-pair with several exiting ones, not even by
    // ordinal, so the region must refuse parking entirely.
    Dfg g;
    ReplicateInfo info;
    info.id = 0;
    info.replicas = 2;

    auto &src = g.newNode(NodeKind::source, "__start");
    int tok = g.newLink("tok");
    g.connectOut(src.id, tok);
    auto &pre = g.newNode(NodeKind::block, "pre");
    g.connectIn(pre.id, tok);
    pre.inputRegs = {0};
    pre.nRegs = 1;
    std::vector<int> outs;
    for (const char *nm : {"m0", "m1", "m2", "x"}) {
        int l = g.newLink(nm);
        pre.outputRegs.push_back(0);
        g.connectOut(pre.id, l);
        outs.push_back(l);
    }

    auto &ctr = g.newNode(NodeKind::counter, "fork.ctr");
    ctr.replicateRegion = 0;
    info.nodeIds.push_back(ctr.id);
    for (int i = 0; i < 3; ++i)
        g.connectIn(ctr.id, outs[i]);
    int cnt = g.newLink("cnt");
    g.connectOut(ctr.id, cnt);
    auto &csink = g.newNode(NodeKind::sink, "sink.cnt");
    csink.replicateRegion = 0;
    info.nodeIds.push_back(csink.id);
    g.connectIn(csink.id, cnt);

    // x rides an in-region block untouched: a would-be ride, but the
    // multiplying region refuses it.
    auto &rb = g.newNode(NodeKind::block, "rb");
    rb.replicateRegion = 0;
    info.nodeIds.push_back(rb.id);
    g.connectIn(rb.id, outs[3]);
    rb.inputRegs = {0};
    rb.nRegs = 1;
    int x2 = g.newLink("x2");
    rb.outputRegs = {0};
    g.connectOut(rb.id, x2);

    auto &post = g.newNode(NodeKind::block, "post");
    g.connectIn(post.id, x2);
    post.inputRegs = {0};
    post.nRegs = 1;
    BlockOp wr;
    wr.kind = OpKind::dramWrite;
    wr.a = 0;
    wr.b = 0;
    wr.dram = 0;
    post.ops.push_back(wr);
    g.replicates.push_back(info);
    g.verify();

    GraphPassOptions opts;
    EXPECT_EQ(makeReplicateBufferizePass()->run(g, opts), 0);
    g.verify();
    EXPECT_EQ(countParks(g), 0);
    EXPECT_EQ(countOrdinals(g), 0);
    EXPECT_EQ(g.replicates[0].bufferized, 0);
}

namespace
{

const char *kReorderReplicateSrc = R"(
    DRAM<int> data; DRAM<int> out;
    void main(int n) {
      foreach (n) { int t =>
        int a = data[t];
        int k1 = t * 3 + 1;
        int k2 = t ^ 17;
        int w = a & 7;
        int h = a;
        replicate (4) {
          while (w != 0) { h = h * 31 + w; w = w - 1; };
        };
        out[t] = h + k1 - k2;
      };
    })";

int
fbMergeWidth(const Dfg &g)
{
    for (const auto &n : g.nodes) {
        if (n.kind == NodeKind::fbMerge)
            return static_cast<int>(n.outs.size());
    }
    return -1;
}

} // namespace

TEST(GraphOptStructure, OrdinalLaneCountedInBundleWidth)
{
    // Four pure rides (token, t, k1, k2) share one exit point: three
    // lanes leave the while header's bundle, the fourth is repurposed
    // as the ordinal lane and still occupies a bundle slot — the
    // resource model's merge width (outs.size()) must include it.
    CompileOptions off;
    off.graphOpt.enable = false;
    auto raw = CompiledArtifact::build(kReorderReplicateSrc, off);
    // Cross-block constant propagation would fold the constant token
    // ride away before bufferize ever sees it; run the default pipeline
    // without it so all four rides reach the park rewrite this fixture
    // is about.
    auto passes = makeDefaultPasses(GraphPassOptions{});
    passes.erase(std::remove_if(passes.begin(), passes.end(),
                                [](const auto &pass) {
                                    return pass->name() ==
                                           "cross-block-const-prop";
                                }),
                 passes.end());
    Dfg opt = lower(raw->hir());
    runPasses(opt, passes, GraphPassOptions{});

    int wraw = fbMergeWidth(raw->dfg());
    int wopt = fbMergeWidth(opt);
    ASSERT_GT(wraw, 0);
    ASSERT_GT(wopt, 0);
    EXPECT_EQ(wopt, wraw - 3);
    EXPECT_EQ(countOrdinals(opt), 1);
    int keyed = 0;
    for (const auto &n : opt.nodes)
        keyed += n.kind == NodeKind::park && n.keyed;
    EXPECT_EQ(keyed, 4);

    // The raw graph pays the per-replica retiming fallback for its
    // riding pass-overs; the rewritten one pays keyed slots + the
    // ordinal lane instead.
    graph::Dfg doff = raw->dfg();
    sim::MachineConfig machine;
    auto ron = analyzeResources(opt, machine, {});
    auto roff = analyzeResources(doff, machine, {});
    EXPECT_EQ(raw->dfg().replicateRideLanes(0).size(), 4u);
    EXPECT_TRUE(opt.replicateRideLanes(0).empty());
    EXPECT_GT(ron.bufferMU, 0);
    EXPECT_LT(ron.bufferMU, roff.bufferMU);
    EXPECT_LT(ron.replCU, roff.replCU);
}

TEST(GraphOptStructure, RewrittenReorderingRegionIsIdempotent)
{
    auto prog = CompiledArtifact::build(kReorderReplicateSrc);
    graph::Dfg g = prog->dfg();
    GraphOptReport again = optimize(g);
    EXPECT_EQ(again.nodesBefore, again.nodesAfter);
    for (const auto &[pass, count] : again.rewrites)
        EXPECT_EQ(count, 0) << pass;
    g.verify();
}

// ---------------------------------------------------------------------
// Structural: sub-word packing.

TEST(GraphOptStructure, NarrowMergeLanesPackIntoSharedLane)
{
    // Two i8 lanes and one i16 lane (32 bits total) pack into one
    // shared lane; the i32 lane is left alone. Each narrow output is
    // normalized by its producer — the link-value invariant packing
    // relies on, and what the value analysis must see to trust the
    // narrow type (raw un-normalized words on a narrow link, e.g. an
    // SRAM handle, refuse to pack).
    Dfg g;
    const Scalar elems[] = {Scalar::i8, Scalar::i8, Scalar::i16,
                            Scalar::i32};
    std::vector<int> ins_a, ins_b;
    for (int side = 0; side < 2; ++side) {
        auto &src = g.newNode(NodeKind::source, "__src");
        int tok = g.newLink("tok");
        g.connectOut(src.id, tok);
        auto &blk = g.newNode(NodeKind::block, side ? "b" : "a");
        g.connectIn(blk.id, tok);
        blk.inputRegs = {0};
        blk.nRegs = 3;
        BlockOp n8;
        n8.kind = OpKind::norm;
        n8.dst = 1;
        n8.a = 0;
        n8.elem = Scalar::i8;
        BlockOp n16 = n8;
        n16.dst = 2;
        n16.elem = Scalar::i16;
        blk.ops = {n8, n16};
        const int out_regs[] = {1, 1, 2, 0};
        for (int j = 0; j < 4; ++j) {
            int l = g.newLink("v", elems[j]);
            blk.outputRegs.push_back(out_regs[j]);
            g.connectOut(blk.id, l);
            (side ? ins_b : ins_a).push_back(l);
        }
    }
    auto &merge = g.newNode(NodeKind::fwdMerge, "join");
    for (int l : ins_a)
        g.connectIn(merge.id, l);
    for (int l : ins_b)
        g.connectIn(merge.id, l);
    for (Scalar e : elems) {
        int l = g.newLink("m", e);
        g.connectOut(merge.id, l);
        auto &sk = g.newNode(NodeKind::sink, "sink");
        g.connectIn(sk.id, l);
    }
    g.verify();

    GraphPassOptions opts;
    EXPECT_EQ(makeSubwordPackPass()->run(g, opts), 1);
    g.verify();
    const Node *m = nullptr;
    int packs = 0, unpacks = 0;
    for (const auto &n : g.nodes) {
        if (n.kind == NodeKind::fwdMerge)
            m = &n;
        packs += n.kind == NodeKind::block &&
            n.name.rfind("pack.", 0) == 0;
        unpacks += n.kind == NodeKind::block && n.name == "unpack";
    }
    ASSERT_NE(m, nullptr);
    // 4 lanes -> i32 survivor + 1 packed lane, on both bundles.
    EXPECT_EQ(m->outs.size(), 2u);
    EXPECT_EQ(m->ins.size(), 4u);
    EXPECT_EQ(packs, 2);
    EXPECT_EQ(unpacks, 1);
    for (int l : m->outs) {
        EXPECT_EQ(lang::bitWidth(g.links[l].elem), 32);
    }
    // Idempotent: everything narrow is already shared.
    EXPECT_EQ(makeSubwordPackPass()->run(g, opts), 0);
}

TEST(GraphOptStructure, LoneNarrowLaneIsNotPacked)
{
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "__src");
    int tok = g.newLink("tok");
    g.connectOut(src.id, tok);
    auto &blk = g.newNode(NodeKind::block, "a");
    g.connectIn(blk.id, tok);
    blk.inputRegs = {0};
    blk.nRegs = 1;
    std::vector<int> lanes;
    for (int i = 0; i < 2; ++i) {
        int l = g.newLink("v", i == 0 ? Scalar::i8 : Scalar::i32);
        blk.outputRegs.push_back(0);
        g.connectOut(blk.id, l);
        lanes.push_back(l);
    }
    auto &merge = g.newNode(NodeKind::fwdMerge, "join");
    for (int l : lanes)
        g.connectIn(merge.id, l);
    for (size_t i = 0; i < lanes.size(); ++i) {
        // B side: a second producer block.
        auto &bsrc = g.newNode(NodeKind::source, "__srcb");
        int bt = g.newLink("tokb");
        g.connectOut(bsrc.id, bt);
        auto &bb = g.newNode(NodeKind::block, "b");
        g.connectIn(bb.id, bt);
        bb.inputRegs = {0};
        bb.nRegs = 1;
        int l = g.newLink("w", g.links[lanes[i]].elem);
        bb.outputRegs.push_back(0);
        g.connectOut(bb.id, l);
        g.connectIn(merge.id, l);
    }
    for (int l : lanes) {
        int o = g.newLink("m", g.links[l].elem);
        g.connectOut(merge.id, o);
        auto &sk = g.newNode(NodeKind::sink, "sink");
        g.connectIn(sk.id, o);
    }
    g.verify();
    GraphPassOptions opts;
    EXPECT_EQ(makeSubwordPackPass()->run(g, opts), 0);
}

// ---------------------------------------------------------------------
// Full-pipeline behavior on lowered programs.

TEST(GraphOptPipeline, ReportShowsShrinkageAndConverges)
{
    Dfg g = lowered(R"(
        DRAM<int> out;
        void main(int n) {
          int i = 0; int acc = 0;
          while (i < n) { acc = acc + i * i; i++; };
          foreach (n) { int k => out[k] = acc + k; };
        })");
    const int nodes_before = static_cast<int>(g.nodes.size());

    GraphOptReport rep = optimize(g);
    EXPECT_EQ(rep.nodesBefore, nodes_before);
    EXPECT_LT(rep.nodesAfter, rep.nodesBefore);
    EXPECT_LT(rep.linksAfter, rep.linksBefore);
    EXPECT_GT(rep.iterations, 0);
    EXPECT_FALSE(rep.summary().empty());
    g.verify();

    // Fixpoint: a second full run changes nothing.
    GraphOptReport again = optimize(g);
    EXPECT_EQ(again.nodesBefore, again.nodesAfter);
    for (const auto &[pass, count] : again.rewrites)
        EXPECT_EQ(count, 0) << pass;
}

TEST(GraphOptPipeline, DisabledOptimizerLeavesGraphUntouched)
{
    CompileOptions off;
    off.graphOpt.enable = false;
    auto prog = CompiledArtifact::build(
        "DRAM<int> out; void main(int n) { out[0] = n; }", off);
    EXPECT_EQ(prog->optReport().nodesBefore, prog->optReport().nodesAfter);
    EXPECT_EQ(prog->optReport().iterations, 0);
}

TEST(GraphOptPipeline, ReplicateParkRoundTripExecutes)
{
    // End to end: pass-over values get parked, the executor routes
    // them through the SRAM detour (visible in the stats), and the
    // resource model reads the parked/carried split off the graph.
    const char *src = R"(
        DRAM<int> data; DRAM<int> out;
        void main(int n) {
          foreach (n) { int t =>
            int a = data[t];
            int k1 = t * 3 + 1;
            int k2 = t ^ 17;
            int h = a;
            replicate (4) {
              h = h * 31 + 7;
              h = h ^ (h / 64);
            };
            out[t] = h + k1 - k2;
          };
        })";
    auto prog = CompiledArtifact::build(src);
    int parks = 0;
    for (const auto &n : prog->dfg().nodes)
        parks += n.kind == NodeKind::park;
    ASSERT_GT(parks, 0);
    ASSERT_EQ(prog->dfg().replicates.size(), 1u);
    EXPECT_EQ(prog->dfg().replicates[0].bufferized, parks);
    EXPECT_EQ(prog->dfg().replicateParkedValues(0), parks);

    const fixtures::Generate gen = [](DramImage &dram) {
        std::vector<int32_t> data(16);
        for (int i = 0; i < 16; ++i)
            data[i] = i * 37 + 11;
        dram.fill("data", data);
        dram.resize("out", 64);
        return std::vector<int32_t>{16};
    };
    const auto run = fixtures::runCompiled(
        prog->bytecode(), prog->hir(), gen,
        dataflow::Engine::Policy::worklist);
    EXPECT_EQ(run.dram, fixtures::interpreted(*prog, gen));
    EXPECT_GT(run.stats.sramParkedElems, 0u);

    // The unoptimized graph carries the same values through the
    // region's trees instead: more bufferMU, wider replicate trees.
    CompileOptions off;
    off.graphOpt.enable = false;
    auto raw = CompiledArtifact::build(src, off);
    graph::Dfg don = prog->dfg(), doff = raw->dfg();
    sim::MachineConfig machine;
    auto ron = analyzeResources(don, machine, {});
    auto roff = analyzeResources(doff, machine, {});
    EXPECT_GT(ron.bufferMU, 0);
    EXPECT_LT(ron.bufferMU, roff.bufferMU);
    EXPECT_LT(ron.replCU, roff.replCU);
}

TEST(GraphOptPipeline, OrdinalParkRoundTripExecutes)
{
    // End to end on the thread-reordering shape PR 4 refused: the
    // rewrite is reported, the executor routes pass-over values
    // through the keyed SRAM detour (visible in the stats, including
    // the occupancy high-water mark), and the DRAM output stays
    // bit-identical to the AST interpreter under both policies.
    auto prog = CompiledArtifact::build(kReorderReplicateSrc);
    int buffered = 0;
    for (const auto &[pass, count] : prog->optReport().rewrites) {
        if (pass == "replicate-bufferize")
            buffered = count;
    }
    EXPECT_GT(buffered, 0) << prog->optReport().summary();
    ASSERT_EQ(prog->dfg().replicates.size(), 1u);
    EXPECT_EQ(prog->dfg().replicates[0].bufferized,
              prog->dfg().replicateParkedValues(0));
    EXPECT_GT(prog->dfg().replicates[0].bufferized, 0);

    const fixtures::Generate gen = [](DramImage &dram) {
        std::vector<int32_t> data(20);
        for (int i = 0; i < 20; ++i)
            data[i] = i * 91 + 5;
        dram.fill("data", data);
        dram.resize("out", 80);
        return std::vector<int32_t>{20};
    };
    const auto want = fixtures::interpreted(*prog, gen);
    for (auto policy : {dataflow::Engine::Policy::worklist,
                        dataflow::Engine::Policy::parallel}) {
        const auto run =
            fixtures::runCompiled(prog->bytecode(), prog->hir(), gen, policy);
        EXPECT_EQ(run.dram, want);
        const ExecStats &stats = run.stats;
        EXPECT_GT(stats.sramParkedElems, 0u);
        EXPECT_GT(stats.sramParkedPeak, 0u);
        EXPECT_LE(stats.sramParkedPeak, stats.sramParkedElems);
    }
}

TEST(GraphOptPipeline, SourceOrderSurvivesOptimization)
{
    // The executor seeds main()'s arguments by source order; the
    // optimizer must preserve it even when argument streams are unused.
    auto prog = CompiledArtifact::build(R"(
        DRAM<int> out;
        void main(int unused, int used) { out[0] = used; })");
    std::vector<std::string> sources;
    for (const auto &n : prog->dfg().nodes) {
        if (n.kind == NodeKind::source)
            sources.push_back(n.name);
    }
    ASSERT_EQ(sources.size(), 3u);
    EXPECT_EQ(sources[0], "__start");
    EXPECT_EQ(sources[1], "__arg0");
    EXPECT_EQ(sources[2], "__arg1");

    lang::DramImage dram(prog->hir());
    dram.resize("out", 4);
    prog->execute(dram, {11, 22});
    EXPECT_EQ(dram.read<int32_t>("out")[0], 22);
}
