/**
 * @file
 * Abstract interpretation: lattice algebra, fixpoint soundness on
 * compiled graphs, and the two optimizations it powers.
 *
 * The lattice tests pin down AbsVal's join/meet/clamp/pack algebra.
 * The fixture tests compile language programs and check the facts the
 * solver must prove: a constant surviving two block boundaries feeds
 * CrossBlockConstProp (the optimized graph collapses), and a
 * range-narrow but i32-typed diamond packs across its filter/merge (a
 * "dpack" group appears). Each runs through the shared differential
 * oracle (oracle.hh): DRAM bit-identical to the AST interpreter under
 * both engine policies, and every observed link value inside what the
 * fixpoint inferred for it; a corrupted observation shows that this
 * soundness check reports the offending link. The pass-through reroute
 * keeps a lane on its block while another input of the block carries
 * memory ordering, and the strlen program that needs this stays
 * bit-identical over repeated 8-worker parallel runs. Value lints
 * (guaranteed overflow, dead filter arm) surface through
 * analyzeGraph().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "core/revet.hh"
#include "graph/absint.hh"
#include "graph/analyze.hh"
#include "graph/optimize.hh"
#include "lang/type.hh"

#include "oracle.hh"
#include "single_pass.hh"

using namespace revet;
using namespace revet::graph;
using lang::DramImage;

namespace
{

int
countNamed(const Dfg &g, const std::string &tag)
{
    int n = 0;
    for (const auto &node : g.nodes)
        n += node.name.find(tag) != std::string::npos;
    return n;
}

} // namespace

// ---------------------------------------------------------------------
// Lattice algebra.

TEST(AbsVal, ConstructorsAndPredicates)
{
    EXPECT_TRUE(AbsVal{}.bottom);
    EXPECT_FALSE(AbsVal::top().bottom);
    EXPECT_TRUE(AbsVal::top().isTop());
    EXPECT_FALSE(AbsVal::top().isConst());

    AbsVal c = AbsVal::word(42);
    EXPECT_TRUE(c.isConst());
    EXPECT_EQ(c.constWord(), 42u);
    EXPECT_TRUE(c.contains(42));
    EXPECT_FALSE(c.contains(41));
    EXPECT_TRUE(c.excludesZero());
    EXPECT_TRUE(AbsVal::word(0).isZero());

    // The constant -1: signed view -1, unsigned view UINT32_MAX.
    AbsVal m = AbsVal::word(static_cast<uint32_t>(-1));
    EXPECT_TRUE(m.isConst());
    EXPECT_EQ(m.smin, -1);
    EXPECT_EQ(m.umax, UINT32_MAX);
}

TEST(AbsVal, FromBoundsFallsBackToTopWhenOutOfRange)
{
    AbsVal s = AbsVal::fromSigned(-4, 100);
    EXPECT_EQ(s.smin, -4);
    EXPECT_EQ(s.smax, 100);
    EXPECT_TRUE(s.contains(static_cast<uint32_t>(-4)));
    EXPECT_FALSE(s.contains(101));

    // A range straddling int32 collapses to top rather than lying.
    EXPECT_TRUE(AbsVal::fromSigned(0, INT64_C(1) << 40).isTop());
    EXPECT_TRUE(AbsVal::fromUnsigned(0, UINT64_C(1) << 40).isTop());

    AbsVal u = AbsVal::fromUnsigned(3, 9);
    EXPECT_TRUE(u.excludesZero());
    EXPECT_FALSE(AbsVal::fromUnsigned(0, 9).excludesZero());
}

TEST(AbsVal, JoinIsHullAndMeetIsIntersection)
{
    AbsVal a = AbsVal::fromSigned(1, 5);
    AbsVal b = AbsVal::fromSigned(10, 12);
    AbsVal j = joinVal(a, b);
    EXPECT_EQ(j.smin, 1);
    EXPECT_EQ(j.smax, 12);

    // Bottom is the identity of join.
    AbsVal jb = joinVal(AbsVal{}, a);
    EXPECT_EQ(jb.smin, a.smin);
    EXPECT_EQ(jb.smax, a.smax);
    EXPECT_FALSE(jb.bottom);

    // Meet of overlapping intervals narrows. Both sides must describe
    // the same value, so an empty intersection signals an unsound
    // argument and keeps the left side instead of fabricating bottom.
    AbsVal m = meetVal(AbsVal::fromSigned(0, 10), AbsVal::fromSigned(5, 20));
    EXPECT_EQ(m.smin, 5);
    EXPECT_EQ(m.smax, 10);
    AbsVal disjoint = meetVal(a, b);
    EXPECT_EQ(disjoint.smin, a.smin);
    EXPECT_EQ(disjoint.smax, a.smax);

    // Join of equal constants stays a constant.
    EXPECT_TRUE(joinVal(AbsVal::word(7), AbsVal::word(7)).isConst());
    EXPECT_FALSE(joinVal(AbsVal::word(7), AbsVal::word(8)).isConst());
}

TEST(AbsVal, TypeClampMatchesCanonicalRanges)
{
    AbsVal u8 = typeClamp(lang::Scalar::u8);
    EXPECT_EQ(u8.umin, 0u);
    EXPECT_EQ(u8.umax, 255u);
    AbsVal i8 = typeClamp(lang::Scalar::i8);
    EXPECT_EQ(i8.smin, -128);
    EXPECT_EQ(i8.smax, 127);
    AbsVal b = typeClamp(lang::Scalar::boolTy);
    EXPECT_EQ(b.umax, 1u);
    EXPECT_TRUE(typeClamp(lang::Scalar::i32).isTop());
}

TEST(AbsVal, PackElemPicksNarrowestLane)
{
    // Unsigned preferred at equal width; widen only as the range demands.
    EXPECT_EQ(packElem(AbsVal::fromSigned(0, 200)), lang::Scalar::u8);
    EXPECT_EQ(packElem(AbsVal::fromSigned(-5, 100)), lang::Scalar::i8);
    EXPECT_EQ(packElem(AbsVal::fromSigned(0, 60000)), lang::Scalar::u16);
    EXPECT_EQ(packElem(AbsVal::fromSigned(-300, 300)), lang::Scalar::i16);
    EXPECT_EQ(packElem(AbsVal::fromSigned(-70000, 0)), std::nullopt);
    EXPECT_EQ(packElem(AbsVal::top()), std::nullopt);
    // Bottom carries no data, so any lane is sound.
    EXPECT_EQ(packElem(AbsVal{}), lang::Scalar::u8);
}

// ---------------------------------------------------------------------
// Fixpoint facts on compiled graphs.

TEST(Absint, ProvesConstAcrossTwoBlockBoundaries)
{
    // `mode` is computed in the producing block, crosses into the
    // predicate cone (boundary one) and again into each consuming arm
    // (boundary two); divisions keep ifToSelect from flattening the
    // diamonds, so the constants genuinely traverse filter/merge
    // structure in the graph.
    const std::string src = R"(
DRAM<int> out;
void main(int n) {
  foreach (n) { int t =>
    int mode = 5;
    int sel = mode & 1;
    int acc = t * 3 + 1;
    if (sel) { acc = acc + mode / 2; }
    else { acc = acc * 7; acc = acc / 3; };
    int md2 = mode * 3 + sel;
    if (md2 > 9) { acc = acc ^ md2; }
    else { acc = acc * 5; acc = acc / 9; };
    out[t] = acc;
  };
}
)";
    CompileOptions raw;
    raw.graphOpt.enable = false;
    auto prog = CompiledArtifact::build(src, raw);
    AbsintReport r = analyzeValues(prog->dfg());
    ASSERT_EQ(r.links.size(), prog->dfg().links.size());
    EXPECT_GT(r.iterations, 0);

    // The solver must prove the derived flags constant somewhere in the
    // graph: mode=5, sel=1, md2=16 all appear as proven link constants.
    auto proven = [&](int32_t want) {
        for (size_t l = 0; l < r.links.size(); ++l)
            if (auto c = r.constantOf(static_cast<int>(l)); c && *c == want)
                return true;
        return false;
    };
    EXPECT_TRUE(proven(5)) << "mode not proven constant";
    EXPECT_TRUE(proven(1)) << "sel not proven constant";
    EXPECT_TRUE(proven(16)) << "md2 not proven constant";
}

TEST(Absint, CrossBlockConstPropCollapsesAndStaysBitIdentical)
{
    const std::string src = R"(
DRAM<int> out;
void main(int n) {
  foreach (n) { int t =>
    int mode = 5;
    int sel = mode & 1;
    int hi = mode > 2;
    int acc = t * 3 + 1;
    if (sel) { acc = acc + mode / 2; }
    else { acc = acc * 7; acc = acc / 3; };
    if (hi) { acc = acc ^ (acc / 4); }
    else { acc = acc * acc; acc = acc / 5; };
    int md2 = mode * 3 + sel;
    if (md2 > 9) { acc = acc + md2 / 2; }
    else { acc = acc * 13; acc = acc / 3; };
    out[t] = acc;
  };
}
)";
    auto gen = [](DramImage &dram) {
        dram.resize("out", 48 * 4);
        return std::vector<int32_t>{48};
    };

    Dfg g = fixtures::expectMatchesInterpreter(
                src, gen, "cross-block-const-prop", "cbcp-two-boundaries")
                .graph;

    CompileOptions raw;
    raw.graphOpt.enable = false;
    Dfg unopt = CompiledArtifact::build(src, raw)->dfg();
    EXPECT_LT(g.nodes.size(), unopt.nodes.size());
    // The pass itself splices every const-steered diamond: the
    // always-keep filters and the single-arm merges disappear (the
    // orphaned dead-arm cones are deadNodeElim's job, not this pass's).
    for (const auto &n : g.nodes) {
        if (n.kind == NodeKind::filter) {
            EXPECT_EQ(n.name.find("if.then"), std::string::npos)
                << "always-keep filter '" << n.name << "' not spliced";
        }
        EXPECT_NE(n.kind, NodeKind::fwdMerge)
            << "single-arm merge '" << n.name << "' not spliced";
    }

    // With the cleanup passes back on, the const-steered diamonds
    // collapse outright: well under half the unoptimized graph.
    Dfg full = fixtures::expectMatchesInterpreter(
                   src, gen, "full", "cbcp-two-boundaries-full")
                   .graph;
    EXPECT_LT(full.nodes.size() * 2, unopt.nodes.size())
        << "full pipeline left the const-steered diamonds intact";
}

TEST(Absint, WidthInferencePacksRangeNarrowDiamond)
{
    // x/y/z are i32 at the type level; only the fixpoint knows they fit
    // sub-word lanes, so the diamond's park traffic packs into a
    // "dpack" group. Divisions in the arms keep the diamond real.
    const std::string src = R"(
DRAM<int> src; DRAM<int> out;
void main(int n) {
  foreach (n) { int t =>
    int v = src[t];
    int x = v & 15;
    int y = (v / 4) & 63;
    int z = t & 7;
    if (v < 0) { x = (x + 9) / 2; y = y ^ 5; z = 7 - z; }
    else { x = x + 2; y = (y + 3) / 3; z = z ^ 1; };
    out[t] = x + y * 100 + z * 10000;
  };
}
)";
    const int n = 64;
    auto gen = [n](DramImage &dram) {
        std::vector<int32_t> data(n);
        for (int i = 0; i < n; ++i)
            data[i] = static_cast<int32_t>(i * 2654435761u);
        dram.fill("src", data);
        dram.resize("out", n * 4);
        return std::vector<int32_t>{n};
    };
    Dfg g = fixtures::expectMatchesInterpreter(src, gen, "full",
                                               "dpack-diamond")
                .graph;
    EXPECT_GE(countNamed(g, "dpack"), 1)
        << "no sub-word pack group in the optimized diamond";
}

namespace
{

/** The Figure 7 strlen case study over 192 strings. ReadIt's SRAM
 * handle rides a char-typed lane through the while diamond, and a sync
 * token orders each ReadView's SRAM fill before its reads. */
const char *const kStrlenHandleSrc = R"(
DRAM<char> input; DRAM<int> offsets; DRAM<int> lengths;
void main(int count) {
  foreach (count by 64) { int outer =>
    ReadView<64> in_view(offsets, outer);
    WriteView<64> out_view(lengths, outer);
    foreach (64) { int idx =>
      pragma(eliminate_hierarchy);
      int len = 0;
      int off = in_view[idx];
      replicate (4) {
        ReadIt<64> it(input, off);
        while (*it) {
          len++;
          it++;
        };
      };
      out_view[idx] = len;
    };
  };
}
)";

std::vector<int32_t>
strlenHandleImage(DramImage &dram)
{
    const int count = 192; // enough strings that handles pass 127
    std::vector<int8_t> text;
    std::vector<int32_t> offsets;
    uint32_t h = 1;
    for (int i = 0; i < count; ++i) {
        offsets.push_back(static_cast<int32_t>(text.size()));
        h = h * 1664525u + 1013904223u;
        int len = static_cast<int>(h >> 26);
        for (int k = 0; k < len; ++k)
            text.push_back(static_cast<int8_t>('a' + (k % 26)));
        text.push_back(0);
    }
    dram.fill("input", text);
    dram.fill("offsets", offsets);
    dram.resize("lengths", count * 4);
    return {count};
}

} // namespace

TEST(Absint, PackingDistrustsNarrowTypedHandleLanes)
{
    // The handle lane's declared type is char, but handles are raw
    // words that exceed i8 once enough buffers are allocated. The
    // value analysis proves the lane wider than its declared type
    // (sramAlloc is top), so subword-pack must refuse it — packing it
    // masks the handle and the executor throws on the dangling handle.
    fixtures::expectMatchesInterpreter(kStrlenHandleSrc, strlenHandleImage,
                                       "subword-pack",
                                       "strlen-handle-subword-only");
    fixtures::expectMatchesInterpreter(kStrlenHandleSrc, strlenHandleImage,
                                       "full", "strlen-handle-full");
}

TEST(Absint, StrlenHandleParallelStress)
{
    // The default pipeline's strlen graph on 8 parallel workers, run
    // after run: a rewrite that drops the token ordering a ReadView's
    // SRAM fill before its reads lets a reader see the zeroed buffer
    // in some interleavings (every later string then reports the first
    // string's length), so one run rarely shows it and thirty do.
    auto prog = CompiledArtifact::build(kStrlenHandleSrc);
    const auto want = fixtures::interpreted(*prog, strlenHandleImage);
    for (int i = 0; i < 30; ++i) {
        const auto run =
            fixtures::runCompiled(prog->bytecode(), prog->hir(),
                                  strlenHandleImage,
                                  dataflow::Engine::Policy::parallel, 8);
        ASSERT_TRUE(run.stats.drained) << "run " << i;
        ASSERT_EQ(run.dram, want)
            << "run " << i << ": DRAM diverged from the AST interpreter";
    }
}

TEST(Absint, SoundnessCheckReportsCorruptedObservation)
{
    // A real run passes the check; one observation pushed outside the
    // inferred value, or a run that observed no values at all, must be
    // reported by link id and name.
    const auto &fixture = fixtures::languageFixtures().front();
    const auto run = fixtures::expectMatchesInterpreter(
        fixture.source, fixture.generate, "none", fixture.label);
    const AbsintReport rep = analyzeValues(run.graph);
    int bounded = -1, constant = -1;
    for (size_t l = 0; l < run.graph.links.size(); ++l) {
        if (run.stats.linkValues[l].dataPushed == 0)
            continue;
        const int id = static_cast<int>(l);
        if (bounded < 0 && rep.links[l].smax < INT32_MAX)
            bounded = id;
        if (constant < 0 && rep.constantOf(id))
            constant = id;
    }
    ASSERT_GE(bounded, 0) << "no observed link with a signed upper bound";
    ASSERT_GE(constant, 0) << "no observed link proven constant";

    auto expectReported = [&](const ExecStats &stats, size_t l) {
        const std::string msg =
            fixtures::checkValueSoundness(run.graph, stats, "checked");
        EXPECT_NE(msg.find("link " + std::to_string(l) + " (" +
                           run.graph.links[l].name + ")"),
                  std::string::npos)
            << msg;
    };
    auto expectCorruptionReported = [&](int l, const auto &corrupt) {
        ExecStats stats = run.stats;
        corrupt(stats.linkValues[static_cast<size_t>(l)]);
        expectReported(stats, static_cast<size_t>(l));
    };
    expectCorruptionReported(bounded, [&](dataflow::Channel::ValueWatch &w) {
        w.smax = rep.links[static_cast<size_t>(bounded)].smax + 1;
    });
    expectCorruptionReported(constant, [](dataflow::Channel::ValueWatch &w) {
        w.allEqual = false;
    });

    // The same graph run without the value watch records the same
    // counts but no summary (and allocates none): the check must name
    // the first link that carried data instead of passing vacuously.
    CompileOptions raw;
    raw.graphOpt.enable = false;
    const auto prog = CompiledArtifact::build(fixture.source, raw);
    lang::DramImage dram(prog->hir());
    const auto args = fixture.generate(dram);
    const ExecStats unwatched =
        ExecutionContext(BytecodeProgram::compile(run.graph)).run(dram, args);
    EXPECT_EQ(unwatched.linkTokens, run.stats.linkTokens);
    EXPECT_EQ(unwatched.linkBarriers, run.stats.linkBarriers);
    EXPECT_TRUE(unwatched.linkValues.empty());
    size_t first_data = 0;
    while (run.stats.linkValues[first_data].dataPushed == 0)
        ++first_data;
    expectReported(unwatched, first_data);
}

// ---------------------------------------------------------------------
// Cross-block pass-through reroute.

namespace
{

/**
 * source "x" -> fanout -> {W, B.in0}; W -> B.in1; B's one output is a
 * mov copy of in0 and feeds sink "sink.o". W outputs x + x, after an
 * SRAM write when @p memoryOrdered (so B.in1 carries memory ordering).
 */
Dfg
passThroughGraph(bool memoryOrdered)
{
    Dfg g;
    auto &src = g.newNode(NodeKind::source, "x");
    int x = g.newLink("x");
    g.connectOut(src.id, x);
    auto &fan = g.newNode(NodeKind::fanout, "fan");
    g.connectIn(fan.id, x);
    int x0 = g.newLink("x0"), x1 = g.newLink("x1");
    g.connectOut(fan.id, x0);
    g.connectOut(fan.id, x1);

    auto &w = g.newNode(NodeKind::block, "W");
    g.connectIn(w.id, x0);
    w.inputRegs = {0};
    w.nRegs = 2;
    if (memoryOrdered) {
        BlockOp write;
        write.kind = OpKind::sramWrite;
        write.a = write.b = write.c = 0;
        w.ops.push_back(write);
    }
    BlockOp add;
    add.kind = OpKind::add;
    add.dst = 1;
    add.a = add.b = 0;
    w.ops.push_back(add);
    w.outputRegs = {1};
    int wl = g.newLink("w");
    g.connectOut(w.id, wl);

    auto &b = g.newNode(NodeKind::block, "B");
    g.connectIn(b.id, x1);
    g.connectIn(b.id, wl);
    b.inputRegs = {0, 1};
    b.nRegs = 3;
    BlockOp mov;
    mov.kind = OpKind::mov;
    mov.dst = 2;
    mov.a = 0;
    b.ops.push_back(mov);
    b.outputRegs = {2};
    int o = g.newLink("o");
    g.connectOut(b.id, o);
    auto &sk = g.newNode(NodeKind::sink, "sink.o");
    g.connectIn(sk.id, o);
    g.verify();
    return g;
}

/** Kind of the node feeding "sink.o" after cross-block-const-prop. */
std::string
sinkFeederAfterCrossBlockConstProp(Dfg g)
{
    runPasses(g, fixtures::singlePassPipeline("cross-block-const-prop"),
              GraphPassOptions{});
    for (const auto &n : g.nodes)
        if (n.name == "sink.o")
            return toString(g.nodes[g.links[n.ins[0]].src].kind);
    ADD_FAILURE() << "sink.o vanished";
    return {};
}

} // namespace

TEST(Absint, PassThroughRerouteKeepsMemoryOrdering)
{
    // B's consumer waits for B's every input, including the token W's
    // SRAM write produces; served from the fanout it would not.
    EXPECT_EQ(sinkFeederAfterCrossBlockConstProp(passThroughGraph(true)),
              toString(NodeKind::block));
}

TEST(Absint, PassThroughRerouteFiresOnMemoryFreeInputs)
{
    EXPECT_EQ(sinkFeederAfterCrossBlockConstProp(passThroughGraph(false)),
              toString(NodeKind::fanout));
}

// ---------------------------------------------------------------------
// Value lints through analyzeGraph().

TEST(Absint, LintsGuaranteedOverflowAndDeadArm)
{
    const std::string src = R"(
DRAM<int> out;
void main(int n) {
  foreach (n) { int t =>
    int big = 2000000000;
    int sum = big + big;
    int flag = 0;
    int r = t / 3;
    if (flag) { r = r * sum; }
    else { r = r + 1; };
    out[t] = r;
  };
}
)";
    CompileOptions raw;
    raw.graphOpt.enable = false;
    auto prog = CompiledArtifact::build(src, raw);
    AnalyzeReport rep = analyzeGraph(prog->dfg());

    auto count = [&](const std::string &code) {
        int k = 0;
        for (const auto &d : rep.values)
            k += d.code == code;
        return k;
    };
    EXPECT_GE(count("guaranteed-overflow"), 1)
        << rep.summary() << ": 2000000000 + 2000000000 not flagged";
    EXPECT_GE(count("dead-filter-arm"), 1)
        << rep.summary() << ": constant-false if not flagged";
    for (const auto &d : rep.values)
        EXPECT_EQ(d.analysis, "absint");
    // Lints are advisory: they must never reject the program.
    EXPECT_FALSE(rep.hasErrors());
}
