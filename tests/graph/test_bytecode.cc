/**
 * @file
 * The compiled bytecode program: the shape of its flat tables (one
 * instruction per node, concatenated op/reg pools, kind-qualified
 * diagnostic names, argument slots in source-node order), pinned so
 * the format documented in README.md cannot drift silently.
 *
 * Every block body runs through one column loop, over a whole run or
 * one thread at a time; the rule that picks which is pinned here from
 * both sides: the per-app count of blocks that run whole runs,
 * programs whose blocks must stay one thread at a time (their memory
 * effects would come out differently column by column), a columnar
 * block's guard masks and register columns at run lengths around the
 * firing cap, all against the AST interpreter, and the zero-divisor
 * message of a columnar run, which must follow thread order.
 *
 * Execution results are otherwise certified elsewhere: against the AST
 * interpreter and across scheduling policies by the scheduler
 * equivalence suite (tests/dataflow/test_scheduler.cc), and
 * raw-vs-optimized by the fuzz sweep (test_fuzz_optimize.cc).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/apps.hh"
#include "core/revet.hh"
#include "graph/bytecode.hh"
#include "lang/dram_image.hh"
#include "oracle.hh"

using namespace revet;
using lang::DramImage;

TEST(BytecodeProgram, FlattensOneInstructionPerNode)
{
    auto prog = CompiledArtifact::build(R"(
        DRAM<int> out;
        void main(int n) {
          int acc = foreach (n) { int i => return i * i; };
          out[0] = acc;
        })");
    const graph::BytecodeProgram &bc = prog->bytecode();
    EXPECT_EQ(bc.insts.size(), prog->dfg().nodes.size());
    EXPECT_EQ(bc.numLinks, prog->dfg().links.size());
    EXPECT_EQ(bc.names.size(), bc.insts.size());
    EXPECT_EQ(bc.linkNames.size(), bc.numLinks);

    // Channel-operand ranges reproduce each node's link wiring, and
    // the concatenated op pool holds every block op exactly once.
    size_t total_chans = 0;
    size_t total_ops = 0;
    for (size_t i = 0; i < bc.insts.size(); ++i) {
        const graph::BcInst &inst = bc.insts[i];
        const graph::Node &node = prog->dfg().nodes[i];
        ASSERT_EQ(inst.nIns, node.ins.size());
        ASSERT_EQ(inst.nOuts, node.outs.size());
        for (uint32_t k = 0; k < inst.nIns; ++k)
            EXPECT_EQ(bc.chans[inst.ins + k],
                      static_cast<uint32_t>(node.ins[k]));
        for (uint32_t k = 0; k < inst.nOuts; ++k)
            EXPECT_EQ(bc.chans[inst.outs + k],
                      static_cast<uint32_t>(node.outs[k]));
        total_chans += inst.nIns + inst.nOuts;
        total_ops += inst.nOps;
        if (node.kind == graph::NodeKind::block) {
            EXPECT_EQ(inst.nOps, node.ops.size());
        }
    }
    EXPECT_EQ(total_chans, bc.chans.size());
    EXPECT_EQ(total_ops, bc.ops.size());
}

TEST(BytecodeProgram, NamesCarryKindAndSourceNode)
{
    auto prog = CompiledArtifact::build(R"(
        DRAM<int> out;
        void main(int n) {
          int i = 0;
          while (i < n) { i++; };
          out[0] = i;
        })");
    const graph::BytecodeProgram &bc = prog->bytecode();
    bool saw_fb = false, saw_source = false;
    for (size_t i = 0; i < bc.insts.size(); ++i) {
        const std::string &name = bc.names[i];
        // "kind(node#id)": kind-qualified so Engine::stallReport()
        // names each process by its role and source node.
        EXPECT_EQ(name.rfind(toString(bc.insts[i].op) + std::string("("),
                             0),
                  0u)
            << name;
        EXPECT_NE(name.find("#" + std::to_string(i)), std::string::npos)
            << name;
        saw_fb |= bc.insts[i].op == graph::BcOp::fbMerge;
        saw_source |= bc.insts[i].op == graph::BcOp::source &&
                      name.find("__start") != std::string::npos;
    }
    EXPECT_TRUE(saw_fb);
    EXPECT_TRUE(saw_source);
}

TEST(BytecodeProgram, ArgSlotsFollowSourceNodeOrder)
{
    auto prog = CompiledArtifact::build(R"(
        DRAM<int> out;
        void main(int a, int b) { out[0] = a - b; })");
    const graph::BytecodeProgram &bc = prog->bytecode();
    EXPECT_EQ(bc.numArgs, 2u);
    std::vector<int32_t> seen;
    for (const auto &inst : bc.insts) {
        if (inst.op == graph::BcOp::source && inst.arg >= 0)
            seen.push_back(inst.arg);
    }
    EXPECT_EQ(seen, (std::vector<int32_t>{0, 1}));

    DramImage dram(prog->hir());
    dram.resize("out", 1);
    prog->execute(dram, {9, 4});
    EXPECT_EQ(dram.read<int32_t>("out")[0], 5);

    // Missing arguments are a machine-model error, not a silent 0.
    DramImage dram2(prog->hir());
    dram2.resize("out", 1);
    EXPECT_THROW(prog->execute(dram2, {9}), std::runtime_error);
}

namespace
{

using graph::BcOp;
using graph::BlockOp;
using graph::OpKind;
using Policy = dataflow::Engine::Policy;

/** Blocks of @p bc that run column by column, and all its blocks. */
std::pair<int, int>
columnarBlocks(const graph::BytecodeProgram &bc)
{
    int columnar = 0, blocks = 0;
    for (const graph::BcInst &inst : bc.insts) {
        if (inst.op == BcOp::block) {
            ++blocks;
            columnar += inst.columnar;
        }
    }
    return {columnar, blocks};
}

/** True if a block of @p bc that runs one thread at a time has an op
 * of kind @p kind. */
bool
threadMajorBlockHas(const graph::BytecodeProgram &bc, OpKind kind)
{
    for (const graph::BcInst &inst : bc.insts) {
        if (inst.op != BcOp::block || inst.columnar)
            continue;
        for (uint32_t i = 0; i < inst.nOps; ++i) {
            if (bc.ops[inst.ops + i].kind == kind)
                return true;
        }
    }
    return false;
}

/** True if a columnar block of @p bc has an op of kind @p first and a
 * later op of kind @p second. */
bool
columnarBlockHasInOrder(const graph::BytecodeProgram &bc, OpKind first,
                        OpKind second)
{
    for (const graph::BcInst &inst : bc.insts) {
        if (inst.op != BcOp::block || !inst.columnar)
            continue;
        bool seen_first = false;
        for (uint32_t i = 0; i < inst.nOps; ++i) {
            const OpKind kind = bc.ops[inst.ops + i].kind;
            if (seen_first && kind == second)
                return true;
            seen_first |= kind == first;
        }
    }
    return false;
}

graph::BytecodeProgram
rawBytecode(const std::string &source)
{
    CompileOptions raw;
    raw.graphOpt.enable = false;
    return CompiledArtifact::build(source, raw)->bytecode();
}

/** Run @p source's bytecode and the interpreter on images from
 * @p generate; a block with @p kind must run one thread at a time,
 * and both must agree under both policies, unoptimized and fully
 * optimized. */
void
expectThreadMajorMatches(const std::string &source,
                         const fixtures::Generate &generate, OpKind kind,
                         const std::string &label)
{
    EXPECT_TRUE(threadMajorBlockHas(rawBytecode(source), kind)) << label;
    fixtures::expectMatchesInterpreter(source, generate, "none", label);
    fixtures::expectMatchesInterpreter(source, generate, "full",
                                       label + "/full");
}

} // namespace

TEST(BytecodeProgram, ColumnarBlocksPerApp)
{
    // Blocks that run column by column, of all blocks, per app. The
    // rest are blocks with several SRAM accesses beside an SRAM write,
    // an sramAlloc beside other SRAM ops, or a div/rem beside memory.
    const std::map<std::string, std::pair<int, int>> want = {
        {"isipv4", {19, 20}},   {"ip2int", {15, 16}},
        {"murmur3", {9, 10}},   {"hash-table", {12, 14}},
        {"search", {35, 37}},   {"huff-dec", {22, 24}},
        {"huff-enc", {45, 48}}, {"kD-tree", {20, 22}},
    };
    ASSERT_EQ(apps::allApps().size(), want.size());
    for (const apps::App &app : apps::allApps()) {
        auto prog = CompiledArtifact::build(app.source);
        EXPECT_EQ(columnarBlocks(prog->bytecode()), want.at(app.name))
            << app.name;
    }
}

TEST(BytecodeColumns, DramReadAndWriteOfOneRegionStayThreadMajor)
{
    // Each thread reads the cell the previous thread wrote: thread
    // order carries a count up the array, column order would not.
    expectThreadMajorMatches(
        R"(
        DRAM<int> a;
        void main(int n) {
          foreach (n) { int i =>
            a[i + 1] = a[i] + 1;
          };
        })",
        [](DramImage &d) {
            d.resize("a", 41);
            return std::vector<int32_t>{40};
        },
        OpKind::dramWrite, "dram-chain");
}

TEST(BytecodeColumns, SramHistogramStaysThreadMajor)
{
    // A read-modify-write through separate SRAM read and write ops:
    // column order would read every bucket before any thread wrote it.
    expectThreadMajorMatches(
        R"(
        DRAM<int> keys; DRAM<int> out;
        void main(int n) {
          SRAM<int, 16> hist;
          foreach (n) { int i =>
            int k = keys[i];
            hist[k] = hist[k] + 1;
          };
          foreach (16) { int k => out[k] = hist[k]; };
        })",
        [](DramImage &d) {
            std::vector<int32_t> keys(100);
            for (size_t i = 0; i < keys.size(); ++i)
                keys[i] = static_cast<int32_t>(i * i % 7);
            d.fill("keys", keys);
            d.resize("out", 16);
            return std::vector<int32_t>{100};
        },
        OpKind::sramWrite, "sram-histogram");
}

TEST(BytecodeColumns, DivNextToGuardedWriteStaysThreadMajor)
{
    // Thread 7 divides by zero. Thread order has written the guarded
    // out[] of threads 0-6 when it throws; column order would have
    // written every even thread's.
    const std::string src = R"(
        DRAM<int> d; DRAM<int> out; DRAM<int> q;
        void main(int n) {
          foreach (n) { int i =>
            if (i % 2 == 0) { out[i] = i + 1; };
            q[i] = 1000 / d[i];
          };
        })";
    auto generate = [](DramImage &dram) {
        std::vector<int32_t> d(12);
        for (size_t i = 0; i < d.size(); ++i)
            d[i] = i == 7 ? 0 : static_cast<int32_t>(i + 1);
        dram.fill("d", d);
        dram.resize("out", 12);
        dram.resize("q", 12);
        return std::vector<int32_t>{12};
    };
    CompileOptions raw;
    raw.graphOpt.enable = false;
    auto prog = CompiledArtifact::build(src, raw);
    EXPECT_TRUE(threadMajorBlockHas(prog->bytecode(), OpKind::divs));

    DramImage want_img(prog->hir());
    const auto args = generate(want_img);
    EXPECT_THROW(prog->interpret(want_img, args), std::runtime_error);
    const fixtures::DramBytes want = fixtures::dramBytes(want_img);
    ASSERT_NE(want_img.read<int32_t>("out")[6], 0);

    for (Policy policy : {Policy::worklist, Policy::parallel}) {
        DramImage dram(prog->hir());
        generate(dram);
        graph::ExecutionContext ctx(prog->bytecode());
        EXPECT_THROW(ctx.run(dram, args, policy, fixtures::kOracleWorkers),
                     std::runtime_error);
        EXPECT_EQ(fixtures::dramBytes(dram), want)
            << (policy == Policy::worklist ? "worklist" : "parallel");
    }
}

TEST(BytecodeColumns, ZeroDivisorMessageFollowsThreadOrder)
{
    // One memory-free columnar block: thread 1 meets % by zero in its
    // later op, thread 3 meets / by zero in its earlier one. Column
    // order meets thread 3's first; the run must fail as thread order,
    // the interpreter's, does: with thread 1's remainder.
    const std::string src = R"(
        DRAM<int> out;
        void main(int n) {
          int acc = foreach (n) { int i =>
            int q = 100 / (i - 3);
            return q + 100 % (i - 1);
          };
          out[0] = acc;
        })";
    for (const char *pipeline : {"none", "full"}) {
        CompileOptions opts;
        opts.graphOpt.enable = std::string(pipeline) == "full";
        auto prog = CompiledArtifact::build(src, opts);
        EXPECT_TRUE(columnarBlockHasInOrder(prog->bytecode(), OpKind::divs,
                                            OpKind::rems))
            << pipeline;

        DramImage want(prog->hir());
        want.resize("out", 1);
        try {
            prog->interpret(want, {8});
            ADD_FAILURE() << pipeline << ": the interpreter did not throw";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "remainder by zero") << pipeline;
        }

        for (Policy policy : {Policy::worklist, Policy::parallel}) {
            const char *which =
                policy == Policy::worklist ? "worklist" : "parallel";
            DramImage dram(prog->hir());
            dram.resize("out", 1);
            graph::ExecutionContext ctx(prog->bytecode());
            try {
                ctx.run(dram, {8}, policy, fixtures::kOracleWorkers);
                ADD_FAILURE() << pipeline << " " << which << ": no throw";
            } catch (const std::runtime_error &e) {
                // The engine prefixes the failing process's name.
                const std::string what = e.what();
                EXPECT_NE(what.find("] remainder by zero in dataflow"),
                          std::string::npos)
                    << pipeline << " " << which << ": " << what;
            }
        }
    }
}

class ColumnRunEdges : public ::testing::TestWithParam<int>
{};

TEST_P(ColumnRunEdges, GuardMasksMatchInterpreter)
{
    // One columnar block: a = input, out[] a guarded write in the even
    // threads, both[] an unguarded write of the same value v.
    const std::string src = R"(
        DRAM<int> a; DRAM<int> out; DRAM<int> both;
        void main(int n) {
          foreach (n) { int i =>
            int v = a[i] + 5;
            if ((i & 1) == 0) { out[i] = v; };
            both[i] = v;
          };
        })";
    const int n = GetParam();
    auto generate = [n](DramImage &dram) {
        std::vector<int32_t> a(static_cast<size_t>(n));
        for (int i = 0; i < n; ++i)
            a[static_cast<size_t>(i)] = i * 37 - 1000;
        dram.fill("a", a);
        dram.resize("out", static_cast<size_t>(n));
        dram.resize("both", static_cast<size_t>(n));
        return std::vector<int32_t>{n};
    };
    CompileOptions raw;
    raw.graphOpt.enable = false;
    auto prog = CompiledArtifact::build(src, raw);

    // Rewrite both[]'s value and index so they pass through the cases
    // the columns must get right, and still equal v and i in every
    // thread:
    //   m = mov v      [g]   guarded: fires in alternate threads
    //   x = sel g, u, v      u is read but never written: 0
    //   s = add m, x         reads m's column in every thread
    //   i = add i, u   [g]   i is an input lane: masked threads keep it
    //   v = mov s      [g]   masked threads keep v's earlier value
    graph::Dfg g = graph::lower(prog->hir());
    bool rewritten = false;
    for (graph::Node &node : g.nodes) {
        auto guarded = std::find_if(
            node.ops.begin(), node.ops.end(), [](const BlockOp &op) {
                return op.kind == OpKind::dramWrite && op.guard >= 0;
            });
        if (guarded == node.ops.end())
            continue;
        const int guard = guarded->guard;
        const int v = guarded->b;
        auto both = std::find_if(
            guarded + 1, node.ops.end(), [](const BlockOp &op) {
                return op.kind == OpKind::dramWrite && op.guard < 0;
            });
        ASSERT_NE(both, node.ops.end());
        ASSERT_EQ(both->b, v);
        const int i = both->a;
        ASSERT_NE(std::find(node.inputRegs.begin(), node.inputRegs.end(), i),
                  node.inputRegs.end());
        const int m = node.nRegs, u = m + 1, x = m + 2, s = m + 3;
        node.nRegs += 4;
        auto op = [](OpKind kind, int dst, int a, int b, int c, int grd) {
            BlockOp o;
            o.kind = kind;
            o.dst = dst;
            o.a = a;
            o.b = b;
            o.c = c;
            o.guard = grd;
            return o;
        };
        node.ops.insert(both, {op(OpKind::mov, m, v, -1, -1, guard),
                               op(OpKind::sel, x, guard, u, v, -1),
                               op(OpKind::add, s, m, x, -1, -1),
                               op(OpKind::add, i, i, u, -1, guard),
                               op(OpKind::mov, v, s, -1, -1, guard)});
        rewritten = true;
        break;
    }
    ASSERT_TRUE(rewritten);
    ASSERT_NO_THROW(g.verify());
    const auto bc = graph::BytecodeProgram::compile(g);
    EXPECT_TRUE(std::any_of(bc.insts.begin(), bc.insts.end(),
                            [](const graph::BcInst &inst) {
                                return inst.nOps > 4 && inst.columnar;
                            }));

    const fixtures::DramBytes want = fixtures::interpreted(*prog, generate);
    for (Policy policy : {Policy::worklist, Policy::parallel}) {
        const fixtures::CompiledRun run = fixtures::runCompiled(
            bc, prog->hir(), generate, policy, fixtures::kOracleWorkers);
        EXPECT_EQ(run.dram, want)
            << "n=" << n
            << (policy == Policy::worklist ? " worklist" : " parallel");
    }
}

// 256 threads is the most one firing moves (primitives.cc kMaxRun).
INSTANTIATE_TEST_SUITE_P(RunLengths, ColumnRunEdges,
                         ::testing::Values(1, 2, 255, 256, 257));
