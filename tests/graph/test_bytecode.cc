/**
 * @file
 * The compiled bytecode program: the shape of its flat tables (one
 * instruction per node, concatenated op/reg pools, kind-qualified
 * diagnostic names, argument slots in source-node order), pinned so
 * the format documented in README.md cannot drift silently.
 *
 * Execution results are certified elsewhere: against the AST
 * interpreter and across scheduling policies by the scheduler
 * equivalence suite (tests/dataflow/test_scheduler.cc), and
 * raw-vs-optimized by the fuzz sweep (test_fuzz_optimize.cc).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/revet.hh"
#include "graph/bytecode.hh"
#include "lang/dram_image.hh"

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
    dram.resize("out", 4);
    prog->execute(dram, {9, 4});
    EXPECT_EQ(dram.read<int32_t>("out")[0], 5);

    // Missing arguments are a machine-model error, not a silent 0.
    DramImage dram2(prog->hir());
    dram2.resize("out", 4);
    EXPECT_THROW(prog->execute(dram2, {9}), std::runtime_error);
}
