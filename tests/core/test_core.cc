/**
 * @file
 * Public-API and whole-pipeline ablation tests: every pass-pipeline
 * configuration must preserve program semantics end to end (the
 * Figure 12 ablation study depends on this), and the CompiledArtifact
 * API must behave as documented.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "apps/apps.hh"
#include "apps/harness.hh"
#include "core/revet.hh"
#include "lang/lex.hh"

#include "../graph/oracle.hh"

using namespace revet;

TEST(CoreApi, CompileRejectsBadPrograms)
{
    EXPECT_THROW(CompiledArtifact::build("void main(int n) { x = 1; }"),
                 lang::CompileError);
    EXPECT_THROW(CompiledArtifact::build("int f() { return 1; }"),
                 lang::CompileError); // no main
}

TEST(CoreApi, InterpretAndExecuteAgree)
{
    auto prog = CompiledArtifact::build(R"(
        DRAM<int> out;
        void main(int n) {
          int acc = foreach (n) { int i => return i * 3; };
          out[0] = acc;
        })");
    const fixtures::Generate gen = [](lang::DramImage &dram) {
        dram.resize("out", 1);
        return std::vector<int32_t>{10};
    };
    lang::DramImage b(prog->hir());
    prog->execute(b, gen(b));
    EXPECT_EQ(fixtures::dramBytes(b), fixtures::interpreted(*prog, gen));
    EXPECT_EQ(b.read<int32_t>("out")[0], 135);
}

TEST(CoreApi, GraphIsInspectable)
{
    auto prog = CompiledArtifact::build(
        "DRAM<int> out; void main(int n) { out[0] = n; }");
    EXPECT_GT(prog->dfg().nodes.size(), 0u);
    EXPECT_NE(prog->dfg().toDot().find("digraph"), std::string::npos);
}

struct AblationCase
{
    const char *name;
    CompileOptions opts;
};

class PipelineAblation
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{};

TEST_P(PipelineAblation, EveryConfigurationPreservesAppSemantics)
{
    const auto &app = apps::findApp(std::get<0>(GetParam()));
    int config = std::get<1>(GetParam());
    CompileOptions opts;
    switch (config) {
      case 0:
        break; // default
      case 1:
        opts.passes.ifToSelect = false;
        break;
      case 2:
        opts.passes.eliminateHierarchy = false;
        break;
      case 3:
        opts.passes.ifToSelect = false;
        opts.passes.eliminateHierarchy = false;
        break;
    }
    auto prog = CompiledArtifact::build(app.source, opts);
    lang::DramImage dram(prog->hir());
    auto args = app.generate(dram, 4);
    prog->execute(dram, args);
    EXPECT_EQ(app.verify(dram, 4), "")
        << app.name << " under config " << config;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PipelineAblation,
    ::testing::Combine(::testing::Values("isipv4", "murmur3", "search",
                                         "huff-enc", "kD-tree"),
                       ::testing::Values(0, 1, 2, 3)),
    [](const auto &info) {
        std::string n = std::get<0>(info.param) + "_cfg" +
            std::to_string(std::get<1>(info.param));
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(CoreApi, GraphTogglesReachResourceModel)
{
    // The graph-level toggles are owned by CompileOptions and plumbed
    // into graph::ResourceOptions by the harness; if that plumbing
    // breaks, the Figure 12 ablation silently measures nothing. isipv4
    // has a replicate(2) region, so allocator hoisting is observable.
    const auto &app = apps::findApp("isipv4");
    CompileOptions def, nohoist;
    nohoist.graph.hoistAllocators = false;
    auto a = apps::runApp(app, 4, def);
    auto b = apps::runApp(app, 4, nohoist);
    EXPECT_LT(a.resources.replMU, b.resources.replMU)
        << "hoistAllocators=false must cost one allocator MU per "
           "replica instead of one per region";
}

TEST(CoreApi, OptReportSurfacesGraphOptimizerWin)
{
    const auto &app = apps::findApp("murmur3");
    auto prog = CompiledArtifact::build(app.source);
    const auto &rep = prog->optReport();
    EXPECT_LT(rep.nodesAfter, rep.nodesBefore);
    EXPECT_EQ(rep.nodesAfter, static_cast<int>(prog->dfg().nodes.size()));
    int total_rewrites = 0;
    for (const auto &[pass, count] : rep.rewrites)
        total_rewrites += count;
    EXPECT_GT(total_rewrites, 0);
}

TEST(CoreApi, RandomizedCollatzStress)
{
    // Property sweep: random inputs through a control-heavy kernel,
    // compiled against the AST interpreter.
    const char *src = R"(
        DRAM<int> data; DRAM<int> out;
        void main(int n) {
          foreach (n) { int i =>
            int v = data[i];
            int steps = 0;
            while (v != 1 && steps < 200) {
              if (v % 2 == 0) { v = v / 2; } else { v = v * 3 + 1; };
              steps++;
            };
            out[i] = steps;
          };
        })";
    std::mt19937 rng(99);
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<int32_t> data(40);
        for (auto &d : data)
            d = 1 + rng() % 10000;
        fixtures::expectMatchesInterpreter(
            src,
            [&](lang::DramImage &dram) {
                dram.fill("data", data);
                dram.resize("out", 40);
                return std::vector<int32_t>{40};
            },
            "full", "trial " + std::to_string(trial));
    }
}
