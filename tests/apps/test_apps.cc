/**
 * @file
 * Application-level integration tests: every Table III workload compiles
 * through the full pipeline and produces golden-verified output on BOTH
 * the reference interpreter and the compiled dataflow machine.
 */

#include <gtest/gtest.h>

#include "apps/apps.hh"
#include "core/revet.hh"

using namespace revet;

class AppCorrectness : public ::testing::TestWithParam<std::string>
{};

TEST_P(AppCorrectness, InterpreterMatchesGolden)
{
    const apps::App &app = apps::findApp(GetParam());
    auto prog = CompiledArtifact::build(app.source);
    const int scale = 4;
    lang::DramImage dram(prog->hir());
    auto args = app.generate(dram, scale);
    prog->interpret(dram, args);
    EXPECT_EQ(app.verify(dram, scale), "");
}

TEST_P(AppCorrectness, CompiledDataflowMatchesGolden)
{
    const apps::App &app = apps::findApp(GetParam());
    auto prog = CompiledArtifact::build(app.source);
    const int scale = 4;
    lang::DramImage dram(prog->hir());
    auto args = app.generate(dram, scale);
    auto stats = prog->execute(dram, args);
    EXPECT_TRUE(stats.drained);
    EXPECT_EQ(app.verify(dram, scale), "");
}

TEST_P(AppCorrectness, LargerScaleDataflow)
{
    const apps::App &app = apps::findApp(GetParam());
    auto prog = CompiledArtifact::build(app.source);
    const int scale = 12;
    lang::DramImage dram(prog->hir());
    auto args = app.generate(dram, scale);
    prog->execute(dram, args);
    EXPECT_EQ(app.verify(dram, scale), "");
}

INSTANTIATE_TEST_SUITE_P(
    AllApps, AppCorrectness,
    ::testing::Values("isipv4", "ip2int", "murmur3", "hash-table",
                      "search", "huff-dec", "huff-enc", "kD-tree"),
    [](const auto &info) {
        std::string name = info.param;
        for (auto &c : name) {
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(AppInventory, TableThreeShape)
{
    const auto &apps = apps::allApps();
    ASSERT_EQ(apps.size(), 8u);
    for (const auto &app : apps) {
        EXPECT_GT(app.sourceLines(), 10) << app.name;
        EXPECT_GT(app.paper.revetGBs, 0) << app.name;
        EXPECT_GT(app.accountedBytes(10), 0u) << app.name;
    }
}
