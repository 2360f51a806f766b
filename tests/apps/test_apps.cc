/**
 * @file
 * Application-level integration tests: every Table III workload compiles
 * through the full pipeline and produces verified output on BOTH the
 * reference interpreter and the compiled dataflow machine; App::verify
 * rejects damaged images; each native reference kernel agrees with the
 * answers its generator knows independently; and the CPU baseline
 * times a kernel whose output verifies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>

#include "apps/apps.hh"
#include "baselines/baselines.hh"
#include "core/revet.hh"
#include "lang/parse.hh"

using namespace revet;

namespace
{

/** @p app's inputs at @p scale, with reference() run over every
 * thread: the image a correct run leaves. */
lang::DramImage
referenceImage(const apps::App &app, int scale,
               std::vector<int32_t> *args_out = nullptr)
{
    lang::DramImage dram(lang::parseAndAnalyze(app.source));
    const std::vector<int32_t> args = app.generate(dram, scale);
    app.reference(dram, args, 0, static_cast<uint64_t>(args[0]));
    if (args_out)
        *args_out = args;
    return dram;
}

/** @p app's reference image at scale 16, checked to pass verify before
 * a test damages it. */
lang::DramImage
undamagedImage(const apps::App &app)
{
    lang::DramImage dram = referenceImage(app, 16);
    EXPECT_EQ(app.verify(dram, 16), "");
    return dram;
}

/** One input and the output region of each app's main(). */
struct Regions
{
    const char *input;
    const char *output;
};

const std::map<std::string, Regions> kRegions = {
    {"isipv4", {"text", "valid"}},
    {"ip2int", {"text", "packed"}},
    {"murmur3", {"blobs", "hashes"}},
    {"hash-table", {"keys", "found"}},
    {"search", {"text", "counts"}},
    {"huff-dec", {"enc", "dec"}},
    {"huff-enc", {"symbols", "enc"}},
    {"kD-tree", {"queries", "results"}}};

} // namespace

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

TEST_P(AppCorrectness, VerifyRejectsOneCorruptedOutputElement)
{
    const apps::App &app = apps::findApp(GetParam());
    const std::string out = kRegions.at(app.name).output;
    lang::DramImage dram = undamagedImage(app);
    std::vector<uint8_t> &bytes = dram.bytes(out);
    bytes[bytes.size() / 8 * 4] ^= 1; // the middle 4-byte element
    const std::string err = app.verify(dram, 16);
    EXPECT_NE(err.find(out), std::string::npos) << err;
}

TEST(AppVerify, ReportsTheElementInTheRegionsWidth)
{
    // isipv4's output is DRAM<int>: damage the high byte of element 11
    // and the message names element 11 and both of its int values.
    const apps::App &app = apps::findApp("isipv4");
    lang::DramImage dram = undamagedImage(app);
    std::vector<uint8_t> &bytes = dram.bytes("valid");
    ASSERT_GT(bytes.size(), 12u * 4);
    const int32_t want = dram.read<int32_t>("valid")[11];
    bytes[11 * 4 + 3] ^= 0x80;
    const int32_t got = dram.read<int32_t>("valid")[11];
    ASSERT_LT(got, 0);
    EXPECT_EQ(app.verify(dram, 16),
              "valid element 11: expected " + std::to_string(want) +
                  ", got " + std::to_string(got));
}

TEST_P(AppCorrectness, VerifyRejectsOneChangedInputByte)
{
    const apps::App &app = apps::findApp(GetParam());
    const std::string in = kRegions.at(app.name).input;
    lang::DramImage dram = undamagedImage(app);
    std::vector<uint8_t> &bytes = dram.bytes(in);
    bytes[bytes.size() / 2] ^= 0x40;
    const std::string err = app.verify(dram, 16);
    EXPECT_NE(err.find(in), std::string::npos) << err;
}

TEST_P(AppCorrectness, VerifyRejectsATruncatedOutputRegion)
{
    const apps::App &app = apps::findApp(GetParam());
    const std::string out = kRegions.at(app.name).output;
    lang::DramImage dram = undamagedImage(app);
    dram.bytes(out).resize(dram.bytes(out).size() - 4);
    const std::string err = app.verify(dram, 16);
    EXPECT_NE(err.find(out), std::string::npos) << err;
}

/** Table V's CPU column times App::reference and verifies its output
 * (cpuThroughputGBs throws if that output fails verify). */
TEST_P(AppCorrectness, CpuBaselineTimesVerifiedReference)
{
    const apps::App &app = apps::findApp(GetParam());
    double gbs = 0;
    ASSERT_NO_THROW(gbs = baselines::cpuThroughputGBs(app, 64, 2));
    EXPECT_TRUE(std::isfinite(gbs)) << gbs;
    EXPECT_GT(gbs, 0.0);
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

// ---- independent oracles: answers the generators know ---------------------

/** Every query box lies on the dense 256x256 grid, so its count is the
 * box's area clipped to the grid. */
TEST(AppReference, KdTreeWalkCountsTheClippedArea)
{
    std::vector<int32_t> args;
    lang::DramImage dram =
        referenceImage(apps::findApp("kD-tree"), 64, &args);
    const auto queries = dram.read<int32_t>("queries");
    const auto results = dram.read<int32_t>("results");
    ASSERT_EQ(results.size(), static_cast<size_t>(args[0]));
    for (size_t q = 0; q < results.size(); ++q) {
        const int32_t *b = &queries[q * 4];
        const int w = std::min(b[2], 255) - std::max(b[0], 0) + 1;
        const int h = std::min(b[3], 255) - std::max(b[1], 0) + 1;
        EXPECT_EQ(results[q], std::max(w, 0) * std::max(h, 0))
            << "query " << q;
    }
}

/** huff-dec's reference decodes huff-enc's reference output back to the
 * generated symbols. */
TEST(AppReference, HuffmanRoundTrip)
{
    for (int scale : {1, 4, 64}) {
        SCOPED_TRACE("scale " + std::to_string(scale));
        lang::DramImage enc =
            referenceImage(apps::findApp("huff-enc"), scale);
        const apps::App &dec_app = apps::findApp("huff-dec");
        lang::DramImage dec(lang::parseAndAnalyze(dec_app.source));
        const std::vector<int32_t> args = dec_app.generate(dec, scale);
        dec.bytes("enc") = enc.bytes("enc");
        dec_app.reference(dec, args, 0, static_cast<uint64_t>(args[0]));
        EXPECT_EQ(dec.read<int32_t>("dec"), enc.read<int32_t>("symbols"));
    }
}

/** isipv4's generator writes dotted quads of octets or "INVALID". */
TEST(AppReference, Isipv4AcceptsExactlyTheDottedQuads)
{
    lang::DramImage dram = referenceImage(apps::findApp("isipv4"), 64);
    const auto text = dram.read<char>("text");
    const auto valid = dram.read<int32_t>("valid");
    int accepted = 0;
    for (size_t t = 0; t < valid.size(); ++t) {
        const std::string rec(&text[t * 16]);
        EXPECT_EQ(valid[t], rec == "INVALID" ? 0 : 1) << rec;
        accepted += valid[t];
    }
    EXPECT_GT(accepted, 0);
    EXPECT_LT(accepted, 64);
}

/** ip2int packs the four octets that sscanf reads from each record. */
TEST(AppReference, Ip2intPacksTheScannedOctets)
{
    lang::DramImage dram = referenceImage(apps::findApp("ip2int"), 64);
    const auto text = dram.read<char>("text");
    const auto packed = dram.read<uint32_t>("packed");
    for (size_t t = 0; t < packed.size(); ++t) {
        unsigned a = 0, b = 0, c = 0, d = 0;
        ASSERT_EQ(std::sscanf(&text[t * 16], "%u.%u.%u.%u", &a, &b, &c,
                              &d),
                  4);
        EXPECT_EQ(packed[t], (a << 24) | (b << 16) | (c << 8) | d);
    }
}

/** hash-table finds what a std::unordered_map of the table's occupied
 * slots holds, and -1 for absent keys. */
TEST(AppReference, HashTableMatchesAMapOfTheTable)
{
    lang::DramImage dram = referenceImage(apps::findApp("hash-table"), 64);
    const auto table = dram.read<int32_t>("table");
    std::unordered_map<int32_t, int32_t> map;
    for (size_t s = 0; s < table.size(); s += 2) {
        if (table[s] != 0)
            map[table[s]] = table[s + 1];
    }
    const auto keys = dram.read<int32_t>("keys");
    const auto found = dram.read<int32_t>("found");
    ASSERT_EQ(found.size(), keys.size());
    int hits = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
        const auto it = map.find(keys[i]);
        EXPECT_EQ(found[i], it == map.end() ? -1 : it->second) << i;
        hits += it != map.end();
    }
    EXPECT_GT(hits, 0);
}

/** The search text is lowercase letters plus planted copies of the
 * pattern, so each chunk's count is the pattern's occurrences in it. */
TEST(AppReference, SearchCountsThePlantedPatterns)
{
    lang::DramImage dram = referenceImage(apps::findApp("search"), 64);
    const auto text = dram.read<char>("text");
    const auto counts = dram.read<int32_t>("counts");
    int total = 0;
    for (size_t t = 0; t < counts.size(); ++t) {
        const std::string chunk(&text[t * 256], 256);
        int n = 0;
        for (size_t at = chunk.find("Moby Dick"); at != std::string::npos;
             at = chunk.find("Moby Dick", at + 1))
            ++n;
        EXPECT_EQ(counts[t], n) << "chunk " << t;
        total += n;
    }
    EXPECT_GT(total, 0);
}
