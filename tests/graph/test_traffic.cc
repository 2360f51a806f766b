/**
 * @file
 * Traffic goldens: what the executor does, not only what it computes.
 *
 * For every app (at scales 4 and 16) and every language fixture, the
 * optimized artifact and the unoptimized one (label suffix "/raw",
 * whose lowered graph keeps every primitive the optimizer fuses or
 * folds away) each run once under the worklist and once under the
 * parallel policy on 4 workers. The worklist line records the
 * scheduler's quanta, wakeups, steps and idle steps, the park-slot
 * high-water mark, an FNV-1a-64 digest of every link's token and
 * barrier counts and value watch (first, allEqual and the extremes),
 * and a digest of the DRAM the run left. The parallel line records the
 * link-count and DRAM digests, which no schedule may change. An
 * executor change that keeps results but moves a firing, a wakeup or
 * a token fails here (traffic_goldens.txt); on a mismatch the test
 * prints a `golden-line:` to re-record from.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/apps.hh"

#include "goldens.hh"
#include "oracle.hh"

using namespace revet;

namespace
{

using fixtures::fnv1a;
using fixtures::hex64;
using Policy = dataflow::Engine::Policy;

std::string
dramDigest(const fixtures::DramBytes &dram)
{
    std::string bytes;
    for (const auto &region : dram) {
        bytes.append(region.begin(), region.end());
        bytes.push_back('|');
    }
    return hex64(fnv1a(bytes));
}

std::string
linkCountDigest(const graph::ExecStats &stats)
{
    std::ostringstream o;
    for (size_t l = 0; l < stats.linkTokens.size(); ++l)
        o << stats.linkTokens[l] << " " << stats.linkBarriers[l] << "\n";
    return hex64(fnv1a(o.str()));
}

std::string
linkWatchDigest(const graph::ExecStats &stats)
{
    std::ostringstream o;
    for (size_t l = 0; l < stats.linkTokens.size(); ++l) {
        o << stats.linkTokens[l] << " " << stats.linkBarriers[l];
        if (l < stats.linkValues.size()) {
            const auto &w = stats.linkValues[l];
            o << " " << w.dataPushed << " " << w.barriersPushed << " "
              << w.first << " " << w.allEqual << " " << w.smin << " "
              << w.smax << " " << w.umin << " " << w.umax;
        }
        o << "\n";
    }
    return hex64(fnv1a(o.str()));
}

/** The golden fields of one source's traffic on images @p generate
 * fills, built with @p options. */
std::string
trafficLine(const std::string &source, const fixtures::Generate &generate,
            const CompileOptions &options)
{
    auto art = CompiledArtifact::build(source, options);
    const auto wl = fixtures::runCompiled(art->bytecode(), art->hir(),
                                          generate, Policy::worklist);
    const auto pl = fixtures::runCompiled(art->bytecode(), art->hir(),
                                          generate, Policy::parallel,
                                          fixtures::kOracleWorkers);
    const graph::ExecStats &s = wl.stats;
    std::ostringstream o;
    o << "wl " << s.schedQuanta << " " << s.schedWakeups << " "
      << s.schedSteps << " " << s.schedIdleSteps << " "
      << s.sramParkedPeak << " links " << linkWatchDigest(s) << " dram "
      << dramDigest(wl.dram) << " par links " << linkCountDigest(pl.stats)
      << " dram " << dramDigest(pl.dram);
    return o.str();
}

/** (golden label, fields) for source label @p label: an optimized
 * and a "/raw" line per scale for an app, and for a language
 * fixture. */
std::vector<std::pair<std::string, std::string>>
trafficLines(const std::string &label)
{
    CompileOptions raw;
    raw.graphOpt.enable = false;
    std::vector<std::pair<std::string, std::string>> out;
    auto record = [&](const std::string &at, const std::string &source,
                      const fixtures::Generate &generate) {
        out.emplace_back(at, trafficLine(source, generate, {}));
        out.emplace_back(at + "/raw", trafficLine(source, generate, raw));
    };
    for (const auto &app : apps::allApps()) {
        if (app.name != label)
            continue;
        for (int scale : {4, 16}) {
            record(label + "@" + std::to_string(scale), app.source,
                   [&](lang::DramImage &dram) {
                       return app.generate(dram, scale);
                   });
        }
        return out;
    }
    for (const auto &f : fixtures::languageFixtures()) {
        if (label == f.label)
            record(label, f.source, f.generate);
    }
    return out;
}

} // namespace

class TrafficGolden : public ::testing::TestWithParam<std::string>
{};

TEST_P(TrafficGolden, RunTrafficMatchesRecordedDigests)
{
    static const auto goldens =
        fixtures::readGoldens(REVET_TRAFFIC_GOLDENS);
    ASSERT_FALSE(goldens.empty())
        << "no digests in " << REVET_TRAFFIC_GOLDENS;
    const auto lines = trafficLines(GetParam());
    ASSERT_FALSE(lines.empty()) << "unknown source " << GetParam();
    for (const auto &[label, got] : lines) {
        auto it = goldens.find(label);
        if (it != goldens.end() && it->second == got)
            continue;
        ADD_FAILURE() << "traffic of " << label << " is " << got
                      << ", recorded "
                      << (it == goldens.end() ? "<none>" : it->second)
                      << "\ngolden-line: " << label << " " << got;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AppsAndFixtures, TrafficGolden,
    ::testing::ValuesIn(fixtures::goldenSources()),
    [](const auto &info) { return fixtures::goldenTestName(info.param); });
