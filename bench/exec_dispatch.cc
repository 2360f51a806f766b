/**
 * @file
 * Dispatch cost of the executor on the ALU-dense Table III apps
 * (ip2int, murmur3), whose graphs are dominated by block firings:
 * wall time per scheduler quantum and per token.
 *
 * Each fixture is compiled once and run under the worklist policy,
 * best-of-N wall time. Two normalizations are reported. ns per quantum
 * (one stepOnce() that made progress) prices a process firing; fanouts
 * run no process (Engine::multicast), so their traffic costs no
 * quanta. ns per token (summed over every link's traffic,
 * ExecStats::linkTokens, which a graph's shape fixes) prices the work
 * itself, and is the figure to compare across executor changes that
 * alter what a quantum is.
 *
 * Acceptance gate (exit non-zero on violation, like engine_sched):
 * every run drains and its DRAM image is byte-identical to the AST
 * interpreter's. There is no timing gate: the number is a report, to
 * be compared against earlier runs on the same host.
 *
 * Emits one JSON row per fixture for the CI artifact.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "core/revet.hh"
#include "lang/dram_image.hh"

using revet::CompiledArtifact;
using revet::dataflow::Engine;
using revet::lang::DramImage;

namespace
{

constexpr int kScale = 192;
constexpr int kRepeats = 5;

std::vector<std::vector<uint8_t>>
dramBytes(const DramImage &dram)
{
    std::vector<std::vector<uint8_t>> out;
    for (int d = 0; d < dram.dramCount(); ++d)
        out.push_back(dram.bytes(d));
    return out;
}

struct RunResult
{
    double ms = 0; ///< best-of-kRepeats wall time
    uint64_t quanta = 0;
    uint64_t tokens = 0; ///< summed over every link
    bool drained = false;
    std::vector<std::vector<uint8_t>> dram;
};

RunResult
runFixture(const CompiledArtifact &art, const revet::apps::App &app)
{
    RunResult out;
    for (int rep = 0; rep < kRepeats; ++rep) {
        DramImage dram(art.hir());
        auto args = app.generate(dram, kScale);
        auto t0 = std::chrono::steady_clock::now();
        auto stats = art.execute(dram, args, Engine::Policy::worklist);
        auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        if (rep == 0 || ms < out.ms)
            out.ms = ms;
        if (rep == 0) {
            out.quanta = stats.schedQuanta;
            for (uint64_t n : stats.linkTokens)
                out.tokens += n;
            out.drained = stats.drained;
            out.dram = dramBytes(dram);
        }
    }
    return out;
}

} // namespace

int
main()
{
    const std::vector<std::string> fixtures = {"ip2int", "murmur3"};
    bool ok = true;

    std::printf("exec_dispatch: worklist policy, scale %d, best of %d\n",
                kScale, kRepeats);
    for (const std::string &name : fixtures) {
        const revet::apps::App &app = revet::apps::findApp(name);
        auto art = CompiledArtifact::build(app.source);
        RunResult r = runFixture(*art, app);

        DramImage ref(art->hir());
        auto args = app.generate(ref, kScale);
        art->interpret(ref, args);
        const bool matches = r.dram == dramBytes(ref);

        auto per = [&](uint64_t n) {
            return n == 0 ? 0.0 : r.ms * 1e6 / static_cast<double>(n);
        };
        const double ns_per_quantum = per(r.quanta);
        const double ns_per_token = per(r.tokens);
        std::printf("  %-10s %8.2f ms  %llu quanta  %.1f ns/quantum  "
                    "%llu tokens  %.1f ns/token\n",
                    name.c_str(), r.ms,
                    static_cast<unsigned long long>(r.quanta),
                    ns_per_quantum,
                    static_cast<unsigned long long>(r.tokens),
                    ns_per_token);
        std::printf("{\"bench\":\"exec_dispatch\",\"fixture\":\"%s\","
                    "\"scale\":%d,\"ms\":%.3f,\"quanta\":%llu,"
                    "\"ns_per_quantum\":%.1f,\"tokens\":%llu,"
                    "\"ns_per_token\":%.1f,\"drained\":%s,"
                    "\"matches_interpreter\":%s}\n",
                    name.c_str(), kScale, r.ms,
                    static_cast<unsigned long long>(r.quanta),
                    ns_per_quantum,
                    static_cast<unsigned long long>(r.tokens), ns_per_token,
                    r.drained ? "true" : "false",
                    matches ? "true" : "false");

        if (!r.drained) {
            std::printf("  FAIL(%s): execution did not drain\n",
                        name.c_str());
            ok = false;
        }
        if (!matches) {
            std::printf("  FAIL(%s): DRAM diverged from the AST "
                        "interpreter\n",
                        name.c_str());
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
