/**
 * @file
 * Dispatch cost of the executor on the ALU-dense Table III apps
 * (ip2int, murmur3), whose graphs are dominated by block firings, on
 * huff-dec, whose short runs over wide bundles are the case where
 * run-at-a-time firing gains least, and on huff-enc, search, kD-tree
 * and hash-table, whose bundles are wide and channel work dominates:
 * wall time per scheduler quantum and per token, with the run's
 * cursor notifications and the wakeups they made.
 *
 * Each fixture is compiled once and run under the worklist policy
 * kRepeats times, the fixtures interleaved repetition by repetition so
 * that a slow phase of the host lands on all of them; the report is
 * the median and the interquartile range over the repetitions. Two
 * normalizations are reported. ns per quantum (one thread or barrier a
 * firing moved) prices a process firing; fanouts run no process
 * (Engine::multicast), so their traffic costs no quanta. ns per token
 * (summed over every link's traffic, ExecStats::linkTokens, which a
 * graph's shape fixes) prices the work itself, and is the figure to
 * compare across executor changes.
 *
 * One invocation takes about a second, inside one phase of the host,
 * so its IQR shows the spread within that phase only: it is not a
 * confidence interval, and two invocations of one binary can differ
 * by more than either IQR. Compare two trees by alternating
 * invocations of their builds (ten or more per side) and comparing
 * the medians of the invocations' medians.
 *
 * Acceptance gate (exit non-zero on violation, like engine_sched):
 * every run drains and its DRAM image is byte-identical to the AST
 * interpreter's. There is no timing gate: the number is a report, to
 * be compared against earlier runs on the same host.
 *
 * Emits one JSON row per fixture for the CI artifact.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
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

constexpr int kRepeats = 15;

std::vector<std::vector<uint8_t>>
dramBytes(const DramImage &dram)
{
    std::vector<std::vector<uint8_t>> out;
    for (int d = 0; d < dram.dramCount(); ++d)
        out.push_back(dram.bytes(d));
    return out;
}

struct Fixture
{
    std::string name;
    int scale;
    const revet::apps::App *app = nullptr;
    std::shared_ptr<const CompiledArtifact> art;
    std::vector<double> ms; ///< wall time of each repetition
    uint64_t quanta = 0;
    uint64_t tokens = 0; ///< summed over every link
    uint64_t notifications = 0;
    uint64_t wakeups = 0;
    bool drained = true;
    bool matches = true;
};

/** One timed run of @p f; the first also checks drain and DRAM. */
void
runOnce(Fixture &f)
{
    DramImage dram(f.art->hir());
    auto args = f.app->generate(dram, f.scale);
    auto t0 = std::chrono::steady_clock::now();
    auto stats = f.art->execute(dram, args, Engine::Policy::worklist);
    auto t1 = std::chrono::steady_clock::now();
    f.ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
    if (f.ms.size() > 1)
        return;
    f.quanta = stats.schedQuanta;
    f.notifications = stats.schedNotifications;
    f.wakeups = stats.schedWakeups;
    for (uint64_t n : stats.linkTokens)
        f.tokens += n;
    f.drained = stats.drained;
    DramImage ref(f.art->hir());
    auto ref_args = f.app->generate(ref, f.scale);
    f.art->interpret(ref, ref_args);
    f.matches = dramBytes(dram) == dramBytes(ref);
}

/** The @p q quantile (0..1) of @p v, by linear interpolation. */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Spread
{
    double q1, median, q3;
};

/** Quartiles of the per-repetition ns per @p n units of @p f. */
Spread
nsPer(const Fixture &f, uint64_t n)
{
    std::vector<double> ns;
    for (double ms : f.ms)
        ns.push_back(n == 0 ? 0.0 : ms * 1e6 / static_cast<double>(n));
    return {quantile(ns, 0.25), quantile(ns, 0.5), quantile(ns, 0.75)};
}

} // namespace

int
main()
{
    std::vector<Fixture> fixtures;
    for (auto [name, scale] : {std::pair<const char *, int>{"ip2int", 192},
                               {"murmur3", 192},
                               {"huff-dec", 3},
                               {"huff-enc", 5},
                               {"search", 5},
                               {"kD-tree", 13},
                               {"hash-table", 36}}) {
        Fixture f;
        f.name = name;
        f.scale = scale;
        f.app = &revet::apps::findApp(name);
        f.art = CompiledArtifact::build(f.app->source);
        fixtures.push_back(std::move(f));
    }
    for (int rep = 0; rep < kRepeats; ++rep) {
        for (Fixture &f : fixtures)
            runOnce(f);
    }

    std::printf("exec_dispatch: worklist policy, %d interleaved "
                "repetitions, median [IQR]\n",
                kRepeats);
    bool ok = true;
    for (const Fixture &f : fixtures) {
        const Spread q = nsPer(f, f.quanta);
        const Spread t = nsPer(f, f.tokens);
        const double ms = quantile(f.ms, 0.5);
        std::printf("  %-10s scale %-4d %7.2f ms  %llu quanta  %.1f "
                    "[%.1f, %.1f] ns/quantum  %llu tokens  %.2f "
                    "[%.2f, %.2f] ns/token  %llu notifications  %llu "
                    "wakeups\n",
                    f.name.c_str(), f.scale, ms,
                    static_cast<unsigned long long>(f.quanta), q.median,
                    q.q1, q.q3, static_cast<unsigned long long>(f.tokens),
                    t.median, t.q1, t.q3,
                    static_cast<unsigned long long>(f.notifications),
                    static_cast<unsigned long long>(f.wakeups));
        std::printf("{\"bench\":\"exec_dispatch\",\"fixture\":\"%s\","
                    "\"scale\":%d,\"repeats\":%d,\"ms\":%.3f,"
                    "\"quanta\":%llu,\"ns_per_quantum\":%.1f,"
                    "\"ns_per_quantum_q1\":%.1f,"
                    "\"ns_per_quantum_q3\":%.1f,\"tokens\":%llu,"
                    "\"ns_per_token\":%.2f,\"ns_per_token_q1\":%.2f,"
                    "\"ns_per_token_q3\":%.2f,\"notifications\":%llu,"
                    "\"wakeups\":%llu,\"drained\":%s,"
                    "\"matches_interpreter\":%s}\n",
                    f.name.c_str(), f.scale, kRepeats, ms,
                    static_cast<unsigned long long>(f.quanta), q.median,
                    q.q1, q.q3, static_cast<unsigned long long>(f.tokens),
                    t.median, t.q1, t.q3,
                    static_cast<unsigned long long>(f.notifications),
                    static_cast<unsigned long long>(f.wakeups),
                    f.drained ? "true" : "false",
                    f.matches ? "true" : "false");
        if (!f.drained) {
            std::printf("  FAIL(%s): execution did not drain\n",
                        f.name.c_str());
            ok = false;
        }
        if (!f.matches) {
            std::printf("  FAIL(%s): DRAM diverged from the AST "
                        "interpreter\n",
                        f.name.c_str());
            ok = false;
        }
    }
    return ok ? 0 : 1;
}
