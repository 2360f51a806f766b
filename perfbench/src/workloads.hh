/**
 * @file
 * The benchmark's three workloads over the public Revet API.
 *
 *  - compile_corpus: cold, uncached CompiledArtifact::build() of the
 *    eight Table III apps in seeded order, single-threaded. Loads the
 *    compiler only; the engine runs once per app after the clock stops
 *    to prove the last build's code correct.
 *  - serve_warm: closed loop of seeded one-app batches over cached
 *    artifacts through serve::serveBatch (one worker, worklist policy,
 *    pooled contexts), scales chosen so requests cost about equal
 *    engine work. Loads the serial engine, context reset and queueing.
 *  - exec_parallel: one client, one request at a time, through
 *    serveBatch with Policy::parallel on 2 engine threads over the four
 *    largest graphs. Loads work stealing and distributed quiescence.
 *    Too unsteady on a 2-vCPU host to gate on; run it by hand.
 *
 * Untraced runs report end-to-end metrics; traced runs report per-layer
 * metrics from spans recorded around the same public calls.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut; ///< span file (traced runs); empty: none
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** A count that must repeat exactly for the same code (checked across
 * runs and seeds by run.py). */
struct Fact
{
    std::string key;
    std::string value;
};

struct RunReport
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<Fact> facts;
    std::vector<std::string> lines; ///< human-readable report
};

/** Names of the workloads runWorkload() accepts. */
std::vector<std::string> workloadNames();

/** Run one workload; throws std::invalid_argument on an unknown name. */
RunReport runWorkload(const RunConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
