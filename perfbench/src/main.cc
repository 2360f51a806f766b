/**
 * @file
 * revet_perfbench: one run of one workload.
 *
 *   revet_perfbench --workload <name> --seed <n> --seconds <s>
 *                   --trace <0|1> [--trace-out <spans.jsonl>]
 *                   [--facts <facts.json>]
 *
 * Prints a human-readable report, then as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}: end-to-end metrics for
 * --trace 0, per-layer metrics for --trace 1. --facts writes the counts
 * that must repeat exactly across runs and seeds (run.py compares them).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hh"

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "revet_perfbench: " << why
              << "\nusage: revet_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--facts <file>]\nworkloads:";
    for (const std::string &w : perfbench::workloadNames())
        std::cerr << ' ' << w;
    std::cerr << '\n';
    std::exit(2);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + '"';
}

std::string
resultJson(const perfbench::RunReport &rep)
{
    std::ostringstream oss;
    oss.precision(12);
    oss << "{\"correct\": " << (rep.correct ? "true" : "false")
        << ", \"attempted\": " << rep.attempted
        << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    for (size_t i = 0; i < rep.metrics.size(); ++i) {
        const perfbench::Metric &m = rep.metrics[i];
        oss << (i ? ", " : "") << quoted(m.name) << ": {\"value\": "
            << m.value << ", \"unit\": " << quoted(m.unit) << '}';
    }
    oss << "}}";
    return oss.str();
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunConfig cfg;
    std::string facts_path;
    bool have_workload = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            cfg.workload = val;
            have_workload = true;
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(val.c_str(), &end, 10);
            if (val.empty() || *end != '\0')
                usage("bad --seed " + val);
        } else if (arg == "--seconds") {
            cfg.seconds = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' || !(cfg.seconds > 0) ||
                cfg.seconds > 3600)
                usage("bad --seconds " + val);
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("bad --trace " + val);
            cfg.trace = val == "1";
            have_trace = true;
        } else if (arg == "--trace-out") {
            cfg.traceOut = val;
        } else if (arg == "--facts") {
            facts_path = val;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!have_workload || !have_trace)
        usage("--workload and --trace are required");

    perfbench::RunReport rep;
    try {
        rep = perfbench::runWorkload(cfg);
    } catch (const std::exception &e) {
        std::cerr << "revet_perfbench: " << e.what() << '\n';
        return 1;
    }
    for (const perfbench::Metric &m : rep.metrics) {
        if (!std::isfinite(m.value)) {
            std::cerr << "revet_perfbench: metric " << m.name
                      << " is not finite\n";
            return 1;
        }
    }

    if (!facts_path.empty()) {
        std::ofstream out(facts_path);
        out << '{';
        for (size_t i = 0; i < rep.facts.size(); ++i) {
            out << (i ? ", " : "") << quoted(rep.facts[i].key) << ": "
                << quoted(rep.facts[i].value);
        }
        out << "}\n";
        if (!out) {
            std::cerr << "revet_perfbench: cannot write " << facts_path
                      << '\n';
            return 1;
        }
    }

    for (const std::string &line : rep.lines)
        std::cout << line << '\n';
    for (const perfbench::Metric &m : rep.metrics) {
        std::printf("  %-40s %14.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::cout << resultJson(rep) << std::endl;
    return 0;
}
