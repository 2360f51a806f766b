/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * A span is (name, start, end, parent span, request id), recorded from
 * the benchmark's own files around calls into one layer of the public
 * API. Spans stay in memory until the run ends and are then written as
 * JSON lines. A layer's self time is its span minus the time its child
 * spans cover; children of one span never overlap here, because every
 * span is recorded from the benchmark's main thread (per-request
 * serving spans are synthesized afterwards from serveBatch's own
 * queue/exec accounting).
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

struct Span
{
    std::string name;
    double startMs = 0; ///< since the tracer's epoch
    double endMs = 0;
    int parent = -1;       ///< index of the enclosing span, -1 for roots
    int64_t request = -1;  ///< request (or build) the span belongs to
};

/** Per-name totals over a set of spans. */
struct LayerTotals
{
    double selfMs = 0;
    double spanMs = 0;
    uint64_t count = 0;
};

class Tracer
{
  public:
    Tracer() : epoch_(Clock::now()) {}

    int
    begin(std::string name, int parent = -1, int64_t request = -1)
    {
        spans_.push_back(
            {std::move(name), msSince(epoch_), 0, parent, request});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Close span @p id; returns its duration in ms. */
    double
    end(int id)
    {
        Span &s = spans_[id];
        s.endMs = msSince(epoch_);
        return s.endMs - s.startMs;
    }

    /** Record a span whose times were measured elsewhere. */
    int
    add(std::string name, double start_ms, double end_ms, int parent,
        int64_t request)
    {
        spans_.push_back(
            {std::move(name), start_ms, end_ms, parent, request});
        return static_cast<int>(spans_.size()) - 1;
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time and span time summed per span name. */
    std::map<std::string, LayerTotals>
    totals() const
    {
        std::vector<double> child_ms(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                child_ms[s.parent] += s.endMs - s.startMs;
        }
        std::map<std::string, LayerTotals> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const double d = spans_[i].endMs - spans_[i].startMs;
            LayerTotals &t = out[spans_[i].name];
            t.spanMs += d;
            t.selfMs += d - child_ms[i];
            ++t.count;
        }
        return out;
    }

    /** Write every span as one JSON object per line. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << "{\"id\":" << i << ",\"name\":\"" << s.name
                << "\",\"start_ms\":" << s.startMs
                << ",\"end_ms\":" << s.endMs << ",\"parent\":" << s.parent
                << ",\"request\":" << s.request << "}\n";
        }
        return static_cast<bool>(out);
    }

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
