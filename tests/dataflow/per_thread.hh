/**
 * @file
 * Lane functions for hand-built test networks, written one thread at a
 * time.
 */

#ifndef REVET_TESTS_DATAFLOW_PER_THREAD_HH
#define REVET_TESTS_DATAFLOW_PER_THREAD_HH

#include <functional>
#include <vector>

#include "dataflow/primitives.hh"

namespace revet
{
namespace dataflow
{

/** The LaneFn applying @p f to each thread of a run in turn: @p f sees
 * the thread's input words and appends one word per output lane. */
inline LaneFn
perThread(
    std::function<void(const std::vector<Word> &, std::vector<Word> &)> f)
{
    return [f](const LaneRun &run) {
        std::vector<Word> in(run.ins), out;
        for (size_t t = 0; t < run.n; ++t) {
            for (size_t i = 0; i < run.ins; ++i)
                in[i] = run.in[i][t];
            out.clear();
            f(in, out);
            for (size_t j = 0; j < run.outs; ++j)
                run.out[j][t] = out.at(j);
        }
    };
}

} // namespace dataflow
} // namespace revet

#endif // REVET_TESTS_DATAFLOW_PER_THREAD_HH
