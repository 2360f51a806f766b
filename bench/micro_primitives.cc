/**
 * @file
 * Google-benchmark microbenchmarks for the machine substrate: SLTF
 * codec throughput, streaming primitive rates, and end-to-end compile
 * time for the strlen case study. These guard the simulator's own
 * performance (host-side), not modeled vRDA numbers.
 */

#include <benchmark/benchmark.h>

#include "core/revet.hh"
#include "dataflow/engine.hh"
#include "sltf/codec.hh"
#include "sltf/ragged.hh"

using namespace revet;

namespace
{

sltf::TokenStream
bigStream(int groups, int per_group)
{
    sltf::StreamBuilder sb;
    for (int g = 0; g < groups; ++g) {
        for (int i = 0; i < per_group; ++i)
            sb.d(g * per_group + i);
        sb.b(1);
    }
    sb.b(2);
    return sb;
}

} // namespace

static void
BM_SltfCompress(benchmark::State &state)
{
    auto stream = bigStream(static_cast<int>(state.range(0)), 16);
    for (auto _ : state)
        benchmark::DoNotOptimize(sltf::compress(stream));
    state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_SltfCompress)->Arg(100)->Arg(10000);

static void
BM_SltfRoundTrip(benchmark::State &state)
{
    auto stream = bigStream(static_cast<int>(state.range(0)), 16);
    for (auto _ : state) {
        auto t = sltf::decode(stream, 2);
        benchmark::DoNotOptimize(sltf::encode(t));
    }
    state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_SltfRoundTrip)->Arg(100)->Arg(1000);

static void
BM_EngineReducePipeline(benchmark::State &state)
{
    for (auto _ : state) {
        dataflow::Engine e;
        auto *in = e.channel("in");
        auto *out = e.channel("out");
        e.make<dataflow::Source>(
            "src", in, bigStream(static_cast<int>(state.range(0)), 16));
        e.make<dataflow::Reduce>("sum", in, out, 0);
        auto *sink = e.make<dataflow::Sink>("sink", out);
        e.run();
        benchmark::DoNotOptimize(sink->collected());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0) * 17);
}
BENCHMARK(BM_EngineReducePipeline)->Arg(100)->Arg(1000);

/**
 * The worklist scheduler on a skewed region array: 16 replicated
 * 8-stage pipelines, all tokens routed to replica 0 (see
 * bench_engine_sched for the full 64x64 array with pass/fail gating).
 */
static void
BM_EngineSchedSkewed(benchmark::State &state)
{
    for (auto _ : state) {
        dataflow::Engine e;
        dataflow::Sink *sink = nullptr;
        for (int rep = 0; rep < 16; ++rep) {
            auto *cur = e.channel("in" + std::to_string(rep), 1);
            if (rep == 0) {
                e.make<dataflow::Source>("src", cur,
                                         bigStream(64, 16));
            }
            for (int s = 0; s < 8; ++s) {
                auto *next = e.channel(
                    "c" + std::to_string(rep) + "_" + std::to_string(s),
                    1);
                e.make<dataflow::ElementWise>(
                    "ew", dataflow::Bundle{cur},
                    dataflow::Bundle{next},
                    [](const dataflow::LaneRun &run) {
                        for (size_t t = 0; t < run.n; ++t)
                            run.out[0][t] = run.in[0][t] + 1;
                    });
                cur = next;
            }
            auto *snk = e.make<dataflow::Sink>("sink", cur);
            if (rep == 0)
                sink = snk;
        }
        e.run();
        benchmark::DoNotOptimize(sink->collected());
    }
    state.SetItemsProcessed(state.iterations() * 64 * 17);
}
BENCHMARK(BM_EngineSchedSkewed);

static void
BM_CompileStrlen(benchmark::State &state)
{
    const char *src = R"(
        DRAM<char> input; DRAM<int> offsets; DRAM<int> lengths;
        void main(int count) {
          foreach (count by 64) { int outer =>
            ReadView<64> in_view(offsets, outer);
            WriteView<64> out_view(lengths, outer);
            foreach (64) { int idx =>
              pragma(eliminate_hierarchy);
              int len = 0;
              int off = in_view[idx];
              replicate (4) {
                ReadIt<64> it(input, off);
                while (*it) { len++; it++; };
              };
              out_view[idx] = len;
            };
          };
        })";
    for (auto _ : state)
        benchmark::DoNotOptimize(CompiledArtifact::build(src));
}
BENCHMARK(BM_CompileStrlen);

BENCHMARK_MAIN();
