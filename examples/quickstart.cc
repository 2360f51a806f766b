/**
 * @file
 * Quickstart: compile a tiny Revet program, run it on both the
 * reference interpreter and the compiled dataflow machine, and read the
 * results back from DRAM.
 */

#include <cstdio>

#include "core/revet.hh"

int
main()
{
    const char *src = R"(
        DRAM<int> data;
        DRAM<int> out;
        void main(int n) {
          // Parallel threads with data-dependent control flow: the
          // combination MapReduce models cannot express.
          int total = foreach (n) { int i =>
            int v = data[i];
            int steps = 0;
            while (v != 1) {
              if (v % 2 == 0) { v = v / 2; } else { v = v * 3 + 1; };
              steps++;
            };
            out[i] = steps;
            return steps;
          };
          out[n] = total;
        })";

    auto art = revet::CompiledArtifact::build(src);
    revet::lang::DramImage dram(art->hir());
    std::vector<int32_t> data(16);
    for (int i = 0; i < 16; ++i)
        data[i] = i + 1;
    dram.fill("data", data);
    dram.resize("out", 17);

    auto stats = art->execute(dram, {16}); // compiled dataflow machine
    auto out = dram.read<int32_t>("out");

    std::printf("Collatz steps per thread:");
    for (int i = 0; i < 16; ++i)
        std::printf(" %d", out[i]);
    std::printf("\nreduced total = %d\n", out[16]);
    std::printf("dataflow graph: %zu nodes, %zu links, drained=%s\n",
                art->dfg().nodes.size(), art->dfg().links.size(),
                stats.drained ? "yes" : "no");
    return 0;
}
