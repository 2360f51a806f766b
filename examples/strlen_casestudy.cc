/**
 * @file
 * The paper's Section IV-B case study: strlen() over a string table,
 * exactly as written in Figure 7 — outer tiled foreach with views, a
 * hierarchy-eliminated inner foreach, replicate(4), and a demand-fetched
 * ReadIt inside a data-dependent while loop.
 */

#include <cstdio>
#include <random>

#include "core/revet.hh"

int
main()
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
                while (*it) {
                  len++;
                  it++;
                };
              };
              out_view[idx] = len;
            };
          };
        })";

    auto prog = revet::CompiledArtifact::build(src);
    revet::lang::DramImage dram(prog->hir());

    std::mt19937 rng(42);
    std::vector<int8_t> text;
    std::vector<int32_t> offsets;
    std::vector<int> expect;
    const int count = 128;
    for (int i = 0; i < count; ++i) {
        offsets.push_back(static_cast<int32_t>(text.size()));
        int len = rng() % 60;
        expect.push_back(len);
        for (int k = 0; k < len; ++k)
            text.push_back('a' + rng() % 26);
        text.push_back(0);
    }
    dram.fill("input", text);
    dram.fill("offsets", offsets);
    dram.resize("lengths", count);

    prog->execute(dram, {count});
    auto lengths = dram.read<int32_t>("lengths");
    int bad = 0;
    for (int i = 0; i < count; ++i)
        bad += lengths[i] != expect[i];
    std::printf("strlen over %d strings: %s (graph: %zu nodes)\n", count,
                bad ? "MISMATCH" : "all lengths correct",
                prog->dfg().nodes.size());
    return bad != 0;
}
