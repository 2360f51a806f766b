/**
 * @file
 * Language fixtures shared by the graph and scheduler test suites:
 * small Revet programs covering every lowering construct (branchy ifs,
 * while loops, foreach with exit, fork, read iterators, SRAM
 * scratchpads, narrow loop-carried lanes, and replicate regions with
 * pass-over values), each with the DRAM image and arguments it runs
 * on.
 */

#ifndef REVET_TESTS_GRAPH_LANG_FIXTURES_HH
#define REVET_TESTS_GRAPH_LANG_FIXTURES_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "lang/dram_image.hh"

namespace revet
{
namespace fixtures
{

/** Fills a fresh image and returns main()'s arguments. */
using Generate = std::function<std::vector<int32_t>(lang::DramImage &)>;

struct LangFixture
{
    const char *label;
    const char *source;
    Generate generate;
};

inline const std::vector<LangFixture> &
languageFixtures()
{
    using lang::DramImage;
    static const std::vector<LangFixture> fixtures = {
        {"branchy-if",
         R"(
         DRAM<int> out;
         void main(int n) {
           int x = 7;
           if (n != 0) { x = 1000 / n; };
           out[0] = x;
         })",
         [](DramImage &d) {
             d.resize("out", 1);
             return std::vector<int32_t>{8};
         }},
        {"while-loop",
         R"(
         DRAM<int> out;
         void main(int n) {
           int i = 0; int acc = 0;
           while (i < n) { acc = acc + i * i; i++; };
           out[0] = acc;
         })",
         [](DramImage &d) {
             d.resize("out", 1);
             return std::vector<int32_t>{37};
         }},
        {"nested-while",
         R"(
         DRAM<int> out;
         void main(int n) {
           int i = 0; int acc = 0;
           while (i < n) {
             int j = 0;
             while (j < i) { acc = acc + 1; j++; };
             i++;
           };
           out[0] = acc;
         })",
         [](DramImage &d) {
             d.resize("out", 1);
             return std::vector<int32_t>{12};
         }},
        {"collatz-while-in-foreach",
         R"(
         DRAM<int> data; DRAM<int> out;
         void main(int n) {
           foreach (n) { int i =>
             int v = data[i];
             int steps = 0;
             while (v != 1) {
               if (v % 2 == 0) { v = v / 2; } else { v = v * 3 + 1; };
               steps++;
             };
             out[i] = steps;
           };
         })",
         [](DramImage &d) {
             std::vector<int32_t> data(24);
             for (int i = 0; i < 24; ++i)
                 data[i] = i + 1;
             d.fill("data", data);
             d.resize("out", 24);
             return std::vector<int32_t>{24};
         }},
        {"nested-foreach-reduce",
         R"(
         DRAM<int> out;
         void main(int n) {
           int total = foreach (n) { int i =>
             int inner = foreach (i + 1) { int j =>
               return i * 10 + j;
             };
             return inner;
           };
           out[0] = total;
         })",
         [](DramImage &d) {
             d.resize("out", 1);
             return std::vector<int32_t>{6};
         }},
        {"foreach-with-exit",
         R"(
         DRAM<int> out;
         void main(int n) {
           int total = foreach (n) { int i =>
             if (i % 3 == 0) { exit(); };
             return i;
           };
           out[0] = total;
         })",
         [](DramImage &d) {
             d.resize("out", 1);
             return std::vector<int32_t>{20};
         }},
        {"fork-and-rmw",
         R"(
         DRAM<int> out;
         void main(int n) {
           SRAM<int, 16> acc;
           foreach (1) { int t =>
             int i = fork(n);
             int j = fork(2);
             fetch_add(acc, i * 2 + j, 1);
           };
           foreach (16) { int k =>
             out[k] = acc[k];
           };
         })",
         [](DramImage &d) {
             d.resize("out", 16);
             return std::vector<int32_t>{5};
         }},
        {"read-iterator",
         R"(
         DRAM<char> text; DRAM<int> out;
         void main(int n) {
           ReadIt<8> it(text, 0);
           int len = 0;
           while (*it) { len++; it++; };
           out[0] = len;
         })",
         [](DramImage &d) {
             std::vector<int8_t> text(60, 'x');
             text[47] = 0;
             d.fill("text", text);
             d.resize("out", 1);
             return std::vector<int32_t>{0};
         }},
        {"sram-scratchpad",
         R"(
         DRAM<int> out;
         void main(int n) {
           SRAM<int, 16> buf;
           foreach (16) { int i =>
             buf[i] = i * i;
           };
           int total = foreach (16) { int i =>
             return buf[15 - i];
           };
           out[0] = total;
         })",
         [](DramImage &d) {
             d.resize("out", 1);
             return std::vector<int32_t>{0};
         }},
        // Narrow loop-carried values: the while header's fbMerge gets
        // i8/i16 lanes for sub-word packing to share.
        {"narrow-while",
         R"(
         DRAM<int> out;
         void main(int n) {
           foreach (n) { int t =>
             char a = t * 7;
             short b = t * 129;
             char c = 0 - t;
             int i = 0;
             while (i < t % 5 + 1) {
               a = a + 3;
               b = b - a;
               c = c ^ i;
               i++;
             };
             out[t] = a * 65536 + b * 256 + c;
           };
         })",
         [](DramImage &d) {
             d.resize("out", 24);
             return std::vector<int32_t>{24};
         }},
        // A fork inside the replicate body multiplies the thread
        // count, so pass-over stashing must refuse (regression: the
        // stashed streams would misalign with the forked output).
        {"fork-in-replicate",
         R"(
         DRAM<int> out;
         void main(int n) {
           foreach (n) { int t =>
             int k1 = t * 7 + 1;
             int h = t;
             replicate (2) {
               int u = fork(2);
               h = h * 2 + u;
             };
             out[h] = h + k1;
           };
         })",
         [](DramImage &d) {
             d.resize("out", 32);
             return std::vector<int32_t>{12};
         }},
        // Pass-over values around a thread-reordering replicate body
        // (a data-dependent while): they ride the region's bundles and
        // replicate-bufferize converts them to ordinal-keyed parks.
        {"reorder-replicate-passover",
         R"(
         DRAM<int> data; DRAM<int> out;
         void main(int n) {
           foreach (n) { int t =>
             int a = data[t];
             int k1 = t * 3 + 1;
             int k2 = t ^ 17;
             short k3 = t + 40;
             int w = a & 7;
             int h = a;
             replicate (4) {
               while (w != 0) { h = h * 31 + w; w = w - 1; };
             };
             out[t] = h + k1 - k2 + k3;
           };
         })",
         [](DramImage &d) {
             std::vector<int32_t> data(20);
             for (int i = 0; i < 20; ++i)
                 data[i] = i * 91 + 5;
             d.fill("data", data);
             d.resize("out", 20);
             return std::vector<int32_t>{20};
         }},
        // Threads dying inside the region (exit under an if): their
        // parked values are never restored; survivors still re-pair.
        {"reorder-replicate-exit",
         R"(
         DRAM<int> out;
         void main(int n) {
           foreach (n) { int t =>
             int k1 = t * 7 + 1;
             int k2 = t ^ 29;
             int h = t;
             replicate (2) {
               if (t % 3 == 0) { exit(); };
               h = h * 5 + 2;
             };
             out[t] = h + k1 - k2;
           };
         })",
         [](DramImage &d) {
             d.resize("out", 18);
             return std::vector<int32_t>{18};
         }},
        // Pass-over values around an order-preserving replicate
        // region: replicate-bufferize parks them in SRAM.
        {"replicate-passover",
         R"(
         DRAM<int> data; DRAM<int> out;
         void main(int n) {
           foreach (n) { int t =>
             int a = data[t];
             int k1 = t * 3 + 1;
             int k2 = t ^ 17;
             short k3 = t + 40;
             int h = a;
             replicate (4) {
               h = h * 31 + 7;
               h = h ^ (h / 64);
               h = h * 13 + 3;
             };
             out[t] = h + k1 + k2 - k3;
           };
         })",
         [](DramImage &d) {
             std::vector<int32_t> data(20);
             for (int i = 0; i < 20; ++i)
                 data[i] = i * 91 + 5;
             d.fill("data", data);
             d.resize("out", 20);
             return std::vector<int32_t>{20};
         }},
    };
    return fixtures;
}

} // namespace fixtures
} // namespace revet

#endif // REVET_TESTS_GRAPH_LANG_FIXTURES_HH
