/**
 * @file
 * Reference-interpreter tests: language semantics end to end, including
 * the paper's strlen case study (Figure 7), fork continuation semantics,
 * iterators/views, and atomics.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "interp/interp.hh"
#include "lang/parse.hh"

using namespace revet;
using lang::DramImage;
using lang::Program;

namespace
{

struct Rig
{
    Program prog;
    DramImage dram;

    explicit Rig(const std::string &src)
        : prog(lang::parseAndAnalyze(src)), dram(prog)
    {}

    interp::RunStats
    go(std::vector<int32_t> args = {})
    {
        return interp::run(prog, dram, args);
    }
};

} // namespace

TEST(Interp, ScalarArithmetic)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          int a = n * 3 + 1;
          int b = a % 7;
          int c = a / 2 - b;
          uint u = 0xffffffff;
          uint v = u >> 4;
          out[0] = a; out[1] = b; out[2] = c; out[3] = v & 0xff;
        })");
    r.dram.resize("out", 4);
    r.go({10});
    auto out = r.dram.read<int32_t>("out");
    EXPECT_EQ(out[0], 31);
    EXPECT_EQ(out[1], 3);
    EXPECT_EQ(out[2], 12);
    EXPECT_EQ(out[3], 0xff);
}

TEST(Interp, SignedOperations)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          int neg = 0 - n;
          out[0] = neg / 3;
          out[1] = neg >> 1;
          out[2] = neg < 0 ? 1 : 0;
          out[3] = -neg;
        })");
    r.dram.resize("out", 4);
    r.go({9});
    auto out = r.dram.read<int32_t>("out");
    EXPECT_EQ(out[0], -3);
    EXPECT_EQ(out[1], -5); // arithmetic shift
    EXPECT_EQ(out[2], 1);
    EXPECT_EQ(out[3], 9);
}

TEST(Interp, NarrowTypesWrap)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          char c = 200;   // wraps to -56
          uchar u = 200;  // stays 200
          short s = 40000; // wraps negative
          out[0] = c; out[1] = u; out[2] = s;
        })");
    r.dram.resize("out", 3);
    r.go({0});
    auto out = r.dram.read<int32_t>("out");
    EXPECT_EQ(out[0], -56);
    EXPECT_EQ(out[1], 200);
    EXPECT_EQ(out[2], 40000 - 65536);
}

TEST(Interp, WhileAndIf)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          int fib0 = 0; int fib1 = 1; int i = 0;
          while (i < n) {
            int next = fib0 + fib1;
            fib0 = fib1;
            fib1 = next;
            i++;
          };
          if (fib1 > 100) { out[0] = 1; } else { out[0] = 0; };
          out[1] = fib1;
        })");
    r.dram.resize("out", 2);
    auto stats = r.go({10});
    auto out = r.dram.read<int32_t>("out");
    EXPECT_EQ(out[1], 89);
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(stats.whileIterations, 10u);
}

TEST(Interp, ForeachSpawnsThreadsAndReduces)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          int total = foreach (n) { int i =>
            return i * i;
          };
          out[0] = total;
        })");
    r.dram.resize("out", 1);
    auto stats = r.go({100});
    EXPECT_EQ(r.dram.read<int32_t>("out")[0], 328350);
    EXPECT_EQ(stats.foreachThreads, 100u);
}

TEST(Interp, ForeachByStep)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          int total = foreach (n by 16) { int base =>
            return base;
          };
          out[0] = total;
        })");
    r.dram.resize("out", 1);
    auto stats = r.go({64});
    // base in {0,16,32,48} -> 96.
    EXPECT_EQ(r.dram.read<int32_t>("out")[0], 96);
    EXPECT_EQ(stats.foreachThreads, 4u);
}

TEST(Interp, ExitSkipsReduction)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          int total = foreach (n) { int i =>
            if (i % 2 == 0) { exit(); };
            return 1;
          };
          out[0] = total;
        })");
    r.dram.resize("out", 1);
    r.go({10});
    EXPECT_EQ(r.dram.read<int32_t>("out")[0], 5);
}

TEST(Interp, NestedForeachBroadcastSemantics)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          int total = foreach (n) { int i =>
            int inner = foreach (i + 1) { int j =>
              return i * 10 + j;
            };
            return inner;
          };
          out[0] = total;
        })");
    r.dram.resize("out", 1);
    r.go({3});
    // i=0: 0; i=1: 10+11=21; i=2: 20+21+22=63 -> 84.
    EXPECT_EQ(r.dram.read<int32_t>("out")[0], 84);
}

TEST(Interp, ForkContinuation)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          SRAM<int, 8> acc;
          foreach (1) { int t =>
            int i = fork(n);
            int j = fork(2);
            fetch_add(acc, i * 2 + j, 1);
          };
          foreach (8) { int k =>
            out[k] = acc[k];
          };
        })");
    r.dram.resize("out", 8);
    auto stats = r.go({3});
    auto out = r.dram.read<int32_t>("out");
    // fork(3) x fork(2) = 6 threads covering cells 0..5 exactly once.
    for (int k = 0; k < 6; ++k)
        EXPECT_EQ(out[k], 1) << "cell " << k;
    EXPECT_EQ(out[6], 0);
    EXPECT_EQ(stats.forkThreads, 2u + 3u * 1u); // (3-1) + 3*(2-1)
}

TEST(Interp, ForkInsideWhile)
{
    // Binary tree expansion: each thread halves its range until width 1;
    // counts leaves via atomics. Exercises fork inside while inside if.
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          SRAM<int, 2> acc;
          foreach (1) { int t =>
            int width = n;
            while (width > 1) {
              int half = fork(2);
              width = (width + (1 - half)) / 2;
            };
            fetch_add(acc, 0, 1);
          };
          out[0] = acc[0];
        })");
    r.dram.resize("out", 1);
    r.go({8});
    EXPECT_EQ(r.dram.read<int32_t>("out")[0], 8);
}

TEST(Interp, DramRandomAccess)
{
    Rig r(R"(
        DRAM<int> table;
        DRAM<int> out;
        void main(int n) {
          foreach (n) { int i =>
            out[i] = table[(i * 7) % n];
          };
        })");
    std::vector<int32_t> table(32);
    std::iota(table.begin(), table.end(), 100);
    r.dram.fill("table", table);
    r.dram.resize("out", 32);
    r.go({32});
    auto out = r.dram.read<int32_t>("out");
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(out[i], 100 + (i * 7) % 32);
}

TEST(Interp, ViewsRoundTrip)
{
    Rig r(R"(
        DRAM<int> src;
        DRAM<int> dst;
        void main(int n) {
          foreach (n by 8) { int base =>
            ReadView<8> in(src, base);
            WriteView<8> out(dst, base);
            foreach (8) { int i =>
              out[i] = in[i] * 2;
            };
          };
        })");
    std::vector<int32_t> src(64);
    std::iota(src.begin(), src.end(), 0);
    r.dram.fill("src", src);
    r.dram.resize("dst", 64);
    r.go({64});
    auto out = r.dram.read<int32_t>("dst");
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(out[i], i * 2);
}

TEST(Interp, ReadIteratorWalksDram)
{
    Rig r(R"(
        DRAM<char> text;
        DRAM<int> out;
        void main(int n) {
          ReadIt<16> it(text, 0);
          int sum = 0;
          int i = 0;
          while (i < n) {
            sum = sum + *it;
            it++;
            i++;
          };
          out[0] = sum;
        })");
    std::vector<int8_t> text(100);
    for (int i = 0; i < 100; ++i)
        text[i] = static_cast<int8_t>(i % 50);
    r.dram.fill("text", text);
    r.dram.resize("out", 1);
    auto stats = r.go({100});
    int expect = 0;
    for (int i = 0; i < 100; ++i)
        expect += i % 50;
    EXPECT_EQ(r.dram.read<int32_t>("out")[0], expect);
    // 100 elements / 16-element tiles -> 7 refills.
    EXPECT_EQ(stats.iteratorRefills, 7u);
}

TEST(Interp, PeekIteratorAndSkip)
{
    Rig r(R"(
        DRAM<int> data;
        DRAM<int> out;
        void main(int n) {
          PeekReadIt<8> it(data, 0);
          // Sum data[k] + data[k+2] stepping by 3.
          int sum = 0;
          int i = 0;
          while (i < n) {
            sum = sum + it[0] + it[2];
            it += 3;
            i++;
          };
          out[0] = sum;
        })");
    std::vector<int32_t> data(64);
    std::iota(data.begin(), data.end(), 0);
    r.dram.fill("data", data);
    r.dram.resize("out", 1);
    r.go({5});
    int expect = 0;
    for (int i = 0; i < 5; ++i)
        expect += (3 * i) + (3 * i + 2);
    EXPECT_EQ(r.dram.read<int32_t>("out")[0], expect);
}

TEST(Interp, WriteIteratorFlushesTiles)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          WriteIt<4> it(out, 0);
          int i = 0;
          while (i < n) {
            *it = i * 3;
            it++;
            i++;
          };
        })");
    r.dram.resize("out", 10);
    r.go({10});
    auto out = r.dram.read<int32_t>("out");
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(out[i], i * 3) << i;
}

TEST(Interp, ManualWriteItNeedsFlush)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          ManualWriteIt<4> it(out, 0);
          int i = 0;
          while (i < n) {
            *it = i + 1;
            it++;
            i++;
          };
          if (n % 4 != 0) { flush(it); };
        })");
    r.dram.resize("out", 10);
    r.go({6});
    auto out = r.dram.read<int32_t>("out");
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(out[i], i + 1);
}

TEST(Interp, ManualWriteItWithoutFlushLosesTail)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          ManualWriteIt<4> it(out, 0);
          int i = 0;
          while (i < n) {
            *it = i + 1;
            it++;
            i++;
          };
        })");
    r.dram.resize("out", 10);
    r.go({6});
    auto out = r.dram.read<int32_t>("out");
    // First full tile flushed automatically; the partial tail is lost.
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(out[i], i + 1);
    EXPECT_EQ(out[4], 0);
    EXPECT_EQ(out[5], 0);
}

TEST(Interp, StrlenFigure7EndToEnd)
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
        }
    )";
    Rig r(src);
    // Build 128 strings of known lengths.
    std::mt19937 rng(7);
    std::vector<int8_t> text;
    std::vector<int32_t> offsets;
    std::vector<int> expect;
    for (int i = 0; i < 128; ++i) {
        offsets.push_back(static_cast<int32_t>(text.size()));
        int len = rng() % 50;
        expect.push_back(len);
        for (int k = 0; k < len; ++k)
            text.push_back('a' + rng() % 26);
        text.push_back(0);
    }
    r.dram.fill("input", text);
    r.dram.fill("offsets", offsets);
    r.dram.resize("lengths", 128);
    auto stats = r.go({128});
    auto lengths = r.dram.read<int32_t>("lengths");
    for (int i = 0; i < 128; ++i)
        EXPECT_EQ(lengths[i], expect[i]) << "string " << i;
    EXPECT_EQ(stats.foreachThreads, 2u + 128u);
}

TEST(Interp, AtomicsAreReadModifyWrite)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          SRAM<int, 1> cell;
          int last = foreach (n) { int i =>
            int old = fetch_add(cell, 0, 2);
            return old;
          };
          out[0] = cell[0];
          out[1] = last;
        })");
    r.dram.resize("out", 2);
    r.go({10});
    auto out = r.dram.read<int32_t>("out");
    EXPECT_EQ(out[0], 20);
    // Sum of old values 0,2,4,...,18 = 90 under any serialization.
    EXPECT_EQ(out[1], 90);
}

TEST(Interp, CompoundSramUpdate)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          SRAM<int, 4> buf;
          buf[1] = 10;
          buf[1] += 5;
          buf[1] |= 32;
          out[0] = buf[1];
        })");
    r.dram.resize("out", 1);
    r.go({0});
    EXPECT_EQ(r.dram.read<int32_t>("out")[0], 47);
}

TEST(Interp, DivisionByZeroThrows)
{
    Rig r("DRAM<int> out; void main(int n) { out[0] = 1 / n; }");
    r.dram.resize("out", 1);
    EXPECT_THROW(r.go({0}), std::runtime_error);
}

TEST(Interp, RunawayLoopGuard)
{
    Rig r("void main(int n) { while (1) { n = 0; } }");
    EXPECT_THROW(interp::run(r.prog, r.dram, {1}, 10000),
                 std::runtime_error);
}

TEST(Interp, ReplicateIsSemanticallyTransparent)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          foreach (n) { int i =>
            int v = 0;
            replicate (8) {
              v = i * 2;
            };
            out[i] = v;
          };
        })");
    r.dram.resize("out", 16);
    r.go({16});
    auto out = r.dram.read<int32_t>("out");
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], i * 2);
}

TEST(DramImage, ResizeCountsIntElements)
{
    Rig r(R"(
        DRAM<int> out;
        void main(int n) {
          foreach (n) { int i => out[i] = i + 1; };
        })");
    r.dram.resize("out", 3);
    EXPECT_EQ(r.dram.bytes("out").size(), 3 * sizeof(int32_t));
    r.go({3});
    EXPECT_EQ(r.dram.read<int32_t>("out"), (std::vector<int32_t>{1, 2, 3}));
}

TEST(DramImage, ResizeCountsCharElements)
{
    Rig r(R"(
        DRAM<char> out;
        void main(int n) {
          foreach (n) { int i => out[i] = 97 + i; };
        })");
    r.dram.resize("out", 5);
    EXPECT_EQ(r.dram.bytes("out").size(), 5u);
    r.go({5});
    EXPECT_EQ(r.dram.read<int8_t>("out"),
              (std::vector<int8_t>{'a', 'b', 'c', 'd', 'e'}));
    // A fill sizes by the same count, so its entries must be as wide
    // as the region's elements.
    EXPECT_THROW(r.dram.fill("out", std::vector<int32_t>{1}),
                 std::invalid_argument);
}
