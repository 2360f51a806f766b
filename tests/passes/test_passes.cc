/**
 * @file
 * Compiler-pass tests. The key property: every pass rewrites the HIR
 * into a form the reference interpreter still executes, so we run each
 * program before and after the pass and require bit-identical DRAM
 * output ("translation validation").
 */

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "interp/interp.hh"
#include "lang/parse.hh"
#include "passes/passes.hh"

using namespace revet;
using lang::DramImage;
using lang::Program;
using lang::StmtKind;

namespace
{

using Filler = std::function<void(DramImage &)>;

/** Run src unlowered and with @p pass applied; compare all DRAM. */
void
expectPassPreservesSemantics(const std::string &src,
                             const std::function<void(Program &)> &pass,
                             const Filler &fill,
                             const std::vector<int32_t> &args)
{
    Program ref_prog = lang::parseAndAnalyze(src);
    DramImage ref_dram(ref_prog);
    fill(ref_dram);
    interp::run(ref_prog, ref_dram, args);

    Program low_prog = lang::parseAndAnalyze(src);
    pass(low_prog);
    DramImage low_dram(low_prog);
    fill(low_dram);
    interp::run(low_prog, low_dram, args);

    for (int d = 0; d < ref_dram.dramCount(); ++d) {
        EXPECT_EQ(ref_dram.bytes(d), low_dram.bytes(d))
            << "DRAM region '" << ref_dram.name(d)
            << "' diverged after pass";
    }
}

bool
hasStmt(const lang::Function &fn, StmtKind kind)
{
    return passes::containsKind(*fn.bodyStmt, {kind});
}

} // namespace

TEST(LowerAdapters, RemovesAdapterNodes)
{
    const char *src = R"(
        DRAM<int> a; DRAM<int> b;
        void main(int n) {
          ReadView<8> v(a, 0);
          ReadIt<4> it(a, 0);
          WriteIt<4> w(b, 0);
          int x = v[0] + *it;
          *w = x;
          w++;
          it++;
        })";
    Program p = lang::parseAndAnalyze(src);
    passes::lowerAdapters(p);
    EXPECT_FALSE(hasStmt(*p.main(), StmtKind::adapterDecl));
    EXPECT_FALSE(hasStmt(*p.main(), StmtKind::storeDeref));
    EXPECT_FALSE(hasStmt(*p.main(), StmtKind::itAdvance));
    EXPECT_FALSE(hasStmt(*p.main(), StmtKind::flushStmt));
    // Demand fetch materialized: an if with a bulk foreach inside.
    EXPECT_TRUE(hasStmt(*p.main(), StmtKind::ifStmt));
    EXPECT_TRUE(hasStmt(*p.main(), StmtKind::foreachStmt));
}

TEST(LowerAdapters, ReadViewSemantics)
{
    expectPassPreservesSemantics(
        R"(
        DRAM<int> src; DRAM<int> dst;
        void main(int n) {
          foreach (n by 8) { int base =>
            ReadView<8> v(src, base);
            WriteView<8> o(dst, base);
            foreach (8) { int i =>
              o[i] = v[7 - i] + 1;
            };
          };
        })",
        passes::lowerAdapters,
        [](DramImage &dram) {
            std::vector<int32_t> data(64);
            std::iota(data.begin(), data.end(), 5);
            dram.fill("src", data);
            dram.resize("dst", 64);
        },
        {64});
}

TEST(LowerAdapters, ReadIteratorSemantics)
{
    expectPassPreservesSemantics(
        R"(
        DRAM<char> text; DRAM<int> out;
        void main(int n) {
          ReadIt<16> it(text, 3);
          int sum = 0;
          while (*it) {
            sum = sum + *it;
            it++;
          };
          out[0] = sum;
        })",
        passes::lowerAdapters,
        [](DramImage &dram) {
            std::vector<int8_t> text(100, 1);
            text[0] = 9;
            text[77] = 0; // terminator
            dram.fill("text", text);
            dram.resize("out", 1);
        },
        {0});
}

TEST(LowerAdapters, PeekIteratorSemantics)
{
    expectPassPreservesSemantics(
        R"(
        DRAM<int> data; DRAM<int> out;
        void main(int n) {
          PeekReadIt<8> it(data, 0);
          int i = 0;
          int acc = 0;
          while (i < n) {
            acc = acc + it[0] * it[5];
            it += 2;
            i++;
          };
          out[0] = acc;
        })",
        passes::lowerAdapters,
        [](DramImage &dram) {
            std::vector<int32_t> data(64);
            std::iota(data.begin(), data.end(), 1);
            dram.fill("data", data);
            dram.resize("out", 1);
        },
        {12});
}

TEST(LowerAdapters, ManualWriteItSemantics)
{
    expectPassPreservesSemantics(
        R"(
        DRAM<int> out;
        void main(int n) {
          ManualWriteIt<4> w(out, 2);
          int i = 0;
          while (i < n) {
            *w = i * 5 + 1;
            w++;
            i++;
          };
          flush(w);
        })",
        passes::lowerAdapters,
        [](DramImage &dram) { dram.resize("out", 30); }, {11});
}

TEST(LowerAdapters, ModifyViewSemantics)
{
    expectPassPreservesSemantics(
        R"(
        DRAM<int> grid;
        void main(int n) {
          ModifyView<16> v(grid, 0);
          foreach (16) { int i =>
            v[i] = v[i] * 2 + 1;
          };
        })",
        passes::lowerAdapters,
        [](DramImage &dram) {
            std::vector<int32_t> g(16);
            std::iota(g.begin(), g.end(), 0);
            dram.fill("grid", g);
        },
        {0});
}

TEST(EliminateHierarchy, RewritesPragmaForeach)
{
    const char *src = R"(
        DRAM<int> out;
        void main(int n) {
          foreach (n) { int i =>
            pragma(eliminate_hierarchy);
            out[i] = i * 3;
          };
        })";
    Program p = lang::parseAndAnalyze(src);
    passes::eliminateHierarchy(p);
    // The pragma'd foreach is gone; a fork appeared.
    bool has_fork = passes::anyExpr(*p.main()->bodyStmt,
                                    [](const lang::Expr &e) {
                                        return e.kind ==
                                            lang::ExprKind::forkExpr;
                                    });
    EXPECT_TRUE(has_fork);
    EXPECT_FALSE(hasStmt(*p.main(), StmtKind::foreachStmt));
}

TEST(EliminateHierarchy, PreservesSemantics)
{
    expectPassPreservesSemantics(
        R"(
        DRAM<int> out;
        void main(int n) {
          foreach (n) { int i =>
            pragma(eliminate_hierarchy);
            out[i] = i * i + 7;
          };
          out[n] = 12345;
        })",
        passes::eliminateHierarchy,
        [](DramImage &dram) { dram.resize("out", 65); }, {64});
}

TEST(EliminateHierarchy, PreservesReduction)
{
    expectPassPreservesSemantics(
        R"(
        DRAM<int> out;
        void main(int n) {
          int total = foreach (n) { int i =>
            pragma(eliminate_hierarchy);
            return i * 2 + 1;
          };
          out[0] = total;
        })",
        passes::eliminateHierarchy,
        [](DramImage &dram) { dram.resize("out", 1); }, {100});
}

TEST(EliminateHierarchy, ZeroThreads)
{
    expectPassPreservesSemantics(
        R"(
        DRAM<int> out;
        void main(int n) {
          int total = foreach (n) { int i =>
            pragma(eliminate_hierarchy);
            return 5;
          };
          out[0] = total + 1;
        })",
        passes::eliminateHierarchy,
        [](DramImage &dram) { dram.resize("out", 1); }, {0});
}

TEST(EliminateHierarchy, ByStepSemantics)
{
    expectPassPreservesSemantics(
        R"(
        DRAM<int> out;
        void main(int n) {
          foreach (n by 16) { int base =>
            pragma(eliminate_hierarchy);
            out[base / 16] = base;
          };
        })",
        passes::eliminateHierarchy,
        [](DramImage &dram) { dram.resize("out", 8); }, {100});
}

TEST(EliminateHierarchy, RejectsExitInBody)
{
    const char *src = R"(
        void main(int n) {
          foreach (n) { int i =>
            pragma(eliminate_hierarchy);
            if (i > 2) { exit(); };
          };
        })";
    Program p = lang::parseAndAnalyze(src);
    EXPECT_THROW(passes::eliminateHierarchy(p), lang::CompileError);
}

TEST(IfToSelect, ConvertsLoopFreeIfs)
{
    const char *src = R"(
        DRAM<int> out;
        void main(int n) {
          int x = 0;
          if (n > 5) { x = n * 2; } else { x = n - 1; };
          out[0] = x;
        })";
    Program p = lang::parseAndAnalyze(src);
    passes::ifToSelect(p);
    EXPECT_FALSE(hasStmt(*p.main(), StmtKind::ifStmt));
}

TEST(IfToSelect, PreservesSemanticsBothBranches)
{
    for (int arg : {3, 9}) {
        expectPassPreservesSemantics(
            R"(
            DRAM<int> out;
            void main(int n) {
              int x = 1;
              int y = 2;
              if (n > 5) {
                x = n * 2;
                out[0] = x + 1;
              } else {
                y = n - 1;
                out[1] = y;
              };
              out[2] = x + y;
            })",
            passes::ifToSelect,
            [](DramImage &dram) { dram.resize("out", 3); }, {arg});
    }
}

TEST(IfToSelect, LeavesLoopsAlone)
{
    const char *src = R"(
        DRAM<int> out;
        void main(int n) {
          if (n > 0) {
            while (n > 0) { n = n - 1; };
          };
          out[0] = n;
        })";
    Program p = lang::parseAndAnalyze(src);
    passes::ifToSelect(p);
    EXPECT_TRUE(hasStmt(*p.main(), StmtKind::ifStmt));
}

TEST(IfToSelect, LeavesDivisionAlone)
{
    // Speculating a division could fault for the untaken branch.
    const char *src = R"(
        DRAM<int> out;
        void main(int n) {
          int x = 0;
          if (n != 0) { x = 100 / n; };
          out[0] = x;
        })";
    Program p = lang::parseAndAnalyze(src);
    passes::ifToSelect(p);
    EXPECT_TRUE(hasStmt(*p.main(), StmtKind::ifStmt));
    // And it still runs with n = 0.
    DramImage dram(p);
    dram.resize("out", 1);
    EXPECT_NO_THROW(interp::run(p, dram, {0}));
}

TEST(IfToSelect, NestedIfsConvertInnerFirst)
{
    for (int arg : {1, 4, 8}) {
        expectPassPreservesSemantics(
            R"(
            DRAM<int> out;
            void main(int n) {
              int r = 0;
              if (n > 2) {
                r = 10;
                if (n > 6) { r = 20; };
              } else {
                r = 30;
              };
              out[0] = r;
            })",
            [](Program &p) { passes::ifToSelect(p); },
            [](DramImage &dram) { dram.resize("out", 1); }, {arg});
    }
}

TEST(Pipeline, FullStrlenThroughAllPasses)
{
    const char *src = R"(
        DRAM<char> input; DRAM<int> offsets; DRAM<int> lengths;
        void main(int count) {
          foreach (count by 32) { int outer =>
            ReadView<32> in_view(offsets, outer);
            foreach (32) { int idx =>
              pragma(eliminate_hierarchy);
              int len = 0;
              int off = in_view[idx];
              replicate (4) {
                ReadIt<16> it(input, off);
                while (*it) {
                  len++;
                  it++;
                };
              };
              lengths[outer + idx] = len;
            };
          };
        })";
    auto fill = [](DramImage &dram) {
        std::mt19937 rng(3);
        std::vector<int8_t> text;
        std::vector<int32_t> offsets;
        for (int i = 0; i < 64; ++i) {
            offsets.push_back(static_cast<int32_t>(text.size()));
            int len = rng() % 40;
            for (int k = 0; k < len; ++k)
                text.push_back('a' + rng() % 26);
            text.push_back(0);
        }
        dram.fill("input", text);
        dram.fill("offsets", offsets);
        dram.resize("lengths", 64);
    };
    expectPassPreservesSemantics(
        src, [](Program &p) { passes::runPipeline(p); }, fill, {64});
}

TEST(Pipeline, PassOrderIndependentResults)
{
    // lowerAdapters + ifToSelect in either order give the same output.
    const char *src = R"(
        DRAM<int> data; DRAM<int> out;
        void main(int n) {
          foreach (n) { int i =>
            int v = data[i];
            int r = 0;
            if (v > 50) { r = v * 2; } else { r = v + 1; };
            out[i] = r;
          };
        })";
    auto fill = [](DramImage &dram) {
        std::vector<int32_t> data(32);
        for (int i = 0; i < 32; ++i)
            data[i] = (i * 37) % 100;
        dram.fill("data", data);
        dram.resize("out", 32);
    };
    expectPassPreservesSemantics(
        src,
        [](Program &p) {
            passes::ifToSelect(p);
            passes::lowerAdapters(p);
        },
        fill, {32});
}
