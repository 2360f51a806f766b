/**
 * @file
 * Lexer / parser / sema tests, including parsing the paper's Figure 7
 * strlen program verbatim (modulo comment style).
 */

#include <gtest/gtest.h>

#include "lang/lex.hh"
#include "lang/parse.hh"
#include "lang/sema.hh"

using namespace revet::lang;

TEST(Lex, TokensAndPositions)
{
    auto toks = lex("int x = 40 + 0x2; // comment\nx <<= 1;");
    ASSERT_GE(toks.size(), 10u);
    EXPECT_EQ(toks[0].kind, Tok::kwInt);
    EXPECT_EQ(toks[1].kind, Tok::ident);
    EXPECT_EQ(toks[1].text, "x");
    EXPECT_EQ(toks[2].kind, Tok::assign);
    EXPECT_EQ(toks[3].kind, Tok::intLit);
    EXPECT_EQ(toks[3].value, 40);
    EXPECT_EQ(toks[5].kind, Tok::intLit);
    EXPECT_EQ(toks[5].value, 2);
    EXPECT_EQ(toks[7].kind, Tok::ident);
    EXPECT_EQ(toks[7].line, 2);
    EXPECT_EQ(toks[8].kind, Tok::shlAssign);
}

TEST(Lex, CharAndEscapes)
{
    auto toks = lex("'a' '\\n' '\\0'");
    EXPECT_EQ(toks[0].value, 'a');
    EXPECT_EQ(toks[1].value, '\n');
    EXPECT_EQ(toks[2].value, 0);
}

TEST(Lex, ErrorsCarryPosition)
{
    try {
        lex("int x = @;");
        FAIL() << "expected CompileError";
    } catch (const CompileError &err) {
        EXPECT_EQ(err.line, 1);
        EXPECT_EQ(err.col, 9);
    }
}

TEST(Parse, MinimalMain)
{
    Program p = parse("void main(int n) { int x = n + 1; }");
    ASSERT_EQ(p.functions.size(), 1u);
    EXPECT_EQ(p.functions[0]->name, "main");
    EXPECT_EQ(p.functions[0]->paramSlots.size(), 1u);
}

TEST(Parse, DramDecls)
{
    Program p = parse("DRAM<char> input; DRAM<int> output;\n"
                      "void main(int n) { }");
    ASSERT_EQ(p.drams.size(), 2u);
    EXPECT_EQ(p.drams[0].name, "input");
    EXPECT_EQ(p.drams[0].elem, Scalar::i8);
    EXPECT_EQ(p.drams[1].elem, Scalar::i32);
    EXPECT_EQ(p.dramId("output"), 1);
    EXPECT_EQ(p.dramId("nope"), -1);
}

TEST(Parse, PaperStrlenFigure7)
{
    const char *src = R"(
        DRAM<char> input; DRAM<int> offsets; DRAM<int> lengths;

        void main(int count) {
          foreach (count by 1024) { int outer =>
            ReadView<1024> in_view(offsets, outer);
            WriteView<1024> out_view(lengths, outer);
            foreach (1024) { int idx =>
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
    Program p = parseAndAnalyze(src);
    Function *main = p.main();
    ASSERT_NE(main, nullptr);
    // The pragma migrated onto the inner foreach.
    const Stmt &outer_fe = *main->bodyStmt->body[0];
    ASSERT_EQ(outer_fe.kind, StmtKind::foreachStmt);
    ASSERT_TRUE(outer_fe.extra) << "outer foreach has a `by` step";
    const Stmt *inner_fe = nullptr;
    for (const auto &s : outer_fe.body) {
        if (s->kind == StmtKind::foreachStmt)
            inner_fe = s.get();
    }
    ASSERT_NE(inner_fe, nullptr);
    ASSERT_EQ(inner_fe->pragmas.size(), 1u);
    EXPECT_EQ(inner_fe->pragmas[0].name, "eliminate_hierarchy");
    // replicate(4) with a while loop and an iterator advance inside.
    const Stmt *repl = nullptr;
    for (const auto &s : inner_fe->body) {
        if (s->kind == StmtKind::replicateStmt)
            repl = s.get();
    }
    ASSERT_NE(repl, nullptr);
    EXPECT_EQ(repl->replicas, 4);
}

// ---------------------------------------------------------------------------
// Nesting bound: source nested past kMaxNestingDepth is a positioned
// CompileError, never a stack overflow.

namespace
{

const std::string kMainOpen = "void main(int n) { ";

std::string
nestedParens(int depth)
{
    return kMainOpen + "int x = " + std::string(depth, '(') + "1" +
           std::string(depth, ')') + "; }";
}

std::string
binaryChain(int terms)
{
    std::string src = kMainOpen + "int x = 1";
    for (int i = 1; i < terms; ++i)
        src += "+1";
    return src + "; }";
}

std::string
nestedBlocks(int depth)
{
    return kMainOpen + std::string(depth, '{') + std::string(depth, '}') +
           " }";
}

void
expectTooDeep(const std::string &src, const char *shape)
{
    try {
        parse(src);
        ADD_FAILURE() << shape << ": expected CompileError";
    } catch (const CompileError &err) {
        EXPECT_EQ(err.line, 1) << shape;
        EXPECT_GT(err.col, static_cast<int>(kMainOpen.size())) << shape;
        EXPECT_NE(std::string(err.what()).find("nesting"),
                  std::string::npos)
            << shape << ": " << err.what();
    }
}

} // namespace

TEST(Parse, HundredThousandDeepSourceThrowsPositionedError)
{
    constexpr int kHostile = 100000;
    expectTooDeep(nestedParens(kHostile), "parentheses");
    expectTooDeep(binaryChain(kHostile), "binary chain");
    expectTooDeep(nestedBlocks(kHostile), "blocks");
}

TEST(Parse, NestingJustUnderTheBoundCompiles)
{
    // The statement and its expression hold a level each; stay a few
    // levels short of the bound.
    const int depth = kMaxNestingDepth - 4;
    EXPECT_NO_THROW(parseAndAnalyze(nestedParens(depth)));
    EXPECT_NO_THROW(parseAndAnalyze(binaryChain(depth)));
    EXPECT_NO_THROW(parseAndAnalyze(nestedBlocks(depth)));
}

TEST(Sema, RejectsUndeclared)
{
    EXPECT_THROW(parseAndAnalyze("void main(int n) { x = 1; }"),
                 CompileError);
    EXPECT_THROW(parseAndAnalyze("void main(int n) { int y = x + 1; }"),
                 CompileError);
}

TEST(Sema, ParentScalarsReadOnlyInsideForeach)
{
    const char *src = R"(
        void main(int n) {
          int total = 0;
          foreach (n) { int i =>
            total = total + i;
          };
        }
    )";
    try {
        parseAndAnalyze(src);
        FAIL() << "expected CompileError";
    } catch (const CompileError &err) {
        EXPECT_NE(std::string(err.what()).find("read-only"),
                  std::string::npos);
    }
}

TEST(Sema, ForeachReductionBindsResult)
{
    const char *src = R"(
        void main(int n) {
          int total = foreach (n) { int i =>
            return i * i;
          };
        }
    )";
    Program p = parseAndAnalyze(src);
    const auto &body = p.main()->bodyStmt->body;
    // Desugared into decl + foreach-with-result (inside a block).
    const Stmt *fe = nullptr;
    for (const auto &s : body) {
        const Stmt *cursor = s.get();
        if (cursor->kind == StmtKind::block && cursor->body.size() == 2)
            cursor = cursor->body[1].get();
        if (cursor->kind == StmtKind::foreachStmt)
            fe = cursor;
    }
    ASSERT_NE(fe, nullptr);
    EXPECT_GE(fe->resultSlot, 0);
}

TEST(Sema, IteratorRules)
{
    // Deref of a non-iterator is rejected.
    EXPECT_THROW(parseAndAnalyze("void main(int n) { int x = *n; }"),
                 CompileError);
    // Iterator arithmetic beyond `it += k` is rejected.
    EXPECT_THROW(parseAndAnalyze(R"(
        DRAM<int> d;
        void main(int n) {
          ReadIt<16> it(d, 0);
          it = it * 2;
        })"),
                 CompileError);
    // Iterators cannot cross foreach boundaries.
    EXPECT_THROW(parseAndAnalyze(R"(
        DRAM<int> d;
        void main(int n) {
          ReadIt<16> it(d, 0);
          foreach (n) { int i =>
            int x = *it;
          };
        })"),
                 CompileError);
}

TEST(Sema, AdapterCapabilityChecks)
{
    // Writing a ReadView is rejected (Table I).
    EXPECT_THROW(parseAndAnalyze(R"(
        DRAM<int> d;
        void main(int n) {
          ReadView<16> v(d, 0);
          v[0] = 1;
        })"),
                 CompileError);
    // Reading a WriteView is rejected.
    EXPECT_THROW(parseAndAnalyze(R"(
        DRAM<int> d;
        void main(int n) {
          WriteView<16> v(d, 0);
          int x = v[0];
        })"),
                 CompileError);
    // ModifyView allows both.
    EXPECT_NO_THROW(parseAndAnalyze(R"(
        DRAM<int> d;
        void main(int n) {
          ModifyView<16> v(d, 0);
          v[0] = v[1] + 1;
        })"));
}

TEST(Sema, InlinesUserFunctions)
{
    const char *src = R"(
        int square(int v) {
          int out = v * v;
          return out;
        }
        void main(int n) {
          int y = square(n) + square(3);
        }
    )";
    Program p = parseAndAnalyze(src);
    EXPECT_EQ(p.functions.size(), 1u) << "callees are inlined away";
    // Body should contain the inlined statements; dump sanity-check.
    std::string text = dump(*p.main());
    EXPECT_EQ(text.find("square("), std::string::npos);
}

TEST(Sema, RejectsRecursion)
{
    const char *src = R"(
        int f(int v) {
          int r = f(v - 1);
          return r;
        }
        void main(int n) { int x = f(n); }
    )";
    EXPECT_THROW(parseAndAnalyze(src), CompileError);
}

TEST(Sema, MinMaxBuiltins)
{
    Program p = parseAndAnalyze(
        "void main(int n) { int a = min(n, 3); int b = max(n, 3); }");
    std::string text = dump(*p.main());
    EXPECT_NE(text.find("?"), std::string::npos)
        << "min/max become selects";
}

TEST(Sema, FetchAddBuiltin)
{
    Program p = parseAndAnalyze(R"(
        void main(int n) {
          SRAM<int, 4> cell;
          int old = fetch_add(cell, 0, 1);
          int old2 = fetch_sub(cell, 0, 1);
        })");
    SUCCEED();
}

TEST(Sema, FetchAddRequiresSram)
{
    EXPECT_THROW(parseAndAnalyze(R"(
        void main(int n) {
          int x = 0;
          int old = fetch_add(x, 0, 1);
        })"),
                 CompileError);
}

TEST(Sema, ForkOnlyInDeclarations)
{
    EXPECT_NO_THROW(
        parseAndAnalyze("void main(int n) { int i = fork(n); }"));
    EXPECT_THROW(parseAndAnalyze("void main(int n) { int i = fork(n) + 1; }"),
                 CompileError);
}

TEST(Sema, TypePromotionAndCasts)
{
    Program p = parseAndAnalyze(R"(
        void main(int n) {
          char c = 200;
          int wide = c + 1;
          uint u = 3;
          bool flag = u < wide;
        })");
    SUCCEED();
}

TEST(Sema, WhileConditionMayNotCall)
{
    EXPECT_THROW(parseAndAnalyze(R"(
        int f(int v) { int r = v; return r; }
        void main(int n) {
          while (f(n)) { n = 0; }
        })"),
                 CompileError);
}

// ---------------------------------------------------------------------------
// dump() coverage: every ExprKind / StmtKind enumerator must render to
// non-empty text. The factories below use exhaustive switches with no
// default, so adding a new node kind without teaching both the factory
// and dump() about it fails the build under -Werror=switch instead of
// silently dumping an empty string (the atomicRmw/exprStmt regression).
// ---------------------------------------------------------------------------

#include "lang/ast.hh"

namespace
{

/** A function with enough named slots to exercise every node kind. */
Function
dumpFixture()
{
    Function fn;
    fn.name = "fixture";
    fn.returnType = Scalar::voidTy;

    SlotInfo x;
    x.name = "x";
    x.type = Scalar::i32;
    fn.addSlot(x); // slot 0: scalar

    SlotInfo acc;
    acc.name = "acc";
    acc.type = Scalar::i32;
    acc.adapter = AdapterKind::sram;
    acc.size = 16;
    fn.addSlot(acc); // slot 1: SRAM

    SlotInfo it;
    it.name = "it";
    it.type = Scalar::i8;
    it.adapter = AdapterKind::readIt;
    it.size = 64;
    it.dram = 0;
    fn.addSlot(it); // slot 2: read iterator

    return fn;
}

/** Build a representative expression of the given kind. */
ExprPtr
exprOfKind(ExprKind kind)
{
    switch (kind) {
      case ExprKind::intConst:
        return makeIntConst(42);
      case ExprKind::varRef:
        return makeVarRef(0, Scalar::i32);
      case ExprKind::unary:
        return makeUnary(UnOp::neg, makeIntConst(1), Scalar::i32);
      case ExprKind::binary:
        return makeBinary(BinOp::add, makeIntConst(1), makeIntConst(2),
                          Scalar::i32);
      case ExprKind::cond: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::cond;
        e->a = makeIntConst(1);
        e->b = makeIntConst(2);
        e->c = makeIntConst(3);
        return e;
      }
      case ExprKind::cast:
        return makeCast(makeIntConst(300), Scalar::i8);
      case ExprKind::indexRead: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::indexRead;
        e->slot = 1;
        e->a = makeIntConst(3);
        return e;
      }
      case ExprKind::derefIt: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::derefIt;
        e->slot = 2;
        return e;
      }
      case ExprKind::peekIt: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::peekIt;
        e->slot = 2;
        e->a = makeIntConst(1);
        return e;
      }
      case ExprKind::forkExpr: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::forkExpr;
        e->a = makeIntConst(4);
        return e;
      }
      case ExprKind::call: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::call;
        e->name = "helper";
        return e;
      }
      case ExprKind::atomicRmw: {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::atomicRmw;
        e->bop = BinOp::add;
        e->slot = 1;
        e->a = makeIntConst(0);
        e->b = makeIntConst(1);
        return e;
      }
    }
    return nullptr;
}

/** Build a representative statement of the given kind. */
StmtPtr
stmtOfKind(StmtKind kind)
{
    auto s = std::make_unique<Stmt>();
    s->kind = kind;
    switch (kind) {
      case StmtKind::block:
        // dump(block) prints only its children; give it one so the
        // non-empty assertion below is meaningful.
        s->body.push_back(stmtOfKind(StmtKind::exitStmt));
        return s;
      case StmtKind::varDecl:
        s->slot = 0;
        s->declType = Scalar::i32;
        s->value = makeIntConst(7);
        return s;
      case StmtKind::sramDecl:
        s->slot = 1;
        s->declType = Scalar::i32;
        s->size = 16;
        return s;
      case StmtKind::adapterDecl:
        s->slot = 2;
        s->adapter = AdapterKind::readIt;
        s->size = 64;
        s->dram = 0;
        s->value = makeIntConst(0);
        return s;
      case StmtKind::assign:
        s->slot = 0;
        s->value = makeIntConst(5);
        return s;
      case StmtKind::storeIndexed:
        s->slot = 1;
        s->index = makeIntConst(2);
        s->value = makeIntConst(9);
        return s;
      case StmtKind::storeDeref:
        s->slot = 2;
        s->value = makeIntConst(1);
        return s;
      case StmtKind::itAdvance:
        s->slot = 2;
        s->index = makeIntConst(1);
        return s;
      case StmtKind::exprStmt:
        s->value = exprOfKind(ExprKind::atomicRmw);
        return s;
      case StmtKind::ifStmt:
        s->value = makeIntConst(1);
        s->body.push_back(stmtOfKind(StmtKind::exitStmt));
        s->other.push_back(stmtOfKind(StmtKind::returnStmt));
        return s;
      case StmtKind::whileStmt:
        s->value = makeIntConst(1);
        s->body.push_back(stmtOfKind(StmtKind::exitStmt));
        return s;
      case StmtKind::foreachStmt:
        s->value = makeIntConst(8);
        s->extra = makeIntConst(2);
        s->ivSlot = 0;
        s->resultSlot = 0;
        s->body.push_back(stmtOfKind(StmtKind::exitStmt));
        return s;
      case StmtKind::replicateStmt:
        s->replicas = 4;
        s->body.push_back(stmtOfKind(StmtKind::exitStmt));
        return s;
      case StmtKind::returnStmt:
        s->value = makeIntConst(0);
        return s;
      case StmtKind::exitStmt:
        return s;
      case StmtKind::flushStmt:
        s->slot = 2;
        return s;
      case StmtKind::pragmaStmt:
        s->name = "eliminate_hierarchy";
        return s;
    }
    return s;
}

constexpr ExprKind allExprKinds[] = {
    ExprKind::intConst,  ExprKind::varRef,   ExprKind::unary,
    ExprKind::binary,    ExprKind::cond,     ExprKind::cast,
    ExprKind::indexRead, ExprKind::derefIt,  ExprKind::peekIt,
    ExprKind::forkExpr,  ExprKind::call,     ExprKind::atomicRmw,
};

constexpr StmtKind allStmtKinds[] = {
    StmtKind::block,         StmtKind::varDecl,
    StmtKind::sramDecl,      StmtKind::adapterDecl,
    StmtKind::assign,        StmtKind::storeIndexed,
    StmtKind::storeDeref,    StmtKind::itAdvance,
    StmtKind::exprStmt,      StmtKind::ifStmt,
    StmtKind::whileStmt,     StmtKind::foreachStmt,
    StmtKind::replicateStmt, StmtKind::returnStmt,
    StmtKind::exitStmt,      StmtKind::flushStmt,
    StmtKind::pragmaStmt,
};

} // namespace

TEST(AstDump, EveryExprKindRendersNonEmpty)
{
    Function fn = dumpFixture();
    for (ExprKind kind : allExprKinds) {
        ExprPtr e = exprOfKind(kind);
        ASSERT_TRUE(e) << "factory missing ExprKind "
                       << static_cast<int>(kind);
        EXPECT_FALSE(dump(*e, fn).empty())
            << "dump() empty for ExprKind " << static_cast<int>(kind);
    }
}

TEST(AstDump, EveryStmtKindRendersNonEmpty)
{
    Function fn = dumpFixture();
    for (StmtKind kind : allStmtKinds) {
        StmtPtr s = stmtOfKind(kind);
        ASSERT_TRUE(s) << "factory missing StmtKind "
                       << static_cast<int>(kind);
        EXPECT_FALSE(dump(*s, fn, 0).empty())
            << "dump() empty for StmtKind " << static_cast<int>(kind);
    }
}

TEST(AstDump, AtomicRmwRendersAsFetchCall)
{
    Function fn = dumpFixture();
    ExprPtr add = exprOfKind(ExprKind::atomicRmw);
    EXPECT_EQ(dump(*add, fn), "fetch_add(acc#1[0], 1)");

    ExprPtr sub = exprOfKind(ExprKind::atomicRmw);
    sub->bop = BinOp::sub;
    EXPECT_EQ(dump(*sub, fn), "fetch_sub(acc#1[0], 1)");
}

TEST(AstDump, ExprStmtRendersWithIndentAndSemicolon)
{
    Function fn = dumpFixture();
    StmtPtr s = stmtOfKind(StmtKind::exprStmt);
    EXPECT_EQ(dump(*s, fn, 2), "    fetch_add(acc#1[0], 1);\n");
}

TEST(AstDump, ExprStmtSurvivesInFunctionDump)
{
    Function fn = dumpFixture();
    auto body = std::make_unique<Stmt>();
    body->kind = StmtKind::block;
    body->body.push_back(stmtOfKind(StmtKind::exprStmt));
    fn.bodyStmt = std::move(body);
    std::string text = dump(fn);
    EXPECT_NE(text.find("fetch_add(acc#1[0], 1);"), std::string::npos)
        << text;
}
