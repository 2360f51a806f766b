#include "lang/parse.hh"

#include "lang/sema.hh"

namespace revet
{
namespace lang
{

namespace
{

class Parser
{
  public:
    explicit Parser(std::vector<Lexeme> toks) : toks_(std::move(toks)) {}

    Program
    parseProgram()
    {
        Program prog;
        while (peek().kind != Tok::eof) {
            if (peek().kind == Tok::kwDram) {
                prog.drams.push_back(parseDramDecl());
            } else {
                prog.functions.push_back(parseFunction());
            }
        }
        return prog;
    }

  private:
    /** Holds one level of AST nesting (kMaxNestingDepth) for its
     * lifetime. */
    class Nest
    {
      public:
        explicit Nest(Parser &parser) : parser_(parser) { parser_.deeper(); }
        ~Nest() { --parser_.depth_; }
        Nest(const Nest &) = delete;
        Nest &operator=(const Nest &) = delete;

      private:
        Parser &parser_;
    };

    /** Enter one more nesting level, or throw at the next token once
     * the bound is reached. */
    void
    deeper()
    {
        if (depth_ >= kMaxNestingDepth) {
            throw CompileError("nesting deeper than " +
                                   std::to_string(kMaxNestingDepth) +
                                   " levels",
                               peek().line, peek().col);
        }
        ++depth_;
    }

    const Lexeme &peek(int ahead = 0) const
    {
        size_t i = pos_ + ahead;
        return i < toks_.size() ? toks_[i] : toks_.back();
    }

    const Lexeme &
    advance()
    {
        const Lexeme &lx = toks_[pos_];
        if (pos_ + 1 < toks_.size())
            ++pos_;
        return lx;
    }

    bool
    accept(Tok kind)
    {
        if (peek().kind == kind) {
            advance();
            return true;
        }
        return false;
    }

    const Lexeme &
    expect(Tok kind, const std::string &ctx)
    {
        if (peek().kind != kind) {
            throw CompileError("expected " + tokName(kind) + " in " + ctx +
                                   ", found " + tokName(peek().kind),
                               peek().line, peek().col);
        }
        return advance();
    }

    [[noreturn]] void
    fail(const std::string &msg)
    {
        throw CompileError(msg + " (found " + tokName(peek().kind) + ")",
                           peek().line, peek().col);
    }

    static bool
    isScalarTypeTok(Tok kind)
    {
        switch (kind) {
          case Tok::kwVoid:
          case Tok::kwInt:
          case Tok::kwUint:
          case Tok::kwChar:
          case Tok::kwUchar:
          case Tok::kwShort:
          case Tok::kwUshort:
          case Tok::kwBool:
            return true;
          default:
            return false;
        }
    }

    Scalar
    parseScalarType()
    {
        switch (advance().kind) {
          case Tok::kwVoid: return Scalar::voidTy;
          case Tok::kwInt: return Scalar::i32;
          case Tok::kwUint: return Scalar::u32;
          case Tok::kwChar: return Scalar::i8;
          case Tok::kwUchar: return Scalar::u8;
          case Tok::kwShort: return Scalar::i16;
          case Tok::kwUshort: return Scalar::u16;
          case Tok::kwBool: return Scalar::boolTy;
          default:
            fail("expected a scalar type");
        }
    }

    DramDecl
    parseDramDecl()
    {
        expect(Tok::kwDram, "DRAM declaration");
        expect(Tok::lt, "DRAM declaration");
        DramDecl decl;
        decl.elem = parseScalarType();
        expect(Tok::gt, "DRAM declaration");
        decl.name = expect(Tok::ident, "DRAM declaration").text;
        expect(Tok::semi, "DRAM declaration");
        return decl;
    }

    std::unique_ptr<Function>
    parseFunction()
    {
        auto fn = std::make_unique<Function>();
        fn->returnType = parseScalarType();
        fn->name = expect(Tok::ident, "function").text;
        expect(Tok::lparen, "function parameters");
        if (peek().kind != Tok::rparen) {
            do {
                Scalar type = parseScalarType();
                std::string name =
                    expect(Tok::ident, "function parameter").text;
                SlotInfo info;
                info.name = name;
                info.type = type;
                fn->paramSlots.push_back(fn->addSlot(std::move(info)));
            } while (accept(Tok::comma));
        }
        expect(Tok::rparen, "function parameters");
        fn->bodyStmt = parseBlock();
        return fn;
    }

    StmtPtr
    parseBlock()
    {
        expect(Tok::lbrace, "block");
        std::vector<StmtPtr> stmts;
        while (peek().kind != Tok::rbrace)
            stmts.push_back(parseStmt());
        expect(Tok::rbrace, "block");
        accept(Tok::semi); // the paper's examples write `};`
        return makeBlock(std::move(stmts));
    }

    StmtPtr
    newStmt(StmtKind kind)
    {
        auto s = std::make_unique<Stmt>();
        s->kind = kind;
        s->line = peek().line;
        s->col = peek().col;
        return s;
    }

    StmtPtr
    parseStmt()
    {
        Nest nest(*this);
        switch (peek().kind) {
          case Tok::lbrace:
            return parseBlock();
          case Tok::kwIf:
            return parseIf();
          case Tok::kwWhile:
            return parseWhile();
          case Tok::kwForeach:
            return parseForeach(/*resultDecl=*/Scalar::invalid, "");
          case Tok::kwReplicate:
            return parseReplicate();
          case Tok::kwReturn: {
            auto s = newStmt(StmtKind::returnStmt);
            advance();
            if (peek().kind != Tok::semi)
                s->value = parseExpr();
            expect(Tok::semi, "return");
            return s;
          }
          case Tok::kwExit: {
            auto s = newStmt(StmtKind::exitStmt);
            advance();
            expect(Tok::lparen, "exit");
            expect(Tok::rparen, "exit");
            expect(Tok::semi, "exit");
            return s;
          }
          case Tok::kwFlush: {
            auto s = newStmt(StmtKind::flushStmt);
            advance();
            expect(Tok::lparen, "flush");
            s->name = expect(Tok::ident, "flush").text;
            expect(Tok::rparen, "flush");
            expect(Tok::semi, "flush");
            return s;
          }
          case Tok::kwPragma: {
            auto s = newStmt(StmtKind::pragmaStmt);
            advance();
            expect(Tok::lparen, "pragma");
            s->name = expect(Tok::ident, "pragma").text;
            Pragma pragma;
            pragma.name = s->name;
            if (accept(Tok::comma))
                pragma.value = expect(Tok::intLit, "pragma").value;
            s->pragmas.push_back(pragma);
            expect(Tok::rparen, "pragma");
            expect(Tok::semi, "pragma");
            return s;
          }
          case Tok::kwSram:
            return parseSramDecl();
          case Tok::kwReadView:
          case Tok::kwWriteView:
          case Tok::kwModifyView:
          case Tok::kwReadIt:
          case Tok::kwPeekReadIt:
          case Tok::kwWriteIt:
          case Tok::kwManualWriteIt:
            return parseAdapterDecl();
          case Tok::star:
            return parseDerefStore();
          default:
            break;
        }
        if (isScalarTypeTok(peek().kind))
            return parseVarDecl();
        if (peek().kind == Tok::ident)
            return parseAssignLike();
        fail("expected a statement");
    }

    StmtPtr
    parseIf()
    {
        auto s = newStmt(StmtKind::ifStmt);
        advance();
        expect(Tok::lparen, "if");
        s->value = parseExpr();
        expect(Tok::rparen, "if");
        auto then = parseBlock();
        s->body = std::move(then->body);
        if (accept(Tok::kwElse)) {
            if (peek().kind == Tok::kwIf) {
                Nest nest(*this);
                s->other.push_back(parseIf());
            } else {
                auto els = parseBlock();
                s->other = std::move(els->body);
            }
        }
        return s;
    }

    StmtPtr
    parseWhile()
    {
        auto s = newStmt(StmtKind::whileStmt);
        advance();
        expect(Tok::lparen, "while");
        s->value = parseExpr();
        expect(Tok::rparen, "while");
        auto body = parseBlock();
        s->body = std::move(body->body);
        return s;
    }

    StmtPtr
    parseForeach(Scalar result_type, const std::string &result_name)
    {
        auto s = newStmt(StmtKind::foreachStmt);
        advance();
        expect(Tok::lparen, "foreach");
        s->value = parseExpr();
        if (accept(Tok::kwBy))
            s->extra = parseExpr();
        expect(Tok::rparen, "foreach");
        expect(Tok::lbrace, "foreach body");
        // Induction variable: `int idx =>`.
        s->declType = parseScalarType();
        s->name = expect(Tok::ident, "foreach induction variable").text;
        expect(Tok::arrow, "foreach");
        std::vector<StmtPtr> stmts;
        while (peek().kind != Tok::rbrace)
            stmts.push_back(parseStmt());
        expect(Tok::rbrace, "foreach body");
        accept(Tok::semi);
        s->body = std::move(stmts);
        // Reduction result, if this foreach initializes a declaration:
        // desugar `int x = foreach ...` to `int x; foreach-into-x ...`.
        if (result_type != Scalar::invalid) {
            auto decl = newStmt(StmtKind::varDecl);
            decl->declType = result_type;
            decl->name = result_name;
            s->resultSlot = -2; // sema binds via the pragma below
            s->pragmas.push_back({"__result:" + result_name, 0});
            std::vector<StmtPtr> pair;
            pair.push_back(std::move(decl));
            pair.push_back(std::move(s));
            auto blk = makeBlock(std::move(pair));
            blk->name = "__splice"; // sema inlines into the parent scope
            return blk;
        }
        return s;
    }

    StmtPtr
    parseReplicate()
    {
        auto s = newStmt(StmtKind::replicateStmt);
        advance();
        expect(Tok::lparen, "replicate");
        s->replicas = expect(Tok::intLit, "replicate factor").value;
        expect(Tok::rparen, "replicate");
        auto body = parseBlock();
        s->body = std::move(body->body);
        return s;
    }

    StmtPtr
    parseSramDecl()
    {
        auto s = newStmt(StmtKind::sramDecl);
        advance();
        expect(Tok::lt, "SRAM declaration");
        s->declType = parseScalarType();
        expect(Tok::comma, "SRAM declaration");
        s->size = expect(Tok::intLit, "SRAM size").value;
        expect(Tok::gt, "SRAM declaration");
        s->name = expect(Tok::ident, "SRAM declaration").text;
        expect(Tok::semi, "SRAM declaration");
        return s;
    }

    StmtPtr
    parseAdapterDecl()
    {
        auto s = newStmt(StmtKind::adapterDecl);
        switch (advance().kind) {
          case Tok::kwReadView: s->adapter = AdapterKind::readView; break;
          case Tok::kwWriteView: s->adapter = AdapterKind::writeView; break;
          case Tok::kwModifyView:
            s->adapter = AdapterKind::modifyView;
            break;
          case Tok::kwReadIt: s->adapter = AdapterKind::readIt; break;
          case Tok::kwPeekReadIt:
            s->adapter = AdapterKind::peekReadIt;
            break;
          case Tok::kwWriteIt: s->adapter = AdapterKind::writeIt; break;
          case Tok::kwManualWriteIt:
            s->adapter = AdapterKind::manualWriteIt;
            break;
          default:
            fail("bad adapter");
        }
        expect(Tok::lt, "adapter declaration");
        s->size = expect(Tok::intLit, "adapter size").value;
        expect(Tok::gt, "adapter declaration");
        std::string var = expect(Tok::ident, "adapter declaration").text;
        expect(Tok::lparen, "adapter declaration");
        s->name = var;
        // Backing DRAM global name goes in a pragma-ish holder: use
        // `index` for the base expression and keep the dram name in
        // `pragmas` (sema resolves it to s->dram).
        std::string dram_name =
            expect(Tok::ident, "adapter DRAM argument").text;
        s->pragmas.push_back({"__dram:" + dram_name, 0});
        expect(Tok::comma, "adapter declaration");
        s->value = parseExpr();
        expect(Tok::rparen, "adapter declaration");
        expect(Tok::semi, "adapter declaration");
        return s;
    }

    StmtPtr
    parseDerefStore()
    {
        auto s = newStmt(StmtKind::storeDeref);
        advance(); // '*'
        s->name = expect(Tok::ident, "iterator store").text;
        expect(Tok::assign, "iterator store");
        s->value = parseExpr();
        expect(Tok::semi, "iterator store");
        return s;
    }

    StmtPtr
    parseVarDecl()
    {
        Scalar type = parseScalarType();
        std::string name = expect(Tok::ident, "declaration").text;
        if (peek().kind == Tok::assign && peek(1).kind == Tok::kwForeach) {
            advance(); // '='
            return parseForeach(type, name);
        }
        auto s = newStmt(StmtKind::varDecl);
        s->declType = type;
        s->name = name;
        if (accept(Tok::assign))
            s->value = parseExpr();
        expect(Tok::semi, "declaration");
        return s;
    }

    /** ident = / op= / ++ / -- / [idx] = ... */
    StmtPtr
    parseAssignLike()
    {
        // Call statement (e.g. `fetch_add(acc, i, 1);`).
        if (peek().kind == Tok::ident && peek(1).kind == Tok::lparen) {
            auto s = newStmt(StmtKind::exprStmt);
            s->value = parsePrimary();
            expect(Tok::semi, "call statement");
            return s;
        }
        std::string name = expect(Tok::ident, "statement").text;

        auto nameRef = [&]() {
            auto e = std::make_unique<Expr>();
            e->kind = ExprKind::varRef;
            e->name = name;
            return e;
        };

        if (peek().kind == Tok::lbracket) {
            advance();
            auto s = newStmt(StmtKind::storeIndexed);
            s->name = name;
            s->index = parseExpr();
            expect(Tok::rbracket, "indexed store");
            BinOp op{};
            bool compound = true;
            switch (peek().kind) {
              case Tok::assign: compound = false; break;
              case Tok::plusAssign: op = BinOp::add; break;
              case Tok::minusAssign: op = BinOp::sub; break;
              case Tok::pipeAssign: op = BinOp::bitOr; break;
              case Tok::ampAssign: op = BinOp::bitAnd; break;
              case Tok::caretAssign: op = BinOp::bitXor; break;
              default:
                fail("expected assignment to indexed location");
            }
            advance();
            auto rhs = parseExpr();
            if (compound) {
                auto read = std::make_unique<Expr>();
                read->kind = ExprKind::indexRead;
                read->name = name;
                read->a = s->index->clone();
                auto combined = std::make_unique<Expr>();
                combined->kind = ExprKind::binary;
                combined->bop = op;
                combined->a = std::move(read);
                combined->b = std::move(rhs);
                s->value = std::move(combined);
            } else {
                s->value = std::move(rhs);
            }
            expect(Tok::semi, "indexed store");
            return s;
        }

        auto s = newStmt(StmtKind::assign);
        s->name = name;
        BinOp op{};
        bool compound = true;
        switch (peek().kind) {
          case Tok::assign: compound = false; break;
          case Tok::plusAssign: op = BinOp::add; break;
          case Tok::minusAssign: op = BinOp::sub; break;
          case Tok::starAssign: op = BinOp::mul; break;
          case Tok::ampAssign: op = BinOp::bitAnd; break;
          case Tok::pipeAssign: op = BinOp::bitOr; break;
          case Tok::caretAssign: op = BinOp::bitXor; break;
          case Tok::shlAssign: op = BinOp::shl; break;
          case Tok::shrAssign: op = BinOp::shr; break;
          case Tok::plusplus:
          case Tok::minusminus: {
            bool inc = peek().kind == Tok::plusplus;
            advance();
            expect(Tok::semi, "increment");
            auto combined = std::make_unique<Expr>();
            combined->kind = ExprKind::binary;
            combined->bop = inc ? BinOp::add : BinOp::sub;
            combined->a = nameRef();
            combined->b = makeIntConst(1);
            s->value = std::move(combined);
            return s;
          }
          default:
            fail("expected assignment");
        }
        advance();
        auto rhs = parseExpr();
        if (compound) {
            auto combined = std::make_unique<Expr>();
            combined->kind = ExprKind::binary;
            combined->bop = op;
            combined->a = nameRef();
            combined->b = std::move(rhs);
            s->value = std::move(combined);
        } else {
            s->value = std::move(rhs);
        }
        expect(Tok::semi, "assignment");
        return s;
    }

    // ---- expressions ----------------------------------------------------

    ExprPtr
    newExpr(ExprKind kind)
    {
        auto e = std::make_unique<Expr>();
        e->kind = kind;
        e->line = peek().line;
        e->col = peek().col;
        return e;
    }

    ExprPtr
    parseExpr()
    {
        Nest nest(*this);
        return parseTernary();
    }

    ExprPtr
    parseTernary()
    {
        auto cond = parseBinary(0);
        if (!accept(Tok::question))
            return cond;
        auto e = newExpr(ExprKind::cond);
        e->a = std::move(cond);
        e->b = parseExpr();
        expect(Tok::colon, "conditional expression");
        e->c = parseExpr();
        return e;
    }

    struct OpInfo
    {
        BinOp op;
        int prec;
    };

    static bool
    binOpInfo(Tok kind, OpInfo &info)
    {
        switch (kind) {
          case Tok::star: info = {BinOp::mul, 10}; return true;
          case Tok::slash: info = {BinOp::div, 10}; return true;
          case Tok::percent: info = {BinOp::rem, 10}; return true;
          case Tok::plus: info = {BinOp::add, 9}; return true;
          case Tok::minus: info = {BinOp::sub, 9}; return true;
          case Tok::shl: info = {BinOp::shl, 8}; return true;
          case Tok::shr: info = {BinOp::shr, 8}; return true;
          case Tok::lt: info = {BinOp::lt, 7}; return true;
          case Tok::le: info = {BinOp::le, 7}; return true;
          case Tok::gt: info = {BinOp::gt, 7}; return true;
          case Tok::ge: info = {BinOp::ge, 7}; return true;
          case Tok::eq: info = {BinOp::eq, 6}; return true;
          case Tok::ne: info = {BinOp::ne, 6}; return true;
          case Tok::amp: info = {BinOp::bitAnd, 5}; return true;
          case Tok::caret: info = {BinOp::bitXor, 4}; return true;
          case Tok::pipe: info = {BinOp::bitOr, 3}; return true;
          case Tok::andand: info = {BinOp::logicalAnd, 2}; return true;
          case Tok::oror: info = {BinOp::logicalOr, 1}; return true;
          default:
            return false;
        }
    }

    ExprPtr
    parseBinary(int min_prec)
    {
        auto lhs = parseUnary();
        // Each operator nests the chain built so far one level deeper.
        const int outer = depth_;
        OpInfo info;
        while (binOpInfo(peek().kind, info) && info.prec >= min_prec) {
            deeper();
            advance();
            auto rhs = parseBinary(info.prec + 1);
            auto e = std::make_unique<Expr>();
            e->kind = ExprKind::binary;
            e->bop = info.op;
            e->a = std::move(lhs);
            e->b = std::move(rhs);
            lhs = std::move(e);
        }
        depth_ = outer;
        return lhs;
    }

    /** The operand of a prefix operator: one nesting level deeper. */
    ExprPtr
    parseOperand()
    {
        Nest nest(*this);
        return parseUnary();
    }

    ExprPtr
    parseUnary()
    {
        if (accept(Tok::minus)) {
            auto e = newExpr(ExprKind::unary);
            e->uop = UnOp::neg;
            e->a = parseOperand();
            return e;
        }
        if (accept(Tok::bang)) {
            auto e = newExpr(ExprKind::unary);
            e->uop = UnOp::logNot;
            e->a = parseOperand();
            return e;
        }
        if (accept(Tok::tilde)) {
            auto e = newExpr(ExprKind::unary);
            e->uop = UnOp::bitNot;
            e->a = parseOperand();
            return e;
        }
        if (accept(Tok::star)) {
            auto e = newExpr(ExprKind::derefIt);
            e->name = expect(Tok::ident, "iterator dereference").text;
            return e;
        }
        return parsePrimary();
    }

    ExprPtr
    parsePrimary()
    {
        const Lexeme &lx = peek();
        switch (lx.kind) {
          case Tok::intLit:
          case Tok::charLit: {
            advance();
            return makeIntConst(lx.value);
          }
          case Tok::kwTrue: {
            advance();
            return makeIntConst(1, Scalar::boolTy);
          }
          case Tok::kwFalse: {
            advance();
            return makeIntConst(0, Scalar::boolTy);
          }
          case Tok::lparen: {
            advance();
            auto e = parseExpr();
            expect(Tok::rparen, "parenthesized expression");
            return e;
          }
          case Tok::kwFork: {
            advance();
            auto e = newExpr(ExprKind::forkExpr);
            expect(Tok::lparen, "fork");
            e->a = parseExpr();
            expect(Tok::rparen, "fork");
            return e;
          }
          case Tok::ident: {
            advance();
            if (peek().kind == Tok::lbracket) {
                advance();
                auto e = newExpr(ExprKind::indexRead);
                e->name = lx.text;
                e->a = parseExpr();
                expect(Tok::rbracket, "index expression");
                return e;
            }
            if (peek().kind == Tok::lparen) {
                advance();
                auto e = newExpr(ExprKind::call);
                e->name = lx.text;
                if (peek().kind != Tok::rparen) {
                    do {
                        e->args.push_back(parseExpr());
                    } while (accept(Tok::comma));
                }
                expect(Tok::rparen, "call");
                return e;
            }
            auto e = newExpr(ExprKind::varRef);
            e->name = lx.text;
            return e;
          }
          default:
            fail("expected an expression");
        }
    }

    std::vector<Lexeme> toks_;
    size_t pos_ = 0;
    int depth_ = 0; ///< open nesting levels (see kMaxNestingDepth)
};

} // namespace

Program
parse(const std::string &source)
{
    Parser parser(lex(source));
    return parser.parseProgram();
}

Program
parseAndAnalyze(const std::string &source)
{
    Program prog = parse(source);
    analyze(prog);
    return prog;
}

} // namespace lang
} // namespace revet
