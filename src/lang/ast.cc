#include "lang/ast.hh"

#include <sstream>

namespace revet
{
namespace lang
{

std::string
toString(BinOp op)
{
    switch (op) {
      case BinOp::add: return "+";
      case BinOp::sub: return "-";
      case BinOp::mul: return "*";
      case BinOp::div: return "/";
      case BinOp::rem: return "%";
      case BinOp::bitAnd: return "&";
      case BinOp::bitOr: return "|";
      case BinOp::bitXor: return "^";
      case BinOp::shl: return "<<";
      case BinOp::shr: return ">>";
      case BinOp::eq: return "==";
      case BinOp::ne: return "!=";
      case BinOp::lt: return "<";
      case BinOp::le: return "<=";
      case BinOp::gt: return ">";
      case BinOp::ge: return ">=";
      case BinOp::logicalAnd: return "&&";
      case BinOp::logicalOr: return "||";
    }
    return "?";
}

ExprPtr
Expr::clone() const
{
    auto out = std::make_unique<Expr>();
    out->kind = kind;
    out->type = type;
    out->line = line;
    out->col = col;
    out->intValue = intValue;
    out->name = name;
    out->slot = slot;
    out->dram = dram;
    out->bop = bop;
    out->uop = uop;
    if (a)
        out->a = a->clone();
    if (b)
        out->b = b->clone();
    if (c)
        out->c = c->clone();
    for (const auto &arg : args)
        out->args.push_back(arg->clone());
    return out;
}

StmtPtr
Stmt::clone() const
{
    auto out = std::make_unique<Stmt>();
    out->kind = kind;
    out->line = line;
    out->col = col;
    for (const auto &s : body)
        out->body.push_back(s->clone());
    for (const auto &s : other)
        out->other.push_back(s->clone());
    if (value)
        out->value = value->clone();
    if (index)
        out->index = index->clone();
    if (extra)
        out->extra = extra->clone();
    if (guard)
        out->guard = guard->clone();
    out->name = name;
    out->slot = slot;
    out->dram = dram;
    out->declType = declType;
    out->adapter = adapter;
    out->size = size;
    out->ivSlot = ivSlot;
    out->resultSlot = resultSlot;
    out->pragmas = pragmas;
    out->replicas = replicas;
    return out;
}

Function *
Program::main() const
{
    for (const auto &fn : functions) {
        if (fn->name == "main")
            return fn.get();
    }
    return nullptr;
}

int
Program::dramId(const std::string &name) const
{
    for (size_t i = 0; i < drams.size(); ++i) {
        if (drams[i].name == name)
            return static_cast<int>(i);
    }
    return -1;
}

ExprPtr
makeIntConst(int64_t value, Scalar type)
{
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::intConst;
    e->intValue = value;
    e->type = type;
    return e;
}

ExprPtr
makeVarRef(int slot, Scalar type)
{
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::varRef;
    e->slot = slot;
    e->type = type;
    return e;
}

ExprPtr
makeBinary(BinOp op, ExprPtr a, ExprPtr b, Scalar type)
{
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::binary;
    e->bop = op;
    e->a = std::move(a);
    e->b = std::move(b);
    e->type = type;
    return e;
}

ExprPtr
makeUnary(UnOp op, ExprPtr a, Scalar type)
{
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::unary;
    e->uop = op;
    e->a = std::move(a);
    e->type = type;
    return e;
}

ExprPtr
makeCast(ExprPtr a, Scalar type)
{
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::cast;
    e->a = std::move(a);
    e->type = type;
    return e;
}

StmtPtr
makeBlock(std::vector<StmtPtr> stmts)
{
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::block;
    s->body = std::move(stmts);
    return s;
}

StmtPtr
makeAssign(int slot, ExprPtr value)
{
    auto s = std::make_unique<Stmt>();
    s->kind = StmtKind::assign;
    s->slot = slot;
    s->value = std::move(value);
    return s;
}

namespace
{

std::string
slotName(const Function &fn, int slot)
{
    if (slot < 0 || slot >= static_cast<int>(fn.slots.size()))
        return "slot" + std::to_string(slot);
    const auto &info = fn.slots[slot];
    return info.name.empty() ? ("t" + std::to_string(slot))
                             : (info.name + "#" + std::to_string(slot));
}

} // namespace

std::string
dump(const Expr &expr, const Function &fn)
{
    std::ostringstream os;
    switch (expr.kind) {
      case ExprKind::intConst:
        os << expr.intValue;
        break;
      case ExprKind::varRef:
        os << slotName(fn, expr.slot);
        break;
      case ExprKind::unary:
        os << (expr.uop == UnOp::neg      ? "-"
               : expr.uop == UnOp::logNot ? "!"
                                          : "~")
           << "(" << dump(*expr.a, fn) << ")";
        break;
      case ExprKind::binary:
        os << "(" << dump(*expr.a, fn) << " " << toString(expr.bop) << " "
           << dump(*expr.b, fn) << ")";
        break;
      case ExprKind::cond:
        os << "(" << dump(*expr.a, fn) << " ? " << dump(*expr.b, fn)
           << " : " << dump(*expr.c, fn) << ")";
        break;
      case ExprKind::cast:
        os << "(" << toString(expr.type) << ")(" << dump(*expr.a, fn)
           << ")";
        break;
      case ExprKind::indexRead:
        os << (expr.dram >= 0 ? ("dram" + std::to_string(expr.dram))
                              : slotName(fn, expr.slot))
           << "[" << dump(*expr.a, fn) << "]";
        break;
      case ExprKind::derefIt:
        os << "*" << slotName(fn, expr.slot);
        break;
      case ExprKind::peekIt:
        os << slotName(fn, expr.slot) << ".peek(" << dump(*expr.a, fn)
           << ")";
        break;
      case ExprKind::forkExpr:
        os << "fork(" << dump(*expr.a, fn) << ")";
        break;
      case ExprKind::call:
        os << expr.name << "(...)";
        break;
      case ExprKind::atomicRmw:
        os << (expr.bop == BinOp::sub ? "fetch_sub" : "fetch_add") << "("
           << slotName(fn, expr.slot) << "[" << dump(*expr.a, fn)
           << "], " << dump(*expr.b, fn) << ")";
        break;
    }
    return os.str();
}

std::string
dump(const Stmt &stmt, const Function &fn, int indent)
{
    std::string pad(indent * 2, ' ');
    std::ostringstream os;
    auto dumpBody = [&](const std::vector<StmtPtr> &body) {
        for (const auto &s : body)
            os << dump(*s, fn, indent + 1);
    };
    switch (stmt.kind) {
      case StmtKind::block:
        dumpBody(stmt.body);
        break;
      case StmtKind::varDecl:
        os << pad << toString(stmt.declType) << " "
           << slotName(fn, stmt.slot);
        if (stmt.value)
            os << " = " << dump(*stmt.value, fn);
        os << ";\n";
        break;
      case StmtKind::sramDecl:
        os << pad << "SRAM<" << toString(stmt.declType) << ", "
           << stmt.size << "> " << slotName(fn, stmt.slot) << ";\n";
        break;
      case StmtKind::adapterDecl:
        os << pad << toString(stmt.adapter) << "<" << stmt.size << "> "
           << slotName(fn, stmt.slot) << "(dram" << stmt.dram << ", "
           << dump(*stmt.value, fn) << ");\n";
        break;
      case StmtKind::assign:
        os << pad << slotName(fn, stmt.slot) << " = "
           << dump(*stmt.value, fn) << ";\n";
        break;
      case StmtKind::storeIndexed:
        os << pad
           << (stmt.dram >= 0 ? ("dram" + std::to_string(stmt.dram))
                              : slotName(fn, stmt.slot))
           << "[" << dump(*stmt.index, fn)
           << "] = " << dump(*stmt.value, fn) << ";\n";
        break;
      case StmtKind::storeDeref:
        os << pad << "*" << slotName(fn, stmt.slot) << " = "
           << dump(*stmt.value, fn) << ";\n";
        break;
      case StmtKind::itAdvance:
        os << pad << slotName(fn, stmt.slot) << " += "
           << dump(*stmt.index, fn) << ";\n";
        break;
      case StmtKind::exprStmt:
        os << pad << dump(*stmt.value, fn) << ";\n";
        break;
      case StmtKind::ifStmt:
        os << pad << "if (" << dump(*stmt.value, fn) << ") {\n";
        dumpBody(stmt.body);
        if (!stmt.other.empty()) {
            os << pad << "} else {\n";
            dumpBody(stmt.other);
        }
        os << pad << "}\n";
        break;
      case StmtKind::whileStmt:
        os << pad << "while (" << dump(*stmt.value, fn) << ") {\n";
        dumpBody(stmt.body);
        os << pad << "}\n";
        break;
      case StmtKind::foreachStmt:
        os << pad;
        if (stmt.resultSlot >= 0)
            os << slotName(fn, stmt.resultSlot) << " = ";
        os << "foreach (" << dump(*stmt.value, fn);
        if (stmt.extra)
            os << " by " << dump(*stmt.extra, fn);
        os << ") { " << slotName(fn, stmt.ivSlot) << " =>\n";
        dumpBody(stmt.body);
        os << pad << "}\n";
        break;
      case StmtKind::replicateStmt:
        os << pad << "replicate (" << stmt.replicas << ") {\n";
        dumpBody(stmt.body);
        os << pad << "}\n";
        break;
      case StmtKind::returnStmt:
        os << pad << "return";
        if (stmt.value)
            os << " " << dump(*stmt.value, fn);
        os << ";\n";
        break;
      case StmtKind::exitStmt:
        os << pad << "exit();\n";
        break;
      case StmtKind::flushStmt:
        os << pad << "flush(" << slotName(fn, stmt.slot) << ");\n";
        break;
      case StmtKind::pragmaStmt:
        os << pad << "pragma(" << stmt.name << ");\n";
        break;
    }
    return os.str();
}

std::string
dump(const Function &fn)
{
    std::ostringstream os;
    os << toString(fn.returnType) << " " << fn.name << "(";
    for (size_t i = 0; i < fn.paramSlots.size(); ++i) {
        if (i)
            os << ", ";
        os << toString(fn.slots[fn.paramSlots[i]].type) << " "
           << fn.slots[fn.paramSlots[i]].name;
    }
    os << ") {\n" << dump(*fn.bodyStmt, fn, 1) << "}\n";
    return os.str();
}

} // namespace lang
} // namespace revet
