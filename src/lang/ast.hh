/**
 * @file
 * AST / high-level IR for the Revet language.
 *
 * The parser produces this tree with names; semantic analysis resolves
 * names to numbered variable slots and annotates types in place. The same
 * tree then serves as the high-level IR that the Section V passes rewrite
 * (views/iterators lowered to SRAM + scalars, hierarchy elimination,
 * if-to-select, ...), so there is no separate AST->IR translation layer.
 * Local variables are storage cells ("slots"), not SSA values; the
 * CFG-to-dataflow lowering performs liveness analysis over slots to build
 * thread bundles, mirroring the paper's "threads are sets of live values"
 * model.
 */

#ifndef REVET_LANG_AST_HH
#define REVET_LANG_AST_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lang/type.hh"

namespace revet
{
namespace lang
{

struct Expr;
struct Stmt;
using ExprPtr = std::unique_ptr<Expr>;
using StmtPtr = std::unique_ptr<Stmt>;

enum class BinOp
{
    add, sub, mul, div, rem,
    bitAnd, bitOr, bitXor, shl, shr,
    eq, ne, lt, le, gt, ge,
    logicalAnd, logicalOr,
};

std::string toString(BinOp op);

enum class UnOp
{
    neg,    ///< arithmetic negation
    logNot, ///< logical not (!x)
    bitNot, ///< bitwise complement (~x)
};

enum class ExprKind
{
    intConst,  ///< integer literal
    varRef,    ///< scalar variable read
    unary,     ///< unary op on a
    binary,    ///< binary op on a, b
    cond,      ///< ternary a ? b : c
    cast,      ///< explicit or sema-inserted conversion to `type`
    indexRead, ///< name[idx]: SRAM / view / DRAM-global element read
    derefIt,   ///< *it (read iterators)
    peekIt,    ///< it[k] (PeekReadIt: peek k elements ahead)
    forkExpr,  ///< fork(n): duplicate the thread n ways, yields index
    call,      ///< user-function call (inlined by sema)
    atomicRmw, ///< fetch_add/fetch_sub on an SRAM cell; yields old value
};

/** Expression node. `type` and `slot` are filled by sema. */
struct Expr
{
    ExprKind kind;
    Scalar type = Scalar::invalid;
    int line = 0;
    int col = 0;

    int64_t intValue = 0;  ///< intConst
    std::string name;      ///< varRef/indexRead/call target name
    int slot = -1;         ///< resolved local slot (varRef, indexRead base,
                           ///< derefIt/peekIt iterator)
    int dram = -1;         ///< resolved DRAM global (indexRead on DRAM)
    BinOp bop = BinOp::add;
    UnOp uop = UnOp::neg;
    ExprPtr a, b, c;
    std::vector<ExprPtr> args; ///< call arguments

    ExprPtr clone() const;
};

enum class StmtKind
{
    block,
    varDecl,       ///< scalar decl with optional init
    sramDecl,      ///< SRAM<type, size> name;
    adapterDecl,   ///< view / iterator declaration
    assign,        ///< scalar slot = value
    storeIndexed,  ///< name[idx] = value (SRAM / view / DRAM)
    storeDeref,    ///< *it = value (write iterators)
    itAdvance,     ///< it++ or it += k
    exprStmt,      ///< expression evaluated for side effects (atomics)
    ifStmt,
    whileStmt,
    foreachStmt,
    replicateStmt,
    returnStmt,    ///< thread reduction contribution / end of main
    exitStmt,      ///< terminate thread without contributing
    flushStmt,     ///< flush(it) for ManualWriteIt
    pragmaStmt,    ///< pragma(name[, value]); attaches to enclosing region
};

/** A pragma attached to a loop/region. */
struct Pragma
{
    std::string name;
    int64_t value = 0;
};

/** Statement node. Field use depends on `kind` (see comments). */
struct Stmt
{
    StmtKind kind;
    int line = 0;
    int col = 0;

    std::vector<StmtPtr> body;  ///< block / then-branch / loop body
    std::vector<StmtPtr> other; ///< else-branch
    ExprPtr value;              ///< init / rhs / condition / count
    ExprPtr index;              ///< index expr / step expr / advance amount
    ExprPtr extra;              ///< foreach `by` step
    ExprPtr guard;              ///< predication (if-to-select pass): the
                                ///< side effect fires only when non-zero

    std::string name;  ///< decl name / pragma name / adapter dram name
    int slot = -1;     ///< decl slot / assign target / iterator slot
    int dram = -1;     ///< adapter backing DRAM
    Scalar declType = Scalar::invalid;
    AdapterKind adapter = AdapterKind::none;
    int64_t size = 0;  ///< SRAM elements / view size / iterator tile

    int ivSlot = -1;       ///< foreach induction variable slot
    int resultSlot = -1;   ///< foreach reduction result slot (-1: none)
    std::vector<Pragma> pragmas; ///< attached to foreach/while/replicate
    int64_t replicas = 0;  ///< replicate factor

    StmtPtr clone() const;
};

/** One variable slot of a function. */
struct SlotInfo
{
    std::string name;
    Scalar type = Scalar::invalid;     ///< scalar / adapter element type
    AdapterKind adapter = AdapterKind::none;
    int64_t size = 0;                  ///< elements (SRAM/view) or tile
    int dram = -1;                     ///< adapter backing store
    int foreachDepth = 0;              ///< nesting depth at declaration
};

/** A DRAM<elem> global declaration. */
struct DramDecl
{
    std::string name;
    Scalar elem = Scalar::i32;
};

/** A function: only `main` survives sema (others are inlined). */
struct Function
{
    std::string name;
    Scalar returnType = Scalar::voidTy;
    std::vector<int> paramSlots;
    std::vector<SlotInfo> slots;
    StmtPtr bodyStmt; ///< a block statement

    int
    addSlot(SlotInfo info)
    {
        slots.push_back(std::move(info));
        return static_cast<int>(slots.size()) - 1;
    }
};

/** A parsed + analyzed Revet program. */
struct Program
{
    std::vector<DramDecl> drams;
    std::vector<std::unique_ptr<Function>> functions;

    Function *main() const;
    int dramId(const std::string &name) const;
};

/** Helpers to build expressions (used by parser and rewrite passes). */
ExprPtr makeIntConst(int64_t value, Scalar type = Scalar::i32);
ExprPtr makeVarRef(int slot, Scalar type);
ExprPtr makeBinary(BinOp op, ExprPtr a, ExprPtr b, Scalar type);
ExprPtr makeUnary(UnOp op, ExprPtr a, Scalar type);
ExprPtr makeCast(ExprPtr a, Scalar type);

StmtPtr makeBlock(std::vector<StmtPtr> stmts);
StmtPtr makeAssign(int slot, ExprPtr value);

/** Render the function/stmt/expr as pseudo-source for tests/debug. */
std::string dump(const Function &fn);
std::string dump(const Stmt &stmt, const Function &fn, int indent = 0);
std::string dump(const Expr &expr, const Function &fn);

} // namespace lang
} // namespace revet

#endif // REVET_LANG_AST_HH
