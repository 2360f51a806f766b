#include "graph/lower.hh"

#include <algorithm>
#include <map>

#include "lang/lex.hh"
#include "passes/passes.hh"

namespace revet
{
namespace graph
{

using namespace lang;

namespace
{

/** Pseudo-slot carrying the per-thread token stream. */
constexpr int threadToken = -1;

class Lowering
{
  public:
    explicit Lowering(const Program &prog)
        : prog_(prog), fn_(*prog.main())
    {}

    Dfg
    run()
    {
        // Entry: one source for the thread token, one per argument; all
        // aligned single-thread streams (seeded by the executor).
        auto &start = dfg_.newNode(NodeKind::source, "__start");
        int tok = dfg_.newLink("tok");
        dfg_.connectOut(start.id, tok);
        env_[threadToken] = tok;
        for (size_t i = 0; i < fn_.paramSlots.size(); ++i) {
            auto &src = dfg_.newNode(NodeKind::source,
                                     "__arg" + std::to_string(i));
            int link = dfg_.newLink(fn_.slots[fn_.paramSlots[i]].name);
            dfg_.connectOut(src.id, link);
            env_[fn_.paramSlots[i]] = link;
        }

        lowerList(fn_.bodyStmt->body, {});
        flushBlock({}, {}); // trailing side effects
        finalize();
        dfg_.verify();
        return std::move(dfg_);
    }

  private:
    // ---- pending block ---------------------------------------------------

    struct Pending
    {
        std::vector<BlockOp> ops;
        std::map<int, int> regOf;    ///< slot -> register
        std::vector<int> inLinks;
        std::vector<int> inRegs;
        int nRegs = 0;

        bool
        touched(int slot) const
        {
            return regOf.count(slot) != 0;
        }
    };

    int
    newReg()
    {
        return pending_.nRegs++;
    }

    BlockOp &
    emit(OpKind kind, int dst, int a = -1, int b = -1, int c = -1)
    {
        BlockOp op;
        op.kind = kind;
        op.dst = dst;
        op.a = a;
        op.b = b;
        op.c = c;
        pending_.ops.push_back(op);
        return pending_.ops.back();
    }

    int
    constReg(Word value)
    {
        int r = newReg();
        emit(OpKind::cnst, r).imm = value;
        return r;
    }

    /** Register holding @p slot's current value inside the block. */
    int
    slotReg(int slot)
    {
        auto it = pending_.regOf.find(slot);
        if (it != pending_.regOf.end())
            return it->second;
        auto env_it = env_.find(slot);
        if (env_it == env_.end()) {
            throw CompileError("graph lowering: slot '" + slotName(slot) +
                                   "' has no live stream",
                               0, 0);
        }
        int reg = newReg();
        pending_.inLinks.push_back(env_it->second);
        pending_.inRegs.push_back(reg);
        pending_.regOf[slot] = reg;
        return reg;
    }

    std::string
    slotName(int slot) const
    {
        if (slot == threadToken)
            return "<token>";
        if (slot >= 0 && slot < static_cast<int>(fn_.slots.size()))
            return fn_.slots[slot].name;
        return "#" + std::to_string(slot);
    }


    int
    envAt(const std::map<int, int> &env, int slot, const char *where)
    {
        auto it = env.find(slot);
        if (it == env.end()) {
            throw CompileError(std::string("graph lowering: slot '") +
                                   slotName(slot) + "' missing in env at " +
                                   where,
                               0, 0);
        }
        return it->second;
    }

    bool
    available(int slot) const
    {
        return slot == threadToken || env_.count(slot) ||
            pending_.touched(slot);
    }

    /**
     * Close the pending block: emit a block node whose outputs are the
     * touched slots in @p liveAfter plus the thread token and any
     * @p extraRegs. Updates env_. Returns the links created for
     * extraRegs (in order).
     *
     * A node is emitted unconditionally — a boundary with nothing
     * pending becomes a passthrough token block. The optimizer's
     * copy-propagation pass erases these wiring blocks; keeping the
     * emitter unconditional keeps it simple and the graph uniform.
     */
    std::vector<int>
    flushBlock(const std::set<int> &liveAfter,
               const std::vector<int> &extraRegs,
               std::vector<int> *extraNames = nullptr)
    {
        (void)extraNames;
        // Which slots must come out of this block?
        std::vector<int> out_slots;
        for (int slot : liveAfter) {
            if (pending_.touched(slot))
                out_slots.push_back(slot);
        }
        // Thread the token through so the block always has structure.
        slotReg(threadToken);
        out_slots.push_back(threadToken);

        auto &node = dfg_.newNode(NodeKind::block,
                                  "b" + std::to_string(blockCount_++));
        annotate(node);
        node.ops = std::move(pending_.ops);
        node.nRegs = pending_.nRegs;
        node.inputRegs = pending_.inRegs;
        for (int link : pending_.inLinks)
            dfg_.connectIn(node.id, link);

        for (int slot : out_slots) {
            int link = dfg_.newLink(slotName(slot), slotType(slot));
            node.outputRegs.push_back(pending_.regOf.at(slot));
            dfg_.connectOut(node.id, link);
            env_[slot] = link;
        }
        std::vector<int> extra_links;
        for (int reg : extraRegs) {
            int link = dfg_.newLink("t" + std::to_string(reg));
            node.outputRegs.push_back(reg);
            dfg_.connectOut(node.id, link);
            extra_links.push_back(link);
        }
        pending_ = Pending();
        return extra_links;
    }

    Scalar
    slotType(int slot) const
    {
        if (slot == threadToken)
            return Scalar::i32;
        return fn_.slots[slot].type;
    }

    void
    annotate(Node &node)
    {
        node.loopDepth = loopDepth_;
        node.foreachDepth = foreachDepth_;
        node.replicateRegion = curReplicate_;
        node.isBulk = bulkDepth_ > 0;
        if (curReplicate_ >= 0)
            dfg_.replicates[curReplicate_].nodeIds.push_back(node.id);
    }

    // ---- structural helpers ----------------------------------------------

    std::vector<int>
    fanout(int link, int n)
    {
        // Even n == 1 emits a real fanout node; the optimizer splices
        // degenerate fanouts away.
        auto &node = dfg_.newNode(NodeKind::fanout, "fan");
        annotate(node);
        dfg_.connectIn(node.id, link);
        std::vector<int> outs;
        for (int i = 0; i < n; ++i) {
            int l = dfg_.newLink(dfg_.links[link].name + "'",
                                 dfg_.links[link].elem);
            dfg_.connectOut(node.id, l);
            outs.push_back(l);
        }
        return outs;
    }

    /**
     * Filter a bundle of slots by predicate link. Returns the output
     * links in bundle order; if @p existing_outs is non-empty, those
     * pre-created links become the outputs (used for while backedges).
     */
    std::vector<int>
    filterBundle(int pred_link, const std::vector<int> &slots,
                 const std::vector<int> &in_links, bool sense,
                 const std::string &name,
                 const std::vector<int> &existing_outs = {})
    {
        auto &node = dfg_.newNode(NodeKind::filter, name);
        annotate(node);
        node.sense = sense;
        dfg_.connectIn(node.id, pred_link);
        std::vector<int> outs;
        for (size_t i = 0; i < in_links.size(); ++i) {
            dfg_.connectIn(node.id, in_links[i]);
            int l;
            if (!existing_outs.empty()) {
                l = existing_outs[i];
                node.outs.push_back(l);
                dfg_.links[l].src = node.id;
            } else {
                l = dfg_.newLink(
                    slotName(slots[i]) + (sense ? "t" : "f"),
                    dfg_.links[in_links[i]].elem);
                dfg_.connectOut(node.id, l);
            }
            outs.push_back(l);
        }
        return outs;
    }

    int
    flattenLink(int link, int times = 1)
    {
        for (int i = 0; i < times; ++i) {
            auto &node = dfg_.newNode(NodeKind::flatten, "strip");
            annotate(node);
            dfg_.connectIn(node.id, link);
            int l = dfg_.newLink(dfg_.links[link].name + "~",
                                 dfg_.links[link].elem);
            dfg_.connectOut(node.id, l);
            link = l;
        }
        return link;
    }

    /**
     * Drop env entries created inside a nested scope (loop body or if
     * branch) that are not part of @p kept. Such streams live at the
     * wrong hierarchy level / thread order for downstream bundles; by
     * scoping they cannot be referenced again, and no-kill liveness must
     * not rediscover them. Their links dangle into sinks.
     */
    void
    scrubScopeTemps(const std::map<int, int> &outer_env,
                    const std::vector<int> &kept)
    {
        for (auto it = env_.begin(); it != env_.end();) {
            bool was_outer = outer_env.count(it->first) != 0;
            bool is_kept = std::find(kept.begin(), kept.end(),
                                     it->first) != kept.end();
            if (!was_outer && !is_kept)
                it = env_.erase(it);
            else
                ++it;
        }
    }

    /** Ordered live-slot list present in env/pending (token first). */
    std::vector<int>
    bundleOf(const std::set<int> &slots)
    {
        std::vector<int> out{threadToken};
        for (int s : slots) {
            if (s != threadToken && available(s))
                out.push_back(s);
        }
        return out;
    }

    // ---- liveness ---------------------------------------------------------

    static void
    addUses(const Stmt &s, std::set<int> &set)
    {
        passes::collectUses(s, set);
    }

    // ---- expressions -------------------------------------------------------

    int
    lowerExpr(const Expr &e)
    {
        switch (e.kind) {
          case ExprKind::intConst:
            return constReg(static_cast<Word>(e.intValue));
          case ExprKind::varRef:
            return slotReg(e.slot);
          case ExprKind::unary: {
            int a = lowerExpr(*e.a);
            int dst = newReg();
            OpKind k = e.uop == UnOp::neg      ? OpKind::neg
                       : e.uop == UnOp::logNot ? OpKind::lnot
                                               : OpKind::bnot;
            emit(k, dst, a);
            return dst;
          }
          case ExprKind::binary: {
            int a = lowerExpr(*e.a);
            int b = lowerExpr(*e.b);
            int dst = newReg();
            // gt/ge lower to lt/le with swapped operands.
            if (e.bop == BinOp::gt || e.bop == BinOp::ge)
                emit(binOpKind(e), dst, b, a);
            else
                emit(binOpKind(e), dst, a, b);
            return dst;
          }
          case ExprKind::cond: {
            int c = lowerExpr(*e.a);
            int x = lowerExpr(*e.b);
            int y = lowerExpr(*e.c);
            int dst = newReg();
            emit(OpKind::sel, dst, c, x, y);
            return dst;
          }
          case ExprKind::cast: {
            int a = lowerExpr(*e.a);
            if (bitWidth(e.type) >= 32)
                return a;
            int dst = newReg();
            emit(OpKind::norm, dst, a).elem = e.type;
            return dst;
          }
          case ExprKind::indexRead: {
            int idx = lowerExpr(*e.a);
            int dst = newReg();
            if (e.dram >= 0) {
                auto &op = emit(OpKind::dramRead, dst, idx);
                op.dram = e.dram;
                op.elem = prog_.drams[e.dram].elem;
            } else {
                int handle = slotReg(e.slot);
                auto &op = emit(OpKind::sramRead, dst, handle, idx);
                op.elem = fn_.slots[e.slot].type;
            }
            return dst;
          }
          case ExprKind::atomicRmw: {
            int handle = slotReg(e.slot);
            int idx = lowerExpr(*e.a);
            int delta = lowerExpr(*e.b);
            int dst = newReg();
            auto &op = emit(e.bop == BinOp::add ? OpKind::rmwAdd
                                                : OpKind::rmwSub,
                            dst, handle, idx, delta);
            op.elem = fn_.slots[e.slot].type;
            return dst;
          }
          default:
            throw CompileError(
                "graph lowering: unlowered expression (run the pass "
                "pipeline first)",
                e.line, e.col);
        }
    }

    OpKind
    binOpKind(const Expr &e)
    {
        // Match the interpreter exactly: signedness follows the (sema-
        // coerced) left operand.
        const bool sgn = isSigned(e.a->type);
        switch (e.bop) {
          case BinOp::add: return OpKind::add;
          case BinOp::sub: return OpKind::sub;
          case BinOp::mul: return OpKind::mul;
          case BinOp::div: return sgn ? OpKind::divs : OpKind::divu;
          case BinOp::rem: return sgn ? OpKind::rems : OpKind::remu;
          case BinOp::bitAnd: return OpKind::andb;
          case BinOp::bitOr: return OpKind::orb;
          case BinOp::bitXor: return OpKind::xorb;
          case BinOp::shl: return OpKind::shl;
          case BinOp::shr: return sgn ? OpKind::shrs : OpKind::shru;
          case BinOp::eq: return OpKind::eq;
          case BinOp::ne: return OpKind::ne;
          case BinOp::lt: return sgn ? OpKind::lts : OpKind::ltu;
          case BinOp::le: return sgn ? OpKind::les : OpKind::leu;
          case BinOp::gt: return sgn ? OpKind::lts : OpKind::ltu;
          case BinOp::ge: return sgn ? OpKind::les : OpKind::leu;
          case BinOp::logicalAnd: return OpKind::land;
          case BinOp::logicalOr: return OpKind::lor;
        }
        return OpKind::add;
    }

    int
    lowerValue(const Expr &e)
    {
        return lowerExpr(e);
    }

    int
    normalized(int reg, Scalar type)
    {
        if (bitWidth(type) >= 32)
            return reg;
        int dst = newReg();
        emit(OpKind::norm, dst, reg).elem = type;
        return dst;
    }

    // ---- statements --------------------------------------------------------

    /** Lower stmts with @p liveOut needed afterwards. Returns false if
     * every path terminated the thread. */
    bool
    lowerList(const std::vector<StmtPtr> &stmts, std::set<int> liveOut)
    {
        // suffix[i]: slots needed after statement i.
        std::vector<std::set<int>> suffix(stmts.size());
        std::set<int> acc = std::move(liveOut);
        for (size_t i = stmts.size(); i-- > 0;) {
            suffix[i] = acc;
            addUses(*stmts[i], acc);
        }
        for (size_t i = 0; i < stmts.size(); ++i) {
            if (!lowerStmt(*stmts[i], suffix[i]))
                return false;
        }
        return true;
    }

    bool
    lowerStmt(const Stmt &s, const std::set<int> &liveAfter)
    {
        switch (s.kind) {
          case StmtKind::block:
            return lowerList(s.body, liveAfter);
          case StmtKind::varDecl:
            if (s.value && s.value->kind == ExprKind::forkExpr) {
                lowerFork(s, liveAfter);
                return true;
            }
            [[fallthrough]];
          case StmtKind::assign: {
            int reg = s.value ? lowerValue(*s.value) : constReg(0);
            pending_.regOf[s.slot] =
                normalized(reg, fn_.slots[s.slot].type);
            return true;
          }
          case StmtKind::sramDecl: {
            int dst = newReg();
            auto &op = emit(OpKind::sramAlloc, dst);
            op.size = s.size;
            op.elem = s.declType;
            pending_.regOf[s.slot] = dst;
            return true;
          }
          case StmtKind::storeIndexed: {
            int guard = s.guard ? lowerValue(*s.guard) : -1;
            int idx = lowerValue(*s.index);
            int val = lowerValue(*s.value);
            if (s.dram >= 0) {
                auto &op = emit(OpKind::dramWrite, -1, idx, val);
                op.dram = s.dram;
                op.elem = prog_.drams[s.dram].elem;
                op.guard = guard;
            } else {
                int handle = slotReg(s.slot);
                auto &op = emit(OpKind::sramWrite, -1, handle, idx, val);
                op.elem = fn_.slots[s.slot].type;
                op.guard = guard;
            }
            return true;
          }
          case StmtKind::exprStmt: {
            int guard = s.guard ? lowerValue(*s.guard) : -1;
            const Expr &e = *s.value;
            if (e.kind != ExprKind::atomicRmw)
                throw CompileError("unexpected expression statement",
                                   s.line, s.col);
            int handle = slotReg(e.slot);
            int idx = lowerValue(*e.a);
            int delta = lowerValue(*e.b);
            auto &op = emit(e.bop == BinOp::add ? OpKind::rmwAdd
                                                : OpKind::rmwSub,
                            newReg(), handle, idx, delta);
            op.elem = fn_.slots[e.slot].type;
            op.guard = guard;
            return true;
          }
          case StmtKind::ifStmt:
            return lowerIf(s, liveAfter);
          case StmtKind::whileStmt:
            return lowerWhile(s, liveAfter);
          case StmtKind::foreachStmt:
            lowerForeach(s, liveAfter);
            return true;
          case StmtKind::replicateStmt:
            return lowerReplicate(s, liveAfter);
          case StmtKind::returnStmt:
            lowerReturn(s);
            return false;
          case StmtKind::exitStmt:
            flushBlock({}, {});
            return false;
          default:
            throw CompileError(
                "graph lowering: statement requires the pass pipeline "
                "(adapters/pragmas unlowered)",
                s.line, s.col);
        }
    }

    bool
    lowerIf(const Stmt &s, const std::set<int> &liveAfter)
    {
        int pred = lowerValue(*s.value);

        std::set<int> live_need = liveAfter;
        for (const auto &child : s.body)
            addUses(*child, live_need);
        for (const auto &child : s.other)
            addUses(*child, live_need);

        auto extra = flushBlock(live_need, {pred});
        int pred_link = extra[0];

        std::vector<int> slots = bundleOf(live_need);
        auto preds = fanout(pred_link, 2);
        std::vector<int> then_in, else_in;
        for (int slot : slots) {
            auto copies = fanout(envAt(env_, slot, "if.split"), 2);
            then_in.push_back(copies[0]);
            else_in.push_back(copies[1]);
        }

        auto saved_env = env_;
        auto then_links =
            filterBundle(preds[0], slots, then_in, true, "if.then");
        for (size_t i = 0; i < slots.size(); ++i)
            env_[slots[i]] = then_links[i];
        bool then_alive = lowerList(s.body, liveAfter);
        flushBlock(liveAfter, {});
        scrubScopeTemps(saved_env, slots);
        auto then_env = env_;

        env_ = saved_env;
        auto else_links =
            filterBundle(preds[1], slots, else_in, false, "if.else");
        for (size_t i = 0; i < slots.size(); ++i)
            env_[slots[i]] = else_links[i];
        bool else_alive = lowerList(s.other, liveAfter);
        flushBlock(liveAfter, {});
        scrubScopeTemps(saved_env, slots);
        auto else_env = env_;

        if (!then_alive && !else_alive)
            return false;
        if (!then_alive || !else_alive) {
            env_ = then_alive ? then_env : else_env;
            return true;
        }

        // Join: forward-merge the live bundle. Liveness is no-kill
        // conservative, so restrict to slots both branches actually
        // carry (a slot defined under only one branch cannot be live
        // out by scoping).
        std::vector<int> join_slots{threadToken};
        for (int slot : liveAfter) {
            if (slot != threadToken && then_env.count(slot) &&
                else_env.count(slot)) {
                join_slots.push_back(slot);
            }
        }
        auto &merge = dfg_.newNode(NodeKind::fwdMerge, "if.join");
        annotate(merge);
        env_ = then_env;
        for (int slot : join_slots)
            dfg_.connectIn(merge.id, envAt(env_, slot, "if.join.then"));
        for (int slot : join_slots)
            dfg_.connectIn(merge.id, envAt(else_env, slot, "if.join.else"));
        for (int slot : join_slots) {
            int l = dfg_.newLink(slotName(slot) + "m", slotType(slot));
            dfg_.connectOut(merge.id, l);
            env_[slot] = l;
        }
        // Anything live in only one branch env is dangling; the
        // finalizer sinks it.
        for (auto &[slot, link] : else_env) {
            (void)slot;
            (void)link;
        }
        return true;
    }

    bool
    lowerWhile(const Stmt &s, const std::set<int> &liveAfter)
    {
        std::set<int> live_loop = liveAfter;
        for (const auto &child : s.body)
            addUses(*child, live_loop);
        std::set<int> cond_uses;
        passes::collectUses(*s.value, cond_uses);
        live_loop.insert(cond_uses.begin(), cond_uses.end());

        int pred = lowerValue(*s.value);
        auto extra = flushBlock(live_loop, {pred});
        int pred_link = extra[0];

        std::vector<int> slots = bundleOf(live_loop);
        auto preds = fanout(pred_link, 2);
        std::vector<int> enter_in, bypass_in;
        for (int slot : slots) {
            auto copies = fanout(envAt(env_, slot, "while.split"), 2);
            enter_in.push_back(copies[0]);
            bypass_in.push_back(copies[1]);
        }
        auto enter_links =
            filterBundle(preds[0], slots, enter_in, true, "while.enter");
        auto bypass_links =
            filterBundle(preds[1], slots, bypass_in, false, "while.skip");

        // Loop header: forward-backward merge. Backedge links get their
        // producer later (the back filter).
        auto &head = dfg_.newNode(NodeKind::fbMerge, "while.head");
        annotate(head);
        std::vector<int> back_links;
        for (int link : enter_links)
            dfg_.connectIn(head.id, link);
        for (int slot : slots) {
            int l = dfg_.newLink(slotName(slot) + "bk", slotType(slot));
            back_links.push_back(l);
            dfg_.connectIn(head.id, l);
        }
        ++loopDepth_;
        for (int slot : slots) {
            int l = dfg_.newLink(slotName(slot) + "lp", slotType(slot));
            dfg_.connectOut(head.id, l);
            env_[slot] = l;
        }
        auto pre_body_env = env_;

        // Body, then the recomputed condition.
        std::set<int> live_body = live_loop;
        bool alive = lowerList(s.body, live_body);
        if (!alive) {
            throw CompileError(
                "while body terminates every thread; the loop header "
                "would deadlock",
                s.line, s.col);
        }
        int pred2 = lowerValue(*s.value);
        auto extra2 = flushBlock(live_loop, {pred2});
        int pred2_link = extra2[0];

        auto preds2 = fanout(pred2_link, 2);
        std::vector<int> back_in, exit_in;
        for (int slot : slots) {
            auto copies = fanout(envAt(env_, slot, "while.backsplit"), 2);
            back_in.push_back(copies[0]);
            exit_in.push_back(copies[1]);
        }
        filterBundle(preds2[0], slots, back_in, true, "while.back",
                     back_links);
        auto exit_links =
            filterBundle(preds2[1], slots, exit_in, false, "while.exit");
        --loopDepth_;

        // Strip the loop level on exit and join with the bypass path.
        auto &merge = dfg_.newNode(NodeKind::fwdMerge, "while.join");
        annotate(merge);
        std::vector<int> stripped;
        for (int link : exit_links)
            stripped.push_back(flattenLink(link));
        for (int link : bypass_links)
            dfg_.connectIn(merge.id, link);
        for (int link : stripped)
            dfg_.connectIn(merge.id, link);
        for (int slot : slots) {
            int l = dfg_.newLink(slotName(slot) + "x", slotType(slot));
            dfg_.connectOut(merge.id, l);
            env_[slot] = l;
        }
        scrubScopeTemps(pre_body_env, slots);
        return true;
    }

    void
    lowerForeach(const Stmt &s, const std::set<int> &liveAfter)
    {
        // Counter bounds in the current block.
        int min_reg = constReg(0);
        int max_reg = lowerValue(*s.value);
        int step_reg = s.extra ? lowerValue(*s.extra) : constReg(1);

        std::set<int> body_uses;
        for (const auto &child : s.body)
            addUses(*child, body_uses);
        std::set<int> bcast_slots;
        for (int slot : body_uses) {
            if (slot != s.ivSlot && available(slot))
                bcast_slots.insert(slot);
        }

        std::set<int> flush_live = liveAfter;
        flush_live.insert(bcast_slots.begin(), bcast_slots.end());
        auto extra =
            flushBlock(flush_live, {min_reg, max_reg, step_reg});

        bool bulk = false;
        for (const auto &p : s.pragmas)
            bulk |= p.name == "bulk_access";
        if (bulk)
            ++bulkDepth_;

        auto &ctr = dfg_.newNode(NodeKind::counter, "foreach.ctr");
        annotate(ctr);
        for (int l : extra)
            dfg_.connectIn(ctr.id, l);
        int iv_link = dfg_.newLink("iv");
        dfg_.connectOut(ctr.id, iv_link);

        // Copies of the iv stream: one as the body's iv/token, one as
        // the always-present barrier carrier for the reduction, one per
        // broadcast (deep structure reference).
        int n_copies = 2 + static_cast<int>(bcast_slots.size());
        auto iv_copies = fanout(iv_link, n_copies);

        auto saved_env = env_;
        env_.clear();
        ++foreachDepth_;
        int saved_loop_depth = loopDepth_;
        loopDepth_ = 0;

        env_[s.ivSlot] = iv_copies[0];
        env_[threadToken] = iv_copies[0]; // iv stream doubles as token
        // But both can't consume the same link: give the token its own
        // copy via the block that will first consume it. Simplest: a
        // dedicated fanout.
        {
            auto copies = fanout(iv_copies[0], 2);
            env_[s.ivSlot] = copies[0];
            env_[threadToken] = copies[1];
        }

        int idx = 2;
        for (int slot : bcast_slots) {
            int shallow = saved_env.count(slot)
                              ? saved_env.at(slot)
                              : -1;
            // The slot may be live after the foreach too: fork its
            // parent-level stream first.
            bool live_later = liveAfter.count(slot) != 0;
            if (shallow < 0)
                throw CompileError("broadcast source missing", s.line,
                                   s.col);
            if (live_later) {
                auto copies = fanout(shallow, 2);
                shallow = copies[0];
                saved_env[slot] = copies[1];
            } else {
                saved_env.erase(slot);
            }
            auto &bc = dfg_.newNode(NodeKind::broadcast, "bcast");
            annotate(bc);
            dfg_.connectIn(bc.id, iv_copies[idx]); // deep structure
            dfg_.connectIn(bc.id, shallow);
            int l = dfg_.newLink(slotName(slot) + "bc", slotType(slot));
            dfg_.connectOut(bc.id, l);
            env_[slot] = l;
            ++idx;
        }

        // The reduction's barrier carrier: a filter that drops every
        // element but keeps structure, so even all-exit bodies close
        // their groups.
        returnCtx_.push_back({});
        {
            int bar = iv_copies[1];
            // pred = 0 for every element.
            auto &node = dfg_.newNode(NodeKind::block, "zero");
            annotate(node);
            dfg_.connectIn(node.id, bar);
            node.inputRegs = {0};
            node.nRegs = 2;
            BlockOp op;
            op.kind = OpKind::cnst;
            op.dst = 1;
            op.imm = 0;
            node.ops.push_back(op);
            int pl = dfg_.newLink("never");
            int vl = dfg_.newLink("barrier");
            node.outputRegs = {1, 0};
            dfg_.connectOut(node.id, pl);
            dfg_.connectOut(node.id, vl);
            auto fl = filterBundle(pl, {threadToken}, {vl}, true,
                                   "fe.keepbar");
            returnCtx_.back().valueLinks.push_back(fl[0]);
        }

        bool alive = lowerList(s.body, {});
        if (alive) {
            // Fall-through threads contribute 0 to the reduction.
            int zero = constReg(0);
            auto contrib = flushBlock({}, {zero});
            returnCtx_.back().valueLinks.push_back(contrib[0]);
        }

        // Merge every contribution and reduce additively.
        int merged = returnCtx_.back().valueLinks[0];
        for (size_t i = 1; i < returnCtx_.back().valueLinks.size(); ++i) {
            auto &m = dfg_.newNode(NodeKind::fwdMerge, "fe.retmerge");
            annotate(m);
            dfg_.connectIn(m.id, merged);
            dfg_.connectIn(m.id, returnCtx_.back().valueLinks[i]);
            int l = dfg_.newLink("ret");
            dfg_.connectOut(m.id, l);
            merged = l;
        }
        returnCtx_.pop_back();
        --foreachDepth_;
        loopDepth_ = saved_loop_depth;
        if (bulk)
            --bulkDepth_;

        auto &red = dfg_.newNode(NodeKind::reduce, "fe.reduce");
        annotate(red);
        red.init = 0;
        dfg_.connectIn(red.id, merged);
        int result = dfg_.newLink("fe.result");
        dfg_.connectOut(red.id, result);

        env_ = std::move(saved_env);

        // Synchronize the parent with child completion: route the parent
        // token and the reduction result through one alignment block, so
        // every downstream context observes the children's side effects
        // first. This is the paper's void-token (CMMC-style) memory
        // ordering guarantee across a foreach.
        auto &sync = dfg_.newNode(NodeKind::block, "fe.sync");
        annotate(sync);
        dfg_.connectIn(sync.id, env_.at(threadToken));
        dfg_.connectIn(sync.id, result);
        sync.inputRegs = {0, 1};
        sync.nRegs = 2;
        int tok_out = dfg_.newLink("tok");
        int res_out = dfg_.newLink("fe.res");
        sync.outputRegs = {0, 1};
        dfg_.connectOut(sync.id, tok_out);
        dfg_.connectOut(sync.id, res_out);
        env_[threadToken] = tok_out;
        if (s.resultSlot >= 0) {
            env_[s.resultSlot] = res_out;
        } else {
            // Unused reduction result: sink it (finalize handles).
            danglers_.push_back(res_out);
        }
    }

    void
    lowerFork(const Stmt &s, const std::set<int> &liveAfter)
    {
        int min_reg = constReg(0);
        int max_reg = lowerValue(*s.value->a);
        int step_reg = constReg(1);
        auto extra = flushBlock(liveAfter, {min_reg, max_reg, step_reg});

        auto &ctr = dfg_.newNode(NodeKind::counter, "fork.ctr");
        annotate(ctr);
        for (int l : extra)
            dfg_.connectIn(ctr.id, l);
        int iv_link = dfg_.newLink("forkIdx");
        dfg_.connectOut(ctr.id, iv_link);

        std::vector<int> slots = bundleOf(liveAfter);
        // Copies of the deep structure: one per live slot + the index.
        auto iv_copies = fanout(iv_link, 1 + static_cast<int>(slots.size()));

        std::map<int, int> new_env;
        new_env[s.slot] = flattenLink(iv_copies[0]);
        int idx = 1;
        for (int slot : slots) {
            auto &bc = dfg_.newNode(NodeKind::broadcast, "fork.bc");
            annotate(bc);
            dfg_.connectIn(bc.id, iv_copies[idx]);
            dfg_.connectIn(bc.id, envAt(env_, slot, "fork.bcast"));
            int l = dfg_.newLink(slotName(slot) + "fk", slotType(slot));
            dfg_.connectOut(bc.id, l);
            new_env[slot] = flattenLink(l);
            ++idx;
        }
        // Every other env entry dies with the pre-fork thread.
        for (auto &[slot, link] : env_) {
            if (!new_env.count(slot))
                danglers_.push_back(link);
        }
        env_ = std::move(new_env);
    }

    /** True if @p s can change the thread stream's order while keeping
     * it 1:1 — while/if (iteration-order exits, filtered joins) and
     * exit/return (thread termination). Pass-over values of such
     * bodies must ride the region's bundles; the replicate-bufferize
     * pass later converts pure rides into ordinal-keyed SRAM parks. */
    static bool
    bodyReordersThreads(const Stmt &s)
    {
        switch (s.kind) {
          case StmtKind::whileStmt:
          case StmtKind::ifStmt:
          case StmtKind::exitStmt:
          case StmtKind::returnStmt:
            return true;
          default:
            break;
        }
        for (const auto &child : s.body) {
            if (bodyReordersThreads(*child))
                return true;
        }
        for (const auto &child : s.other) {
            if (bodyReordersThreads(*child))
                return true;
        }
        return false;
    }

    /** True if @p s multiplies the thread count: a fork declaration
     * (varDecl initialized with forkExpr). One pass-over value per
     * entering thread cannot re-pair with several exiting ones — not
     * even by ordinal — so such bodies carry every live value through
     * their broadcast trees. */
    static bool
    bodyMultipliesThreads(const Stmt &s)
    {
        if (s.kind == StmtKind::varDecl && s.value &&
            s.value->kind == ExprKind::forkExpr) {
            return true;
        }
        for (const auto &child : s.body) {
            if (bodyMultipliesThreads(*child))
                return true;
        }
        for (const auto &child : s.other) {
            if (bodyMultipliesThreads(*child))
                return true;
        }
        return false;
    }

    bool
    lowerReplicate(const Stmt &s, const std::set<int> &liveAfter)
    {
        ReplicateInfo info;
        info.id = static_cast<int>(dfg_.replicates.size());
        info.replicas = static_cast<int>(s.replicas);
        std::set<int> body_uses;
        for (const auto &child : s.body)
            addUses(*child, body_uses);
        // The region boundary is a placement boundary: close the
        // pending block before entering so preceding straight-line
        // work is not replicated with the region, and values that
        // pass over the region (produced before, consumed after,
        // untouched inside) exist as real crossing links for the
        // replicate-bufferize pass to park.
        std::set<int> live_need = liveAfter;
        live_need.insert(body_uses.begin(), body_uses.end());
        flushBlock(live_need, {});
        for (int slot : body_uses)
            info.liveValuesIn += available(slot) ? 1 : 0;
        // Stash streams the body neither reads nor writes out of the
        // environment while lowering it: otherwise inner control flow
        // would thread the pass-over values through the region's
        // replicated machinery, exactly the carry cost bufferization
        // exists to avoid. Their pre-region links come back afterwards
        // as pass-over links for the replicate-bufferize pass to
        // park. Only valid while the body keeps the thread stream in
        // entry order: a while loop (iteration-order exits), a
        // filter-lowered if, or a thread-terminating exit/return
        // re-pairs the region output with a bypassing stream
        // positionally-incorrectly, so such bodies keep every live
        // value riding their bundles — deliberately in a shape the
        // replicate-bufferize pass can recognize (a pure identity lane
        // from region entry to exit, Dfg::replicateRideLanes) and
        // convert into an ordinal-keyed SRAM park. A fork multiplies
        // the thread count, which no park keying can re-pair, so those
        // bodies stay fully carried. (A nested foreach is order-safe —
        // its reduce re-collapses to one element per parent thread in
        // parent order — but any of the disqualifying constructs
        // anywhere below refuses, conservative.)
        bool reorders = false, multiplies = false;
        for (const auto &child : s.body) {
            reorders = reorders || bodyReordersThreads(*child);
            multiplies = multiplies || bodyMultipliesThreads(*child);
        }
        std::set<int> body_defs;
        for (const auto &child : s.body)
            passes::collectDefs(*child, body_defs);
        std::map<int, int> stashed;
        if (!reorders && !multiplies) {
            for (auto it = env_.begin(); it != env_.end();) {
                int slot = it->first;
                if (slot != threadToken && !body_uses.count(slot) &&
                    !body_defs.count(slot)) {
                    stashed.emplace(slot, it->second);
                    it = env_.erase(it);
                } else {
                    ++it;
                }
            }
        }
        // Pass-over values are found structurally by the replicate-
        // bufferize graph pass, which parks them in SRAM and records
        // the count in `bufferized`.
        dfg_.replicates.push_back(info);
        int saved = curReplicate_;
        curReplicate_ = info.id;
        bool alive = lowerList(s.body, liveAfter);
        // Close the body's pending block while still inside the region
        // so a pure element-wise body materializes as region nodes
        // (and its live outputs leave through the region boundary)
        // instead of melting into the surrounding context.
        if (alive)
            flushBlock(liveAfter, {});
        curReplicate_ = saved;
        env_.insert(stashed.begin(), stashed.end());
        return alive;
    }

    void
    lowerReturn(const Stmt &s)
    {
        if (returnCtx_.empty()) {
            // Returning from main: thread ends; side effects flush.
            if (s.value)
                lowerValue(*s.value);
            flushBlock({}, {});
            return;
        }
        int reg = s.value ? lowerValue(*s.value) : constReg(0);
        auto extra = flushBlock({}, {reg});
        int link = flattenLink(extra[0], loopDepth_);
        returnCtx_.back().valueLinks.push_back(link);
    }

    /** Sink every dangling link. */
    void
    finalize()
    {
        for (auto &[slot, link] : env_) {
            (void)slot;
            danglers_.push_back(link);
        }
        const size_t n = dfg_.links.size();
        for (size_t i = 0; i < n; ++i) {
            if (dfg_.links[i].dst == -1) {
                auto &sk = dfg_.newNode(NodeKind::sink,
                                        "sink." + dfg_.links[i].name);
                dfg_.connectIn(sk.id, static_cast<int>(i));
            }
        }
    }

    const Program &prog_;
    const Function &fn_;
    Dfg dfg_;

    std::map<int, int> env_; ///< slot -> live link
    Pending pending_;
    std::vector<int> danglers_;

    struct RetCtx
    {
        std::vector<int> valueLinks;
    };
    std::vector<RetCtx> returnCtx_;

    int blockCount_ = 0;
    int loopDepth_ = 0;
    int foreachDepth_ = 0;
    int bulkDepth_ = 0;
    int curReplicate_ = -1;
};

} // namespace

Dfg
lower(const Program &program)
{
    Lowering lowering(program);
    return lowering.run();
}

} // namespace graph
} // namespace revet
