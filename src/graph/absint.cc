/**
 * @file
 * Worklist fixpoint solver for value analysis over the DFG, and the
 * value-range lint sweep over its solved facts (`lintValues`).
 *
 * The abstract domain is per-link: bottom ("no data token is ever
 * pushed") or a pair of intervals over the signed and unsigned
 * interpretation of the 32-bit lane word. Bottom is sound because a
 * block only fires when every bundle input has a data token, filters
 * drop data without forwarding it, and barriers never execute ops —
 * so a link proven bottom can be assumed to carry barriers only.
 *
 * Transfer functions are conservative: whenever a case is not handled
 * precisely the result widens toward top, never toward bottom. The
 * fuzz harness cross-checks every inference against concrete link
 * traffic (tests/graph/test_fuzz_optimize.cc).
 */

#include "graph/absint.hh"
#include "graph/analyze.hh"

#include <algorithm>
#include <cassert>
#include <deque>

namespace revet
{
namespace graph
{

namespace
{

using i64 = int64_t;
using u64 = uint64_t;

/** Smallest (2^k - 1) >= x: the bit hull of an unsigned bound. */
uint32_t
onesHull(uint32_t x)
{
    x |= x >> 1;
    x |= x >> 2;
    x |= x >> 4;
    x |= x >> 8;
    x |= x >> 16;
    return x;
}

} // namespace

AbsVal
AbsVal::top()
{
    AbsVal v;
    v.bottom = false;
    return v;
}

AbsVal
AbsVal::word(uint32_t w)
{
    AbsVal v;
    v.bottom = false;
    v.smin = v.smax = static_cast<int32_t>(w);
    v.umin = v.umax = w;
    return v;
}

AbsVal
AbsVal::fromSigned(i64 lo, i64 hi)
{
    if (lo > hi || lo < INT32_MIN || hi > INT32_MAX)
        return top();
    AbsVal v;
    v.bottom = false;
    v.smin = static_cast<int32_t>(lo);
    v.smax = static_cast<int32_t>(hi);
    if (lo >= 0) {
        v.umin = static_cast<uint32_t>(lo);
        v.umax = static_cast<uint32_t>(hi);
    } else if (hi < 0) {
        v.umin = static_cast<uint32_t>(static_cast<int32_t>(lo));
        v.umax = static_cast<uint32_t>(static_cast<int32_t>(hi));
    } else {
        v.umin = 0;
        v.umax = UINT32_MAX;
    }
    return v;
}

AbsVal
AbsVal::fromUnsigned(u64 lo, u64 hi)
{
    if (lo > hi || hi > UINT32_MAX)
        return top();
    AbsVal v;
    v.bottom = false;
    v.umin = static_cast<uint32_t>(lo);
    v.umax = static_cast<uint32_t>(hi);
    if (hi <= static_cast<u64>(INT32_MAX)) {
        v.smin = static_cast<int32_t>(lo);
        v.smax = static_cast<int32_t>(hi);
    } else if (lo >= 0x80000000ull) {
        v.smin = static_cast<int32_t>(static_cast<uint32_t>(lo));
        v.smax = static_cast<int32_t>(static_cast<uint32_t>(hi));
    } else {
        v.smin = INT32_MIN;
        v.smax = INT32_MAX;
    }
    return v;
}

bool
AbsVal::isTop() const
{
    return !bottom && smin == INT32_MIN && smax == INT32_MAX && umin == 0 &&
           umax == UINT32_MAX;
}

bool
AbsVal::isConst() const
{
    return !bottom && smin == smax && umin == umax &&
           static_cast<uint32_t>(smin) == umin;
}

uint32_t
AbsVal::constWord() const
{
    return umin;
}

bool
AbsVal::contains(uint32_t w) const
{
    if (bottom)
        return false;
    int32_t s = static_cast<int32_t>(w);
    return s >= smin && s <= smax && w >= umin && w <= umax;
}

bool
AbsVal::excludesZero() const
{
    return !bottom && (umin > 0 || smax < 0 || smin > 0);
}

bool
AbsVal::isZero() const
{
    return isConst() && umin == 0;
}

AbsVal
joinVal(const AbsVal &a, const AbsVal &b)
{
    if (a.bottom)
        return b;
    if (b.bottom)
        return a;
    AbsVal v;
    v.bottom = false;
    v.smin = std::min(a.smin, b.smin);
    v.smax = std::max(a.smax, b.smax);
    v.umin = std::min(a.umin, b.umin);
    v.umax = std::max(a.umax, b.umax);
    return v;
}

AbsVal
meetVal(const AbsVal &a, const AbsVal &b)
{
    if (a.bottom || b.bottom)
        return a.bottom ? a : b;
    AbsVal v;
    v.bottom = false;
    v.smin = std::max(a.smin, b.smin);
    v.smax = std::min(a.smax, b.smax);
    v.umin = std::max(a.umin, b.umin);
    v.umax = std::min(a.umax, b.umax);
    // Both arguments must describe the same concrete value; an empty
    // intersection means one side was unsound — keep `a` rather than
    // fabricating an impossible interval.
    if (v.smin > v.smax || v.umin > v.umax)
        return a;
    return v;
}

AbsVal
typeClamp(lang::Scalar elem)
{
    switch (elem) {
      case lang::Scalar::boolTy:
        return AbsVal::fromUnsigned(0, 1);
      case lang::Scalar::i8:
        return AbsVal::fromSigned(-128, 127);
      case lang::Scalar::u8:
        return AbsVal::fromUnsigned(0, 255);
      case lang::Scalar::i16:
        return AbsVal::fromSigned(-32768, 32767);
      case lang::Scalar::u16:
        return AbsVal::fromUnsigned(0, 65535);
      default:
        return AbsVal::top();
    }
}

namespace
{

/** a is contained in the canonical range of b. */
bool
fitsIn(const AbsVal &a, const AbsVal &clamp)
{
    return !a.bottom && a.smin >= clamp.smin && a.smax <= clamp.smax &&
           a.umin >= clamp.umin && a.umax <= clamp.umax;
}

} // namespace

std::optional<lang::Scalar>
packElem(const AbsVal &v)
{
    if (v.bottom)
        return lang::Scalar::u8;
    static const lang::Scalar order[] = {lang::Scalar::u8, lang::Scalar::i8,
                                         lang::Scalar::u16,
                                         lang::Scalar::i16};
    for (lang::Scalar s : order)
        if (fitsIn(v, typeClamp(s)))
            return s;
    return std::nullopt;
}

std::optional<int32_t>
AbsintReport::constantOf(int link) const
{
    if (link < 0 || link >= static_cast<int>(links.size()))
        return std::nullopt;
    const AbsVal &v = links[static_cast<size_t>(link)];
    if (!v.isConst())
        return std::nullopt;
    return static_cast<int32_t>(v.constWord());
}

namespace
{

/**
 * Abstract transfer for one pure block op. `overflow` is set when the
 * op is guaranteed to wrap int32 on every possible input (lint fuel).
 */
AbsVal
opTransfer(const BlockOp &op, const AbsVal &a, const AbsVal &b,
           const AbsVal &c, bool &overflow)
{
    overflow = false;
    // Concrete oracle: when every operand is a proven single word the
    // executor's own arithmetic (evalPureOp) is the exact transfer.
    // It declines division by zero and memory ops, which fall through
    // to the interval cases below. Guaranteed int32 wrap is still
    // lint-worthy even though the folded (wrapped) word is sound.
    if (op.kind != OpKind::cnst && a.isConst() && b.isConst() &&
        c.isConst()) {
        Word folded = 0;
        if (evalPureOp(op, a.constWord(), b.constWord(), c.constWord(),
                       folded)) {
            const i64 sa = static_cast<int32_t>(a.constWord());
            const i64 sb = static_cast<int32_t>(b.constWord());
            i64 exact = 0;
            bool arith = true;
            switch (op.kind) {
              case OpKind::add: exact = sa + sb; break;
              case OpKind::sub: exact = sa - sb; break;
              case OpKind::mul: exact = sa * sb; break;
              default: arith = false; break;
            }
            overflow =
                arith && exact != static_cast<int32_t>(folded);
            return AbsVal::word(folded);
        }
    }
    switch (op.kind) {
      case OpKind::cnst:
        return AbsVal::word(op.imm);
      case OpKind::mov:
        return a;
      case OpKind::add: {
        i64 lo = static_cast<i64>(a.smin) + b.smin;
        i64 hi = static_cast<i64>(a.smax) + b.smax;
        AbsVal r = AbsVal::top();
        if (lo >= INT32_MIN && hi <= INT32_MAX)
            r = meetVal(r, AbsVal::fromSigned(lo, hi));
        else if (lo > INT32_MAX || hi < INT32_MIN)
            overflow = true;
        u64 uhi = static_cast<u64>(a.umax) + b.umax;
        if (uhi <= UINT32_MAX)
            r = meetVal(
                r, AbsVal::fromUnsigned(static_cast<u64>(a.umin) + b.umin,
                                        uhi));
        return r;
      }
      case OpKind::sub: {
        i64 lo = static_cast<i64>(a.smin) - b.smax;
        i64 hi = static_cast<i64>(a.smax) - b.smin;
        AbsVal r = AbsVal::top();
        if (lo >= INT32_MIN && hi <= INT32_MAX)
            r = meetVal(r, AbsVal::fromSigned(lo, hi));
        else if (lo > INT32_MAX || hi < INT32_MIN)
            overflow = true;
        if (a.umin >= b.umax)
            r = meetVal(
                r, AbsVal::fromUnsigned(static_cast<u64>(a.umin) - b.umax,
                                        static_cast<u64>(a.umax) - b.umin));
        return r;
      }
      case OpKind::mul: {
        i64 p[4] = {static_cast<i64>(a.smin) * b.smin,
                    static_cast<i64>(a.smin) * b.smax,
                    static_cast<i64>(a.smax) * b.smin,
                    static_cast<i64>(a.smax) * b.smax};
        i64 lo = *std::min_element(p, p + 4);
        i64 hi = *std::max_element(p, p + 4);
        if (lo >= INT32_MIN && hi <= INT32_MAX)
            return AbsVal::fromSigned(lo, hi);
        if (lo > INT32_MAX || hi < INT32_MIN)
            overflow = true;
        return AbsVal::top();
      }
      case OpKind::divs: {
        bool nz = b.smin > 0 || b.smax < 0;
        if (!nz)
            return AbsVal::top();
        // INT32_MIN / -1 wraps in the concrete semantics; punt.
        if (a.smin == INT32_MIN && b.smin <= -1 && b.smax >= -1)
            return AbsVal::top();
        i64 q[4] = {static_cast<i64>(a.smin) / b.smin,
                    static_cast<i64>(a.smin) / b.smax,
                    static_cast<i64>(a.smax) / b.smin,
                    static_cast<i64>(a.smax) / b.smax};
        return AbsVal::fromSigned(*std::min_element(q, q + 4),
                                  *std::max_element(q, q + 4));
      }
      case OpKind::divu:
        if (b.umin == 0)
            return AbsVal::top();
        return AbsVal::fromUnsigned(a.umin / b.umax, a.umax / b.umin);
      case OpKind::rems: {
        bool nz = b.smin > 0 || b.smax < 0;
        if (!nz)
            return AbsVal::top();
        i64 m = std::max(std::abs(static_cast<i64>(b.smin)),
                         std::abs(static_cast<i64>(b.smax))) -
                1;
        i64 lo = a.smin < 0 ? std::max(-m, static_cast<i64>(a.smin)) : 0;
        i64 hi = a.smax > 0 ? std::min(m, static_cast<i64>(a.smax)) : 0;
        return AbsVal::fromSigned(lo, hi);
      }
      case OpKind::remu:
        if (b.umin == 0)
            return AbsVal::top();
        return AbsVal::fromUnsigned(
            0, std::min(static_cast<u64>(b.umax) - 1,
                        static_cast<u64>(a.umax)));
      case OpKind::andb:
        return AbsVal::fromUnsigned(0, std::min(a.umax, b.umax));
      case OpKind::orb:
        return AbsVal::fromUnsigned(std::max(a.umin, b.umin),
                                    onesHull(a.umax | b.umax));
      case OpKind::xorb:
        return AbsVal::fromUnsigned(0, onesHull(a.umax | b.umax));
      case OpKind::shl: {
        if (!b.isConst())
            return AbsVal::top();
        unsigned k = b.constWord() & 31u;
        u64 hi = static_cast<u64>(a.umax) << k;
        if (hi > UINT32_MAX)
            return AbsVal::top();
        return AbsVal::fromUnsigned(static_cast<u64>(a.umin) << k, hi);
      }
      case OpKind::shru: {
        if (b.isConst()) {
            unsigned k = b.constWord() & 31u;
            return AbsVal::fromUnsigned(a.umin >> k, a.umax >> k);
        }
        return AbsVal::fromUnsigned(0, a.umax);
      }
      case OpKind::shrs: {
        if (b.isConst()) {
            unsigned k = b.constWord() & 31u;
            return AbsVal::fromSigned(static_cast<i64>(a.smin) >> k,
                                      static_cast<i64>(a.smax) >> k);
        }
        i64 lo = a.smin < 0 ? a.smin : 0;
        i64 hi = a.smax >= 0 ? a.smax : -1;
        return AbsVal::fromSigned(lo, hi);
      }
      case OpKind::eq:
        if (a.isConst() && b.isConst())
            return AbsVal::word(a.constWord() == b.constWord() ? 1 : 0);
        if (a.smax < b.smin || a.smin > b.smax || a.umax < b.umin ||
            a.umin > b.umax)
            return AbsVal::word(0);
        return AbsVal::fromUnsigned(0, 1);
      case OpKind::ne:
        if (a.isConst() && b.isConst())
            return AbsVal::word(a.constWord() != b.constWord() ? 1 : 0);
        if (a.smax < b.smin || a.smin > b.smax || a.umax < b.umin ||
            a.umin > b.umax)
            return AbsVal::word(1);
        return AbsVal::fromUnsigned(0, 1);
      case OpKind::lts:
        if (a.smax < b.smin)
            return AbsVal::word(1);
        if (a.smin >= b.smax)
            return AbsVal::word(0);
        return AbsVal::fromUnsigned(0, 1);
      case OpKind::ltu:
        if (a.umax < b.umin)
            return AbsVal::word(1);
        if (a.umin >= b.umax)
            return AbsVal::word(0);
        return AbsVal::fromUnsigned(0, 1);
      case OpKind::les:
        if (a.smax <= b.smin)
            return AbsVal::word(1);
        if (a.smin > b.smax)
            return AbsVal::word(0);
        return AbsVal::fromUnsigned(0, 1);
      case OpKind::leu:
        if (a.umax <= b.umin)
            return AbsVal::word(1);
        if (a.umin > b.umax)
            return AbsVal::word(0);
        return AbsVal::fromUnsigned(0, 1);
      case OpKind::land:
        if (a.excludesZero() && b.excludesZero())
            return AbsVal::word(1);
        if (a.isZero() || b.isZero())
            return AbsVal::word(0);
        return AbsVal::fromUnsigned(0, 1);
      case OpKind::lor:
        if (a.excludesZero() || b.excludesZero())
            return AbsVal::word(1);
        if (a.isZero() && b.isZero())
            return AbsVal::word(0);
        return AbsVal::fromUnsigned(0, 1);
      case OpKind::lnot:
        if (a.isZero())
            return AbsVal::word(1);
        if (a.excludesZero())
            return AbsVal::word(0);
        return AbsVal::fromUnsigned(0, 1);
      case OpKind::bnot:
        return meetVal(
            AbsVal::fromSigned(-1 - static_cast<i64>(a.smax),
                               -1 - static_cast<i64>(a.smin)),
            AbsVal::fromUnsigned(UINT32_MAX - a.umax, UINT32_MAX - a.umin));
      case OpKind::neg:
        if (a.smin == INT32_MIN)
            return AbsVal::top();
        return AbsVal::fromSigned(-static_cast<i64>(a.smax),
                                  -static_cast<i64>(a.smin));
      case OpKind::sel:
        if (a.excludesZero())
            return b;
        if (a.isZero())
            return c;
        return joinVal(b, c);
      case OpKind::norm: {
        AbsVal clamp = typeClamp(op.elem);
        if (fitsIn(a, clamp))
            return a;
        return clamp;
      }
      case OpKind::sramRead:
      case OpKind::rmwAdd:
      case OpKind::rmwSub:
        // The executor normalizes these results to op.elem.
        return typeClamp(op.elem);
      case OpKind::sramWrite:
      case OpKind::dramWrite:
        return AbsVal::word(0);
      case OpKind::dramRead:
        // DramImage::load normalizes every load to the region's
        // element type (out-of-bounds reads yield 0, inside every
        // canonical range).
        return typeClamp(op.elem);
      case OpKind::sramAlloc:
      default:
        return AbsVal::top();
    }
}

constexpr Diagnostic::Severity kWarning = Diagnostic::Severity::warning;

/**
 * Abstract execution of one block's op list over the link facts
 * @p links. Registers start as const 0 (the executor zero-initializes),
 * bundle inputs load their link values, ops run in order with guard
 * awareness, and outputs are read from the output registers. With
 * @p lint set, effect ops are evaluated too and every op that wraps
 * int32 on every input is reported as a "guaranteed-overflow" warning.
 */
void
blockEval(const Node &n, const std::vector<AbsVal> &links,
          std::vector<AbsVal> &outs, std::vector<Diagnostic> *lint)
{
    std::vector<AbsVal> regs(static_cast<size_t>(std::max(n.nRegs, 1)),
                             AbsVal::word(0));
    for (size_t i = 0; i < n.ins.size(); ++i)
        if (n.inputRegs[i] >= 0)
            regs[static_cast<size_t>(n.inputRegs[i])] =
                links[static_cast<size_t>(n.ins[i])];
    auto reg = [&](int r) {
        return r >= 0 ? regs[static_cast<size_t>(r)] : AbsVal::word(0);
    };
    for (const BlockOp &op : n.ops) {
        if (op.dst < 0 && !lint)
            continue; // effect ops don't feed the value lattice
        AbsVal gv = AbsVal::word(1);
        if (op.guard >= 0) {
            gv = reg(op.guard);
            if (gv.isZero())
                continue; // provably skipped
        }
        bool overflow = false;
        AbsVal r =
            opTransfer(op, reg(op.a), reg(op.b), reg(op.c), overflow);
        if (overflow && lint)
            lint->push_back({"absint", "guaranteed-overflow", kWarning,
                             "block '" + n.name +
                                 "' op always wraps int32 (guaranteed "
                                 "overflow)",
                             {n.id}, {}});
        if (op.dst < 0)
            continue;
        if (gv.excludesZero())
            regs[static_cast<size_t>(op.dst)] = r;
        else
            regs[static_cast<size_t>(op.dst)] =
                joinVal(regs[static_cast<size_t>(op.dst)], r);
    }
    outs.clear();
    for (size_t k = 0; k < n.outs.size(); ++k)
        outs.push_back(reg(n.outputRegs[k]));
}

struct Solver
{
    const Dfg &g;
    AbsintReport rep;
    std::vector<int> widen;

    explicit Solver(const Dfg &graph) : g(graph)
    {
        rep.links.assign(g.links.size(), AbsVal{});
        widen.assign(g.links.size(), 0);
    }

    const AbsVal &val(int link) const
    {
        return rep.links[static_cast<size_t>(link)];
    }

    /**
     * Join the new fact into a link; returns true (and enqueues the
     * consumer) when the stored value grew. After enough growth steps
     * the link widens to top so feedback loops terminate.
     */
    bool update(int link, const AbsVal &nv)
    {
        AbsVal &old = rep.links[static_cast<size_t>(link)];
        AbsVal j = joinVal(old, nv);
        if (j.bottom == old.bottom && j.smin == old.smin &&
            j.smax == old.smax && j.umin == old.umin && j.umax == old.umax)
            return false;
        if (++widen[static_cast<size_t>(link)] > 24 && !j.bottom)
            j = AbsVal::top();
        old = j;
        return true;
    }

    /** Refine a filter output lane when its data provably passes. */
    AbsVal refineLane(const Node &n, size_t j, const AbsVal &lv) const
    {
        // When the lane and the predicate are copies of the same stream
        // (both outputs of one fanout), the kept elements satisfy the
        // predicate themselves: nonzero under sense, zero otherwise.
        int laneSrc = g.links[static_cast<size_t>(n.ins[j + 1])].src;
        int predSrc = g.links[static_cast<size_t>(n.ins[0])].src;
        if (laneSrc < 0 || laneSrc != predSrc ||
            g.nodes[static_cast<size_t>(laneSrc)].kind != NodeKind::fanout)
            return lv;
        if (!n.sense)
            return meetVal(lv, AbsVal::word(0));
        AbsVal r = lv;
        if (r.smin == 0 && r.smax > 0)
            r.smin = 1;
        if (r.smax == 0 && r.smin < 0)
            r.smax = -1;
        if (r.umin == 0)
            r.umin = r.umax > 0 ? 1 : r.umin;
        return r;
    }

    /** Compute output values for one node; true if anything changed. */
    bool transfer(const Node &n)
    {
        bool changed = false;
        auto anyInBottom = [&]() {
            for (int l : n.ins)
                if (val(l).bottom)
                    return true;
            return false;
        };
        switch (n.kind) {
          case NodeKind::source: {
            // `__start` seeds a single data 0; named sources carry a
            // runtime argument.
            AbsVal v =
                n.name == "__start" ? AbsVal::word(0) : AbsVal::top();
            changed |= update(n.outs[0], v);
            break;
          }
          case NodeKind::sink:
            break;
          case NodeKind::block: {
            if (n.ins.empty() || anyInBottom())
                break; // a block without live data never fires
            std::vector<AbsVal> outs;
            blockEval(n, rep.links, outs, nullptr);
            for (size_t k = 0; k < n.outs.size(); ++k)
                changed |= update(n.outs[k], outs[k]);
            break;
          }
          case NodeKind::counter: {
            if (anyInBottom())
                break;
            const AbsVal &mn = val(n.ins[0]);
            const AbsVal &mx = val(n.ins[1]);
            const AbsVal &st = val(n.ins[2]);
            AbsVal out;
            if (st.isConst() &&
                static_cast<int32_t>(st.constWord()) > 0) {
                if (mx.smax <= mn.smin)
                    break; // zero trips on every input: stays bottom
                out = AbsVal::fromSigned(mn.smin,
                                         static_cast<i64>(mx.smax) - 1);
            } else if (st.isConst() &&
                       static_cast<int32_t>(st.constWord()) < 0) {
                if (mn.smax <= mx.smin)
                    break;
                out = AbsVal::fromSigned(static_cast<i64>(mx.smin) + 1,
                                         mn.smax);
            } else {
                // Emitted values always lie between the min and max
                // bound streams, whatever the stride sign.
                out = AbsVal::fromSigned(
                    std::min(mn.smin, mx.smin),
                    std::max<i64>(mn.smax, mx.smax));
            }
            changed |= update(n.outs[0], out);
            break;
          }
          case NodeKind::broadcast: {
            // ins[0] is the deep (pacing) stream, ins[1] the value.
            if (val(n.ins[0]).bottom)
                break;
            changed |= update(n.outs[0], val(n.ins[1]));
            break;
          }
          case NodeKind::reduce: {
            const AbsVal &in = val(n.ins[0]);
            // Reduce emits the accumulator on every group barrier even
            // when the group is empty, so the output is live as long
            // as barriers can arrive — which we can't rule out.
            AbsVal out = (in.bottom || in.isZero())
                             ? AbsVal::word(n.init)
                             : AbsVal::top();
            changed |= update(n.outs[0], out);
            break;
          }
          case NodeKind::flatten:
          case NodeKind::park:
            if (!val(n.ins[0]).bottom)
                changed |= update(n.outs[0], val(n.ins[0]));
            break;
          case NodeKind::restore:
            // Keyed restores reorder ins[0] by the key stream; values
            // are a permutation of the park stream either way.
            if (!val(n.ins[0]).bottom)
                changed |= update(n.outs[0], val(n.ins[0]));
            break;
          case NodeKind::ordinal:
            if (!val(n.ins[0]).bottom)
                changed |=
                    update(n.outs[0], AbsVal::fromSigned(0, INT32_MAX));
            break;
          case NodeKind::filter: {
            const AbsVal &pred = val(n.ins[0]);
            if (pred.bottom)
                break;
            bool keepProof =
                n.sense ? pred.excludesZero() : pred.isZero();
            bool dropProof =
                n.sense ? pred.isZero() : pred.excludesZero();
            if (dropProof)
                break; // outputs stay bottom
            for (size_t j = 0; j < n.outs.size(); ++j) {
                const AbsVal &lv = val(n.ins[j + 1]);
                if (lv.bottom)
                    continue;
                AbsVal out = keepProof ? lv : refineLane(n, j, lv);
                changed |= update(n.outs[j], out);
            }
            break;
          }
          case NodeKind::fwdMerge:
          case NodeKind::fbMerge: {
            size_t half = n.ins.size() / 2;
            for (size_t j = 0; j < n.outs.size(); ++j) {
                AbsVal out =
                    joinVal(val(n.ins[j]), val(n.ins[j + half]));
                if (!out.bottom)
                    changed |= update(n.outs[j], out);
            }
            break;
          }
          case NodeKind::fanout:
            if (!val(n.ins[0]).bottom)
                for (int l : n.outs)
                    changed |= update(l, val(n.ins[0]));
            break;
        }
        return changed;
    }

    void solve()
    {
        std::deque<int> work;
        std::vector<char> inWork(g.nodes.size(), 1);
        for (const Node &n : g.nodes)
            work.push_back(n.id);
        while (!work.empty()) {
            int nid = work.front();
            work.pop_front();
            inWork[static_cast<size_t>(nid)] = 0;
            ++rep.iterations;
            const Node &n = g.nodes[static_cast<size_t>(nid)];
            if (!transfer(n))
                continue;
            for (int l : n.outs) {
                int c = g.links[static_cast<size_t>(l)].dst;
                if (c >= 0 && !inWork[static_cast<size_t>(c)]) {
                    inWork[static_cast<size_t>(c)] = 1;
                    work.push_back(c);
                }
            }
        }
    }
};

} // namespace

AbsintReport
analyzeValues(const Dfg &g)
{
    Solver s(g);
    s.solve();
    return std::move(s.rep);
}

std::vector<Diagnostic>
lintValues(const Dfg &g, const AbsintReport &vals)
{
    std::vector<Diagnostic> out;
    auto val = [&](int link) -> const AbsVal & {
        return vals.links[static_cast<size_t>(link)];
    };
    for (const Node &n : g.nodes) {
        if (n.kind == NodeKind::filter) {
            const AbsVal &pred = val(n.ins[0]);
            bool dropProof =
                !pred.bottom &&
                (n.sense ? pred.isZero() : pred.excludesZero());
            bool anyLaneLive = false;
            for (size_t j = 1; j < n.ins.size(); ++j)
                anyLaneLive |= !val(n.ins[j]).bottom;
            if (dropProof && anyLaneLive)
                out.push_back({"absint", "dead-filter-arm", kWarning,
                               "filter '" + n.name +
                                   "' predicate is constant-" +
                                   (n.sense ? "false" : "true") +
                                   ": the arm never passes data",
                               {n.id}, {n.ins[0]}});
            continue;
        }
        if (n.kind != NodeKind::block || n.ins.empty())
            continue;
        bool deadIn = false;
        for (int l : n.ins)
            deadIn |= val(l).bottom;
        if (!deadIn) {
            std::vector<AbsVal> outs;
            blockEval(n, vals.links, outs, &out);
            continue;
        }
        bool hasEffect = false;
        for (const BlockOp &op : n.ops)
            hasEffect |= op.kind == OpKind::sramWrite ||
                         op.kind == OpKind::dramWrite ||
                         op.kind == OpKind::rmwAdd ||
                         op.kind == OpKind::rmwSub;
        if (hasEffect)
            out.push_back({"absint", "unreachable-effect", kWarning,
                           "effectful block '" + n.name +
                               "' never receives data: its memory "
                               "effects cannot fire",
                           {n.id}, {}});
    }
    return out;
}

} // namespace graph
} // namespace revet
