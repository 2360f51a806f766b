/**
 * @file
 * Abstract interpretation over the dataflow graph.
 *
 * A forward dataflow framework over `Dfg` links: every link carries an
 * abstract value (`AbsVal`) describing all data words that can ever be
 * pushed on it — bottom (provably no data tokens, only barriers), a
 * constant, or a signed/unsigned interval pair over the 32-bit lane.
 * A worklist fixpoint solver runs sound transfer functions per node
 * kind: block ALU ops (with `evalPureOp` as the concrete oracle for
 * all-constant operands), counters (min/max/step bounds), filters and
 * merges (join over arms, const-predicate arm pruning), fanouts,
 * replicate plumbing, and park/restore pairs.
 *
 * Consumers of the fixpoint (`analyzeValues`): `CrossBlockConstProp`
 * (graph rewrites from constancy and bottom facts), width-driven
 * `SubwordPack` (packs i32 lanes whose range fits 8/16 bits),
 * `validateRewrite()` and `analyzeGraph()` (counter trip counts for
 * rate analysis and the deadlock lint), and the fuzz harness's
 * soundness oracle. The value-range lints are a separate sweep over a
 * solved report, `lintValues`, which returns `Diagnostic`s and is run
 * only by `analyzeGraph()`.
 *
 * Soundness contract, checked by the fuzz harness's runtime oracle:
 * for every data word w observed on link L in a completed execution,
 *   links[L].bottom == false,
 *   smin <= (int32_t)w <= smax, and umin <= (uint32_t)w <= umax.
 */

#ifndef REVET_GRAPH_ABSINT_HH
#define REVET_GRAPH_ABSINT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/dfg.hh"
#include "lang/type.hh"

namespace revet
{
namespace graph
{

/**
 * Abstract value for one link: bottom, or a pair of intervals over the
 * signed and unsigned interpretation of the 32-bit lane word. A
 * constant is an interval of width zero in both interpretations.
 */
struct AbsVal
{
    bool bottom = true;       ///< no data token can ever appear
    int32_t smin = INT32_MIN; ///< signed interval (valid when !bottom)
    int32_t smax = INT32_MAX;
    uint32_t umin = 0;        ///< unsigned interval (valid when !bottom)
    uint32_t umax = UINT32_MAX;

    /** Unconstrained value (both intervals full). */
    static AbsVal top();

    /** The single 32-bit word w. */
    static AbsVal word(uint32_t w);

    /**
     * Interval from signed 64-bit bounds; falls back to top if the
     * range does not fit int32. The unsigned interval is the hull of
     * the bit patterns.
     */
    static AbsVal fromSigned(int64_t lo, int64_t hi);

    /** Interval from unsigned 64-bit bounds (top if it exceeds u32). */
    static AbsVal fromUnsigned(uint64_t lo, uint64_t hi);

    bool isTop() const;
    bool isConst() const;

    /** The constant word, when isConst(). */
    uint32_t constWord() const;

    /** True if the word w is described by this value. */
    bool contains(uint32_t w) const;

    /** True if zero is excluded from the value set. */
    bool excludesZero() const;

    /** True if every described word is a nonzero word. */
    bool isZero() const;
};

/** Least upper bound (set union hull). */
AbsVal joinVal(const AbsVal &a, const AbsVal &b);

/** Intersection of two sound descriptions of the same value. */
AbsVal meetVal(const AbsVal &a, const AbsVal &b);

/** Canonical value range of a scalar type (post-`lang::normalize`). */
AbsVal typeClamp(lang::Scalar elem);

/**
 * Narrowest scalar type whose canonical range covers v, for sub-word
 * packing: u8/i8/u16/i16 (unsigned preferred), or nullopt if only a
 * full 32-bit lane fits. Bottom packs as anything; returns u8.
 */
std::optional<lang::Scalar> packElem(const AbsVal &v);

/** Result of a value-analysis fixpoint. */
struct AbsintReport
{
    std::vector<AbsVal> links; ///< per link id
    int iterations = 0;        ///< worklist pops until fixpoint

    /** Constant value of a link (signed view), if proven. */
    std::optional<int32_t> constantOf(int link) const;
};

/**
 * Run the value-analysis fixpoint over a verified graph. Always
 * terminates (interval widening after repeated updates per link).
 */
AbsintReport analyzeValues(const Dfg &g);

struct Diagnostic; // graph/analyze.hh

/**
 * Value-range lints over the solved facts @p vals of @p g, all
 * warnings of analysis "absint": "guaranteed-overflow" (a block op
 * wraps int32 on every input), "dead-filter-arm" (a filter's constant
 * predicate never passes data) and "unreachable-effect" (an effectful
 * block never receives data).
 */
std::vector<Diagnostic> lintValues(const Dfg &g, const AbsintReport &vals);

} // namespace graph
} // namespace revet

#endif // REVET_GRAPH_ABSINT_HH
