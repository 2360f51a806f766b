/**
 * @file
 * Channels: on-chip SLTF links between streaming primitives.
 *
 * A Channel carries Tokens from one producer to one consumer in FIFO
 * order (the vRDA network guarantees exactly-once, in-order delivery).
 * Channels default to unbounded (functional semantics); the cycle
 * simulator bounds them to model finite input buffers. Pushing onto a
 * full bounded channel throws: primitives must guard with canPush(),
 * and a missing guard is a machine-model violation, not silent growth.
 *
 * Multicast (link fan-out). On the vRDA the network delivers one
 * producer's vector to every consumer; no compute unit copies it.
 * Engine::multicast(in, outs) models that: each `out` becomes a *read
 * cursor* over `in`'s ring. The producer writes (and records) each
 * token once into the group's shared ring; every cursor has its own
 * head and count, so each consumer reads the whole stream at its own
 * pace, and the ring grows only when the cursor furthest behind would
 * otherwise be overwritten. `in` itself (the group's *root*) and any
 * earlier link of a fanout chain hold no tokens and have no reader —
 * a multicast from a cursor joins the root's group, so chains of
 * fanouts become one group. Every link of a group reports the group's
 * totalPushed() and watch(), which is exactly what a copying fanout
 * would have pushed onto it. A bounded cursor throttles the producer:
 * the root's canPush() checks every cursor (the root's own capacity
 * no longer applies).
 *
 * Channels created through Engine::channel() carry back-references to
 * their producer and consumer Process (filled in when the process is
 * registered) and notify the engine's worklist scheduler on readiness
 * transitions: empty -> non-empty wakes the consumer, full -> non-full
 * wakes the producer. For a cursor these are the cursor's own edges,
 * and its producer is the group's producer. Primitives only ever
 * examine channel heads, emptiness, and free capacity, so these two
 * edges are exactly the events that can turn a blocked process
 * runnable.
 *
 * Concurrency contract (Engine::Policy::parallel): every channel has at
 * most one producer and one consumer process — a multicast group has
 * one producer and one consumer per cursor — and the engine never runs
 * the same process on two workers at once, so each end of a channel is
 * single-threaded. The FIFO is a power-of-two ring buffer that doubles
 * when full (the functional semantics need unbounded channels); during
 * a parallel run it is guarded by a per-channel spinlock (critical
 * sections are a handful of loads and stores) — one per group for a
 * multicast: the producer's push and ring growth and every cursor's
 * pop/front take the root's lock — and the element count is mirrored
 * in a seq_cst atomic (per cursor, for a group) so the lock-free
 * predicates empty()/size()/canPush() are exact snapshots. The
 * predicates are *monotone-safe* per endpoint: only the consumer pops,
 * so a non-empty observation by the consumer stays true until it acts
 * on it; only the producer pushes, so free capacity observed by the
 * producer cannot shrink. front() returns the head by value under the
 * lock, because a concurrent push may regrow the ring. Serial runs
 * take the inline fast paths: no lock, and the size mirror is a
 * relaxed store.
 * Mutating configuration (setCapacity, bindEngine, setProducer/
 * setConsumer, multicast wiring) and the read-back accessors
 * (totalPushed, watch, drain) are setup/post-run-only: they must not
 * race with an active run.
 *
 * A Bundle is a set of channels that move one thread's live values
 * together: primitives that reorder threads (merges, filters) operate on
 * whole bundles so live values never separate from their thread.
 */

#ifndef REVET_DATAFLOW_CHANNEL_HH
#define REVET_DATAFLOW_CHANNEL_HH

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sltf/token.hh"

namespace revet
{
namespace dataflow
{

using sltf::Token;
using sltf::TokenStream;
using sltf::Word;

class Channel;
class Engine;
class Process;

/**
 * Minimal test-and-set spinlock (BasicLockable, usable with
 * std::lock_guard). Chosen over std::mutex for the per-channel and
 * per-deque hot paths: critical sections are a few pointer moves, the
 * uncontended cost is one acquire CAS, and acquire/release on the flag
 * gives ThreadSanitizer an exact happens-before edge to verify. Spins
 * yield after a short burst so a preempted holder on an oversubscribed
 * host cannot starve the waiter.
 */
class SpinLock
{
  public:
    void
    lock()
    {
        int spins = 0;
        while (flag_.test_and_set(std::memory_order_acquire)) {
            if (++spins >= 64) {
                spins = 0;
                std::this_thread::yield();
            }
        }
    }

    void unlock() { flag_.clear(std::memory_order_release); }

  private:
    std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
};

/**
 * The shared state of one multicast group (see the file comment),
 * owned by its root channel and referenced by every member.
 */
struct MulticastGroup
{
    Channel *root = nullptr;
    /** Read ends, in wiring order; each is one consumer's cursor. */
    std::vector<Channel *> cursors;
    /** Every member that is not a cursor: the root, then the retired
     * links of a fanout chain. They hold no tokens. */
    std::vector<Channel *> links;
    /** Power-of-two size (empty until the first push), written once
     * per token. */
    std::vector<Token> ring;
    size_t tail = 0;         ///< ring index of the next write
    /** Cursors whose empty -> non-empty edge a locked push must
     * announce once the lock is released; only the producer uses it. */
    std::vector<Channel *> woken;
};

/** One on-chip link: a FIFO of SLTF tokens with optional capacity. */
class Channel
{
  public:
    static constexpr size_t unbounded =
        std::numeric_limits<size_t>::max();

    explicit Channel(std::string name = "", size_t capacity = unbounded)
        : name_(std::move(name)), capacity_(capacity)
    {}

    const std::string &name() const { return name_; }

    // The atomic mirror of the element count makes these predicates exact,
    // lock-free snapshots; see the file comment for why each endpoint
    // may act on them without holding the lock. seq_cst (not acquire)
    // so they participate in the scheduler's single total order with
    // the per-process notification latch — the property that makes a
    // missed parallel wakeup impossible rather than merely unlikely.
    bool empty() const { return size_.load(std::memory_order_seq_cst) == 0; }
    size_t size() const { return size_.load(std::memory_order_seq_cst); }
    size_t capacity() const { return capacity_; }
    /** Setup-only: must not race with an active run. */
    void setCapacity(size_t capacity);

    /** True when a push would be accepted: free capacity here, or, on
     * a multicast root with a bounded cursor, on every cursor. */
    bool
    canPush() const
    {
        if (gated_)
            return cursorsCanPush();
        return size_.load(std::memory_order_seq_cst) < capacity_;
    }

    /**
     * Append @p tok. @throws std::runtime_error when the channel is
     * already at capacity — the caller forgot a canPush() guard — or
     * when it is a multicast link other than the root.
     */
    void
    push(const Token &tok)
    {
        if (group_ != nullptr) {
            if (concurrent_ || group_->root != this) {
                multicastPushLocked(tok);
                return;
            }
            multicastAppend(tok, std::memory_order_relaxed,
                            [](Channel *c) {
                                if (c->engine_)
                                    c->notifyTokenAvailable();
                            });
            return;
        }
        if (concurrent_) {
            pushLocked(tok);
            return;
        }
        if (append(tok, std::memory_order_relaxed) && engine_)
            notifyTokenAvailable();
    }

    /** Push every token of @p stream (unbounded use only). */
    void
    pushAll(const TokenStream &stream)
    {
        for (const Token &tok : stream)
            push(tok);
    }

    /** Head token, by value; consumer-side only. Undefined on an
     * empty channel. */
    Token
    front() const
    {
        if (concurrent_)
            return frontLocked();
        return buf_[head_];
    }

    /**
     * Remove and return the head token.
     * @throws std::runtime_error on an empty channel.
     */
    Token
    pop()
    {
        if (concurrent_)
            return popLocked();
        bool was_full = false;
        const Token tok = take(std::memory_order_relaxed, was_full);
        if (was_full && engine_)
            notifySpaceAvailable();
        return tok;
    }

    /** Lifetime token count, for stats and link-bandwidth analysis
     * (a multicast link reports its group's). Read-back is
     * post-run-only. */
    uint64_t
    totalPushed() const
    {
        return watch().dataPushed + watch().barriersPushed;
    }

    /** Observed data-word summary over the channel's lifetime: the
     * concrete-execution side of the abstract-interpretation soundness
     * oracle (graph/absint.hh). Extremes are meaningless until the
     * first data token (dataPushed() == 0). Read-back is
     * post-run-only. */
    struct ValueWatch
    {
        uint64_t dataPushed = 0;
        uint64_t barriersPushed = 0;
        Word first = 0;
        bool allEqual = true;
        int32_t smin = std::numeric_limits<int32_t>::max();
        int32_t smax = std::numeric_limits<int32_t>::min();
        Word umin = std::numeric_limits<Word>::max();
        Word umax = 0;
    };

    /** The value summary; every link of a multicast group reports the
     * group's, recorded once per token by the root. */
    const ValueWatch &
    watch() const
    {
        return group_ != nullptr ? group_->root->watch_ : watch_;
    }

    /** Drain the remaining contents into a TokenStream (post-run). */
    TokenStream drain();

    /** Return the channel to its just-constructed state — FIFO, the
     * lifetime token count, and the value watch all cleared — so an
     * execution context can serve a fresh request over the same wiring
     * (graph::ExecutionContext). On a multicast cursor it drops only
     * that cursor's pending tokens; on any other member of a group it
     * resets the whole group. Setup-only, like setCapacity: must not
     * race with an active run. */
    void resetForReuse();

    /** The process that pushes into this channel (may be null); for a
     * multicast link, the group's producer. */
    Process *
    producer() const
    {
        return group_ != nullptr ? group_->root->producer_ : producer_;
    }
    /** The process that pops from this channel (may be null). */
    Process *consumer() const { return consumer_; }

    /** This channel's multicast group, or null on a point-to-point
     * link. */
    const MulticastGroup *multicastGroup() const { return group_; }
    /** True when this channel is a read cursor of a multicast group. */
    bool isMulticastCursor() const { return cursor_; }

    /** Scheduler wiring — called by Engine at registration time. */
    void bindEngine(Engine *engine) { engine_ = engine; }
    void setProducer(Process *p) { producer_ = p; }
    void setConsumer(Process *p) { consumer_ = p; }

    /** Engine-internal: toggled at Policy::parallel run boundaries
     * (before worker spawn / after join, so the flag itself is ordered
     * by thread creation and join). While false — the default, and the
     * state during every single-threaded run — push/pop/front skip the
     * spinlock and the seq_cst size mirror, which are pure overhead
     * when both channel endpoints live on one thread. */
    void setConcurrent(bool on) { concurrent_ = on; }

  private:
    friend class Engine;

    /** Engine::multicast's wiring: make every channel of @p outs a
     * read cursor over @p in's ring (joining @p in's group when it is
     * itself a cursor, and folding in any group an out already roots).
     * @throws std::logic_error on a wiring that would give a link two
     * writers or two readers, or on a non-empty channel. */
    static void wireMulticast(Channel *in,
                              const std::vector<Channel *> &outs);

    // Locked twins of push/pop/front for parallel runs (channel.cc).
    // multicastPushLocked also rejects a push on a non-root member.
    void pushLocked(const Token &tok);
    void multicastPushLocked(const Token &tok);
    Token popLocked();
    Token frontLocked() const;
    void notifyTokenAvailable();
    void notifySpaceAvailable();
    [[noreturn]] void throwOverflow() const;
    [[noreturn]] void throwUnderflow() const;
    void grow();
    void growMulticast();
    void refreshGate();

    /** The lock guarding this channel's ring: its own, or for a cursor
     * the group root's. */
    SpinLock &
    ringLock() const
    {
        return cursor_ ? group_->root->mu_ : mu_;
    }

    bool
    cursorsCanPush() const
    {
        for (const Channel *c : group_->cursors) {
            if (c->size_.load(std::memory_order_seq_cst) >= c->capacity_)
                return false;
        }
        return true;
    }

    /** Append @p tok and publish the new count with @p order; returns
     * true on the empty -> non-empty transition. */
    bool
    append(const Token &tok, std::memory_order order)
    {
        if (count_ >= capacity_)
            throwOverflow();
        if (count_ == ring_.size())
            grow();
        ring_[(head_ + count_) & mask_] = tok;
        ++count_;
        record(tok);
        size_.store(count_, order);
        return count_ == 1;
    }

    /** Producer side of a multicast push (called on the root): write
     * @p tok once, advance every cursor's count with @p order, and
     * hand each cursor that went empty -> non-empty to @p on_edge.
     * The ring grows first when the cursor furthest behind still holds
     * a token in every slot. */
    template <typename OnEdge>
    void
    multicastAppend(const Token &tok, std::memory_order order,
                    OnEdge &&on_edge)
    {
        MulticastGroup &g = *group_;
        bool full = false;
        for (const Channel *c : g.cursors) {
            if (c->count_ >= c->capacity_)
                c->throwOverflow();
            full |= c->count_ == g.ring.size();
        }
        if (full)
            growMulticast();
        g.ring[g.tail] = tok;
        g.tail = (g.tail + 1) & (g.ring.size() - 1);
        record(tok);
        for (Channel *c : g.cursors) {
            ++c->count_;
            c->size_.store(c->count_, order);
            if (c->count_ == 1)
                on_edge(c);
        }
    }

    /** Remove the head and publish the new count with @p order;
     * @p was_full reports the full -> non-full transition. The same
     * code serves plain channels and multicast cursors: buf_/mask_
     * view whichever ring holds this channel's tokens. */
    Token
    take(std::memory_order order, bool &was_full)
    {
        if (count_ == 0)
            throwUnderflow();
        was_full = count_ == capacity_;
        const Token tok = buf_[head_];
        head_ = (head_ + 1) & mask_;
        --count_;
        size_.store(count_, order);
        return tok;
    }

    void
    record(const Token &tok)
    {
        if (tok.isBarrier()) {
            ++watch_.barriersPushed;
            return;
        }
        const Word w = tok.word();
        const int32_t s = tok.asInt();
        if (watch_.dataPushed == 0)
            watch_.first = w;
        else
            watch_.allEqual &= w == watch_.first;
        watch_.smin = s < watch_.smin ? s : watch_.smin;
        watch_.smax = s > watch_.smax ? s : watch_.smax;
        watch_.umin = w < watch_.umin ? w : watch_.umin;
        watch_.umax = w > watch_.umax ? w : watch_.umax;
        ++watch_.dataPushed;
    }

    std::string name_;
    size_t capacity_;
    bool concurrent_ = false; ///< see setConcurrent()
    bool cursor_ = false;     ///< a multicast group's read cursor
    /** A multicast root with a bounded cursor: canPush() checks every
     * cursor. */
    bool gated_ = false;
    /** Guards the ring and watch_; a root's guards its whole group. */
    mutable SpinLock mu_;
    std::vector<Token> ring_; ///< power-of-two size (or empty)
    /** The ring this channel reads: ring_, or for a cursor its
     * group's; mask_ is that ring's size minus one. */
    Token *buf_ = nullptr;
    size_t mask_ = 0;
    size_t head_ = 0;         ///< ring index of the oldest token
    size_t count_ = 0;        ///< tokens queued
    std::atomic<size_t> size_{0}; ///< mirrors count_
    ValueWatch watch_;
    Engine *engine_ = nullptr;
    Process *producer_ = nullptr;
    Process *consumer_ = nullptr;
    MulticastGroup *group_ = nullptr; ///< null on a point-to-point link
    std::unique_ptr<MulticastGroup> ownedGroup_; ///< set on a root
};

/** A group of channels carrying one thread's live values in lockstep. */
using Bundle = std::vector<Channel *>;

/** True when every channel of @p bundle has a token available. */
inline bool
allHaveToken(const Bundle &bundle)
{
    for (const Channel *ch : bundle) {
        if (ch->empty())
            return false;
    }
    return true;
}

/** True when every channel of @p bundle can accept a token. */
inline bool
allCanPush(const Bundle &bundle)
{
    for (const Channel *ch : bundle) {
        if (!ch->canPush())
            return false;
    }
    return true;
}

/**
 * Classify the aligned heads of @p bundle: returns the barrier level if
 * every head is a barrier (asserting they agree), 0 if every head is
 * data.
 *
 * @throws std::runtime_error if heads are misaligned (mix of data and
 * barriers, or differing barrier levels) — a machine-model invariant
 * violation.
 */
int bundleHeadKind(const Bundle &bundle);

/** Push the same barrier onto every channel of @p bundle. */
inline void
pushBarrier(const Bundle &bundle, int level)
{
    for (Channel *ch : bundle)
        ch->push(Token::barrier(level));
}

} // namespace dataflow
} // namespace revet

#endif // REVET_DATAFLOW_CHANNEL_HH
