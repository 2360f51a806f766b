/**
 * @file
 * Channels: on-chip SLTF links between streaming primitives.
 *
 * A Channel carries Tokens from one producer to its consumers in FIFO
 * order (the vRDA network guarantees exactly-once, in-order delivery).
 *
 * One model: a ring per writer and a cursor per reader. Every channel
 * owns a token ring (a power-of-two buffer, its write position, the
 * token counts, the value watch and the writer's lock) and reads
 * through one cursor (head, count, capacity and a size mirror). A new
 * channel is a point-to-point link: a one-reader ring whose only
 * cursor is its own.
 * A push writes and records the token once and advances every reader's
 * count; the ring doubles right after the write that fills it, i.e.
 * once the reader furthest behind holds a token in every slot.
 *
 * Multicast (link fan-out). On the vRDA the network delivers one
 * producer's vector to every consumer; no compute unit copies it.
 * Engine::multicast(in, outs) models that by rewiring rings: `in`
 * stops reading its ring, and each out's ring is folded into `in`'s,
 * so each out — and every cursor that already read the out's ring —
 * becomes a *cursor* of that one ring, reading the whole stream at its
 * own pace. The channel that owns the ring is its *root*; `in`, when
 * it was itself a cursor, and every out that was a root become *chain
 * links*, so a chain of fanouts wired in any order is one ring. Roots
 * and chain links hold no tokens and have no reader, and every link of
 * a ring reports the ring's totalPushed() and watch(): exactly what a
 * copying fanout would have pushed onto it.
 *
 * Capacity belongs to the reader. Channels default to unbounded
 * (functional semantics); the cycle simulator bounds them to model
 * finite input buffers. canPush() holds while every bounded reader of
 * the ring has room, so a bounded cursor throttles the ring's producer
 * (a root reads nothing, so its own capacity never applies). A push
 * that finds a bounded reader full throws before it changes anything:
 * primitives must guard with canPush(), and a missing guard is a
 * machine-model violation, not silent growth.
 *
 * Channels created through Engine::channel() carry back-references to
 * their producer and consumer Process (filled in when the process is
 * registered; the engine rejects a second writer or reader) and notify
 * the engine's worklist scheduler on each reader's readiness
 * transitions: empty -> non-empty wakes that reader's consumer, full
 * -> non-full wakes the ring's producer. Primitives only ever examine
 * channel heads, emptiness, and free capacity, so these two edges are
 * exactly the events that can turn a blocked process runnable.
 *
 * Concurrency contract (Engine::Policy::parallel): every ring has one
 * producer process and one consumer process per reader, and the engine
 * never runs the same process on two workers at once, so each end of a
 * link is single-threaded. During a parallel run the root's spinlock
 * guards its ring: the producer's push and ring growth and every
 * reader's pop/front take it (critical sections are a handful of loads
 * and stores). Each reader's element count is mirrored in a seq_cst
 * atomic so the lock-free predicates empty()/size()/canPush() are
 * exact snapshots. The predicates are *monotone-safe* per endpoint:
 * only the consumer pops, so a non-empty observation by the consumer
 * stays true until it acts on it; only the producer pushes, so free
 * capacity observed by the producer cannot shrink. front() returns the
 * head by value under the lock, because a concurrent push may regrow
 * the ring. Serial runs take the inline fast paths: no lock, and the
 * size mirror is a relaxed store.
 * Mutating configuration (setCapacity, setValueWatch, bindEngine,
 * setProducer/setConsumer, multicast wiring) and the read-back
 * accessors (totalPushed, watch, drain) are setup/post-run-only: they
 * must not race with an active run.
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

/** One on-chip link: a token ring and this link's read cursor on a
 * ring (its own, unless it is a multicast cursor). */
class Channel
{
  public:
    static constexpr size_t unbounded =
        std::numeric_limits<size_t>::max();

    explicit Channel(std::string name = "", size_t capacity = unbounded)
        : name_(std::move(name)), capacity_(capacity),
          gated_(capacity != unbounded)
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

    /** True when a push would be accepted: every bounded reader of
     * this channel's ring has room. */
    bool canPush() const { return !gated_ || fullReader() == nullptr; }

    /**
     * Append @p tok. @throws std::runtime_error when a bounded reader
     * is already full — the caller forgot a canPush() guard — or when
     * this channel is a multicast cursor or chain link, which only the
     * ring's root writes.
     */
    void
    push(const Token &tok)
    {
        if (concurrent_ || ring_ != this) {
            pushLocked(tok);
            return;
        }
        append(tok, std::memory_order_relaxed, [](Channel *c) {
            if (c->engine_)
                c->notifyTokenAvailable();
        });
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

    /** Lifetime token count of this channel's ring, for stats and
     * link-bandwidth analysis. Read-back is post-run-only. */
    uint64_t
    totalPushed() const
    {
        return watch().dataPushed + watch().barriersPushed;
    }

    /** The channel's lifetime token counts and observed data-word
     * summary: the concrete-execution side of the
     * abstract-interpretation soundness oracle (graph/absint.hh). The
     * counts are always recorded. The summary (first, allEqual and the
     * extremes) is recorded only while the ring's value watch is on
     * (setValueWatch), and is meaningless until the first data token
     * (dataPushed == 0). Read-back is post-run-only. */
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

    /** The counts and value summary of this channel's ring, recorded
     * once per token by its root. */
    const ValueWatch &watch() const { return root()->watch_; }

    /** Record the value summary of this channel's ring (off by
     * default: a push then only counts). Switches the whole ring, so
     * call it after multicast wiring. Setup-only. */
    void setValueWatch(bool on) { root()->watchValues_ = on; }

    /** Drain the remaining contents into a TokenStream (post-run). */
    TokenStream drain();

    /** Return the channel to its just-constructed state — pending
     * tokens, the lifetime token counts, and the value summary all
     * cleared; the value watch switch is kept — so an execution
     * context can serve a fresh request over the same wiring
     * (graph::ExecutionContext). On a multicast cursor it drops
     * only that cursor's pending tokens; on any other channel it resets
     * its whole ring. Setup-only, like setCapacity: must not race with
     * an active run. */
    void resetForReuse();

    /** The process that pushes into this channel's ring (may be
     * null). */
    Process *producer() const { return root()->producer_; }
    /** The process that pops from this channel (may be null). */
    Process *consumer() const { return consumer_; }

    /** The channel whose ring carries this link's tokens: the channel
     * itself, unless it is a multicast cursor or chain link. */
    const Channel *ringRoot() const { return root(); }
    /** True when this channel reads another channel's ring. */
    bool isMulticastCursor() const { return reader_ && ring_ != this; }
    /** The readers of this channel's own ring, in wiring order: the
     * channel itself on a point-to-point link, its cursors on a
     * multicast root, none on a cursor or chain link. */
    std::vector<const Channel *> readers() const;
    /** Slots in this channel's ring (16, doubling as it grows). */
    size_t ringSlots() const { return root()->slots_.size(); }

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

    /** Engine::multicast's wiring: @p in stops reading its ring and
     * every ring of @p outs is folded into it (see the file comment).
     * @throws std::logic_error on a wiring that would give a link two
     * writers or two readers, or on a non-empty channel. */
    static void wireMulticast(Channel *in,
                              const std::vector<Channel *> &outs);

    // Locked twins of push/pop/front for parallel runs (channel.cc).
    // pushLocked also rejects a push on a cursor or chain link.
    void pushLocked(const Token &tok);
    Token popLocked();
    Token frontLocked() const;
    void notifyTokenAvailable();
    void notifySpaceAvailable();
    [[noreturn]] void throwOverflow() const;
    [[noreturn]] void throwUnderflow() const;
    void grow();
    void refreshGate();

    /** The root of this channel's ring. Every reader points at it
     * directly; a chain link may reach it through a folded root. */
    Channel *
    root() const
    {
        Channel *c = ring_;
        while (c->ring_ != c)
            c = c->ring_;
        return c;
    }

    /** The first reader of this channel's ring with no room left, or
     * null. */
    const Channel *
    fullReader() const
    {
        for (const Channel *c = readers_; c != nullptr; c = c->next_) {
            if (c->size_.load(std::memory_order_seq_cst) >= c->capacity_)
                return c;
        }
        return nullptr;
    }

    /** Producer side of a push (on the ring's root): write @p tok
     * once, advance every reader's count with @p order, and hand each
     * reader that went empty -> non-empty to @p on_edge. The ring
     * doubles right after the write that fills it, so it always has a
     * free slot for the next one. */
    template <typename OnEdge>
    void
    append(const Token &tok, std::memory_order order, OnEdge &&on_edge)
    {
        if (gated_) {
            if (const Channel *full = fullReader())
                full->throwOverflow();
        }
        buf_[tail_] = tok;
        tail_ = (tail_ + 1) & mask_;
        record(tok);
        bool filled = false;
        for (Channel *c = readers_; c != nullptr; c = c->next_) {
            ++c->count_;
            c->size_.store(c->count_, order);
            filled |= c->count_ > mask_;
            if (c->count_ == 1)
                on_edge(c);
        }
        if (filled)
            grow();
    }

    /** Remove the head and publish the new count with @p order;
     * @p was_full reports the full -> non-full transition. */
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
        if (watchValues_)
            summarize(tok);
        ++watch_.dataPushed;
    }

    void
    summarize(const Token &tok)
    {
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
    }

    std::string name_;
    size_t capacity_; ///< bounds this channel's reads
    bool concurrent_ = false; ///< see setConcurrent()
    bool reader_ = true;      ///< reads ring_ (false on a root/chain link)
    /** Some reader of this ring is bounded: pushes check for room. */
    bool gated_;
    /** Set by a locked push on each reader it woke, cleared once the
     * producer has notified it outside the lock. */
    bool woken_ = false;
    /** Guards this channel's ring during a parallel run. */
    mutable SpinLock mu_;

    // The ring (used on a root: ring_ == this).
    std::vector<Token> slots_ = std::vector<Token>(16, Token::data(0));
    /** The slots of ring_'s ring and their count minus one, as the
     * root writes and each reader reads them: growth refreshes the
     * root's and every reader's copy, so neither end chases ring_ (a
     * chain link reads nothing, and its copy may go stale). */
    Token *buf_ = slots_.data();
    size_t mask_ = 15;
    size_t tail_ = 0;         ///< slot of the next write
    ValueWatch watch_;
    bool watchValues_ = false; ///< see setValueWatch()
    Channel *readers_ = this; ///< intrusive list through next_

    // The cursor (used on a reader).
    /** The channel whose ring this one reads, or for a chain link the
     * channel its ring was folded into. */
    Channel *ring_ = this;
    Channel *next_ = nullptr; ///< next reader of ring_
    size_t head_ = 0;         ///< slot of the oldest pending token
    size_t count_ = 0;        ///< tokens pending for this reader
    std::atomic<size_t> size_{0}; ///< mirrors count_

    Engine *engine_ = nullptr;
    Process *producer_ = nullptr;
    Process *consumer_ = nullptr;
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
