/**
 * @file
 * Channels: on-chip SLTF links between streaming primitives.
 *
 * A Channel carries Tokens from one producer to its consumers in FIFO
 * order (the vRDA network guarantees exactly-once, in-order delivery).
 *
 * One model: a ring per producer and a cursor per consumer argument.
 *
 * Ring. Every primitive pushes the same run or barrier onto each of
 * its output lanes, so a producer's outputs move in lockstep. A Ring
 * holds them all: one tag per slot (data, or barrier level k) and one
 * word column per output lane, under one tail, one mask and one growth
 * rule. Registering a process (Engine::make) folds its output lanes'
 * rings into one, column j carrying output lane j. A firing then
 * appends its whole run with one push: one growth check, one tag
 * write per token, one word copy per column, and per cursor one count
 * update, one size-mirror store and at most one empty -> non-empty
 * wakeup. The ring's slot count always ends where single pushes would
 * leave it: it doubles until it holds more tokens than the cursor
 * furthest behind has pending.
 *
 * Cursor. A consumer reads each bundle argument through one Cursor per
 * producer ring: head, count, capacity, a size mirror, the consumer,
 * and the column map of the lanes it serves (ring column -> position
 * in the argument; a column may appear twice). Lanes of one argument
 * that share a ring are consumed together, so they share one cursor:
 * one emptiness check, one head classification (from the tag column)
 * and one consume per firing, and one wakeup per push. Cursors group
 * within one bundle argument only: Broadcast's deep and shallow
 * inputs, and the two sides of a merge, move at different rates.
 *
 * A new channel is a point-to-point link: a width-1 ring read by one
 * single-lane cursor of its own, and the Channel API (push, peek,
 * consume, ...) is that link's view. Primitives move bundles through
 * Ring::pushRun/pushBarrier and Cursor::peekRun/consume; a Channel's
 * own pushes and consumes need a ring and a cursor serving that one
 * lane.
 *
 * Multicast (link fan-out). On the vRDA the network delivers one
 * producer's vector to every consumer; no compute unit copies it.
 * Engine::multicast(in, outs) models that: `in` stops reading, and
 * each out — and every cursor that already read the out's ring — reads
 * `in`'s ring column through a cursor of its own, at its own pace. A
 * fanout output is thus a cursor on its producer's ring, and lanes
 * that reach one consumer argument through fanouts group like direct
 * ones. The channel whose lane a column carries is the *root* of
 * every link reading it; a link that neither carries a column nor
 * reads (a fanout input) is a *chain link*. Every link reports its
 * ring's token counts and its column's value summary: exactly what a
 * copying fanout would have pushed onto it.
 *
 * Wakeup order. A ring keeps its cursors in the order the lane-by-lane
 * pushes of a firing first reached them (by first column, then in
 * wiring order), so one push per firing wakes consumers in that order,
 * and the worklist schedule is the lane-by-lane one.
 *
 * Capacity belongs to the reader. Channels default to unbounded
 * (functional semantics); the cycle simulator bounds them to model
 * finite input buffers. A cursor's capacity is the least of its
 * lanes', and room() is the least free space of the ring's bounded
 * cursors, so a bounded cursor throttles the ring's producer (a fanout
 * input reads nothing, so its own capacity never applies). A push
 * longer than room() throws before it changes anything: primitives
 * must size their runs by room() (or guard a single token with
 * canPush()), and a missing guard is a machine-model violation, not
 * silent growth.
 *
 * Channels created through Engine::channel() carry back-references to
 * their producer and consumer Process (filled in when the process is
 * registered; the engine rejects a second writer or reader) and notify
 * the engine's worklist scheduler on each cursor's readiness
 * transitions: empty -> non-empty wakes that cursor's consumer, full
 * -> non-full wakes the ring's producer. Primitives only ever examine
 * channel heads, emptiness, and free capacity, so these two edges are
 * exactly the events that can turn a blocked process runnable.
 *
 * Concurrency contract (Engine::Policy::parallel): every ring has one
 * producer process and one consumer process per cursor, and the engine
 * never runs the same process on two workers at once, so each end of a
 * link is single-threaded. During a parallel run the ring's spinlock
 * guards it: one acquire covers a whole run, whether the producer's
 * append (with its ring growth) or a cursor's read or consume. Each
 * cursor's element count is mirrored in a seq_cst atomic so the
 * lock-free predicates empty()/size()/room() are exact snapshots. The
 * predicates are *monotone-safe* per endpoint: only the consumer
 * consumes, so the tokens a consumer has read stay pending until it
 * consumes them; only the producer appends, so free room observed by
 * the producer cannot shrink. A read copies the run out under the
 * lock, because a concurrent append may regrow the ring, and sees a
 * snapshot: tokens appended after it are the next firing's work.
 * Serial runs take the inline fast paths: no lock, and the size
 * mirror is a relaxed store.
 * Mutating configuration (setValueWatch, bindEngine, process
 * registration, multicast wiring) and the read-back accessors
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
#include <cstring>
#include <limits>
#include <mutex>
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
class Cursor;
class Engine;
class Process;
class Ring;

/**
 * Minimal test-and-set spinlock (BasicLockable, usable with
 * std::lock_guard). Chosen over std::mutex for the per-ring and
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

/** A link's lifetime token counts and observed data-word summary: the
 * concrete-execution side of the abstract-interpretation soundness
 * oracle (graph/absint.hh). The counts are always recorded. The
 * summary (first, allEqual and the extremes) is recorded only while
 * the ring's value watch is on (Channel::setValueWatch), and is
 * meaningless until the first data token (dataPushed == 0). */
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

/** One consumer argument's read position on one ring; see the file
 * comment. */
class Cursor
{
  public:
    /** A lane the cursor serves: ring column @c col fills position
     * @c pos of the consumer's bundle argument. */
    struct Lane
    {
        uint32_t col;
        uint32_t pos;
        Channel *ch;
    };

    // The atomic mirror of the element count makes these predicates
    // exact, lock-free snapshots; see the file comment for why each
    // endpoint may act on them without holding the lock. seq_cst (not
    // acquire) so they participate in the scheduler's single total
    // order with the per-process notification latch — the property
    // that makes a missed parallel wakeup impossible rather than
    // merely unlikely.
    bool empty() const { return size_.load(std::memory_order_seq_cst) == 0; }
    size_t size() const { return size_.load(std::memory_order_seq_cst); }

    /**
     * Read the head without consuming anything: report it in @p head
     * as -1 (empty), 0 (data) or k (barrier Bk), and copy the leading
     * data run — the pending data tokens before the first pending
     * barrier, at most @p cap of them — of each lane's column into
     * @p cols + pos * @p stride. Consumer-side only.
     * @return the threads copied per lane.
     */
    size_t peekRun(Word *cols, size_t stride, size_t cap, int &head) const;

    /**
     * Remove the @p n oldest pending tokens of every lane.
     * @throws std::runtime_error when fewer than @p n are pending.
     */
    void consume(size_t n);

    /** The lanes this cursor serves, in the order they joined it. */
    const std::vector<Lane> &lanes() const { return lanes_; }

  private:
    friend class Channel;
    friend class Engine;
    friend class Ring;

    template <typename Visit>
    size_t scanHeld(uint32_t col, size_t cap, Visit &visit) const;
    /** The head in @p head, and the length of the leading data run,
     * at most @p cap. */
    size_t runHeld(size_t cap, int &head) const;
    /** Copy @p n words of column @p col from the head into @p dst. */
    void copyHeld(uint32_t col, Word *dst, size_t n) const;
    size_t peekHeld(Word *cols, size_t stride, size_t cap, int &head) const;
    void take(size_t n, std::memory_order order, bool &was_full);
    /** Lowest ring column among the lanes: where a firing's
     * lane-by-lane pushes would first reach this cursor. */
    uint32_t firstColumn() const;
    void notifySpaceAvailable();
    [[noreturn]] void throwUnderflow() const;

    Ring *ring_ = nullptr;
    Cursor *next_ = nullptr; ///< next cursor of ring_, in wakeup order
    size_t head_ = 0;        ///< slot of the oldest pending token
    size_t count_ = 0;       ///< tokens pending on every lane
    size_t capacity_;        ///< least capacity among the lanes
    std::atomic<size_t> size_{0}; ///< mirrors count_
    Process *consumer_ = nullptr;
    uint32_t arg_ = 0; ///< the consumer's bundle argument
    /** Set by a locked push that woke this cursor, cleared once the
     * producer has notified it outside the lock. */
    bool woken_ = false;
    std::vector<Lane> lanes_;
};

/** One producer's output bundle: tags and word columns; see the file
 * comment. */
class Ring
{
  public:
    /** Word columns: one per output lane of the producer. */
    size_t width() const { return width_; }

    /** The longest run a push may append now: the free slots of the
     * ring's fullest bounded cursor (unbounded when none is bounded). */
    size_t room() const;

    /**
     * Append a data run of @p n threads: column j's words are
     * @p cols[j * @p stride, j * @p stride + n).
     * @throws std::runtime_error when the run is longer than room() —
     * the caller forgot to size it.
     */
    void pushRun(const Word *cols, size_t stride, size_t n);

    /** Append the barrier B@p level to every column; throws as
     * pushRun. */
    void pushBarrier(int level);

  private:
    friend class Channel;
    friend class Cursor;
    friend class Engine;

    /** Value summary of one column; the counts are the ring's. */
    struct Summary
    {
        Word first = 0;
        bool allEqual = true;
        int32_t smin = std::numeric_limits<int32_t>::max();
        int32_t smax = std::numeric_limits<int32_t>::min();
        Word umin = std::numeric_limits<Word>::max();
        Word umax = 0;
    };

    /** The write side of every push: append @p n tokens whose tags
     * and words @p write fills at slot offset @p at, and record them
     * with @p record. Under the ring's lock during a parallel run, then
     * notify the cursors that went empty -> non-empty (outside the
     * lock: the wakeup path may run the consumer's scheduler
     * bookkeeping, and holding a ring lock across it would order ring
     * locks against deque locks). */
    template <typename Write, typename Record>
    void append(size_t n, Write &&write, Record &&record);
    template <typename Write, typename Record, typename OnEdge>
    void appendHeld(size_t n, Write &write, Record &record,
                    std::memory_order order, OnEdge &&on_edge);
    /** Write @p n words of @p src into column @p col from the tail,
     * wrapping at the ring's end. */
    void writeColumn(size_t col, const Word *src, size_t n);
    void summarize(size_t col, const Word *words, size_t n);
    /** Regrow the ring so it holds @p held + @p n tokens with a slot to
     * spare, where @p held is the pending count of the cursor furthest
     * behind: the slot count n single pushes would end at. */
    void grow(size_t held, size_t n);
    void refreshGate();
    /** Every cursor and its pending tokens, the counts and the value
     * summaries cleared. */
    void reset();
    /** Wiring: add a column (the ring holds no pending tokens). */
    void widen();
    /** Wiring: take over every link and cursor of @p from, whose one
     * column becomes column @p col here; links that carried @p from's
     * column now name @p root as theirs unless it is null. @p from's
     * cursors join at @p at, or when it is null after the last cursor
     * whose first column is at most @p col; returns the link after
     * them, where the next absorb of the same column joins. */
    Cursor **absorb(Ring &from, uint32_t col, Channel *root, Cursor **at);
    /** True when cursor @p a comes before cursor @p b in wakeup
     * order. */
    bool precedes(const Cursor *a, const Cursor *b) const;
    /** Wiring: @p into, a cursor of one consumer argument, takes over
     * the lanes of @p from, of the same argument at the same position;
     * @p from leaves the ring at the next dropMerged(). */
    void merge(Cursor &into, Cursor &from);
    /** Unlink the cursors merge() emptied. */
    void dropMerged();
    /** Wiring: merge the cursors of each consumer argument at one
     * position into the first of them, appending each consumer whose
     * cursors changed to @p touched. */
    void groupCursors(std::vector<Process *> &touched);
    /** True when some cursor has tokens pending. */
    bool pending() const;
    [[noreturn]] void throwOverflow(const Cursor &c) const;

    size_t width_ = 1;
    size_t slots_ = 16;
    size_t mask_ = 15;
    size_t tail_ = 0; ///< slot of the next write
    /** Tag bytes (0: data, k: barrier Bk) then the word columns,
     * allocated by the first push. */
    std::vector<Word> store_;
    uint8_t *tags_ = nullptr;
    Word *cols_ = nullptr; ///< column j at cols_ + j * slots_
    uint64_t dataPushed_ = 0;
    uint64_t barriersPushed_ = 0;
    bool watchValues_ = false;
    std::vector<Summary> summaries_; ///< per column, while watched
    /** Some cursor is bounded: pushes check for room. */
    bool gated_ = false;
    bool merged_ = false; ///< some cursor awaits dropMerged()
    bool concurrent_ = false; ///< see Channel::setConcurrent()
    mutable SpinLock mu_;
    Cursor *cursors_ = nullptr; ///< intrusive list, in wakeup order
    Channel *members_ = nullptr; ///< every link on this ring
    Process *producer_ = nullptr;
    Engine *engine_ = nullptr;
};

/** One on-chip link: a column of a ring (its own, until wiring folds
 * it) and, unless it is a fanout input, the cursor that reads it. */
class Channel
{
  public:
    static constexpr size_t unbounded =
        std::numeric_limits<size_t>::max();

    explicit Channel(std::string name = "", size_t capacity = unbounded);

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    const std::string &name() const { return name_; }

    bool empty() const { return cursor_ == nullptr || cursor_->empty(); }
    size_t size() const { return cursor_ ? cursor_->size() : 0; }
    size_t capacity() const { return capacity_; }

    /** The longest run a push may append now; see Ring::room(). */
    size_t room() const { return ring_->room(); }

    /** True when a one-token push would be accepted. */
    bool canPush() const { return room() > 0; }

    /**
     * Append the data words @p words[0, n) as one run.
     * @throws std::runtime_error when the run is longer than room() —
     * the caller forgot to size it — or when this channel does not
     * carry the only column of its ring (a fanout's cursor or chain
     * link, or one lane of a producer's bundle).
     */
    void pushData(const Word *words, size_t n);

    /** Append the tokens @p toks[0, n) as one run; throws as
     * pushData. */
    void pushTokens(const Token *toks, size_t n);

    /** Append @p tok: a run of one. */
    void push(const Token &tok) { pushTokens(&tok, 1); }

    /** Push every token of @p stream (unbounded use only). */
    void
    pushAll(const TokenStream &stream)
    {
        pushTokens(stream.data(), stream.size());
    }

    /**
     * Read this link's head without consuming anything: report it in
     * @p head as -1 (empty), 0 (data) or k (barrier Bk), and copy the
     * leading data run — the pending data tokens before the first
     * pending barrier — into @p words, at most @p cap of them (a cap of
     * 0 only classifies). Consumer-side only.
     * @return how many words were copied.
     */
    size_t peek(Word *words, size_t cap, int &head) const;

    /** Visit the oldest min(@p cap, size()) pending tokens of any kind,
     * without consuming them; returns how many were visited. */
    template <typename Visit>
    size_t readTokens(size_t cap, Visit &&visit) const;

    /** Head token, by value; consumer-side only. Undefined on an
     * empty channel. */
    Token
    front() const
    {
        Token head = Token::data(0);
        readTokens(1, [&head](const Token &tok, size_t) { head = tok; });
        return head;
    }

    /**
     * Remove the @p n oldest pending tokens.
     * @throws std::runtime_error when fewer than @p n are pending, or
     * when this link shares its cursor with other lanes (a bundle
     * argument is consumed through its cursors).
     */
    void consume(size_t n);

    /**
     * Remove and return the head token: a consume of one.
     * @throws std::runtime_error on an empty channel.
     */
    Token
    pop()
    {
        const Token tok = front();
        consume(1);
        return tok;
    }

    /** Lifetime token count of this link's ring, for stats and
     * link-bandwidth analysis. Read-back is post-run-only. */
    uint64_t
    totalPushed() const
    {
        return ring_->dataPushed_ + ring_->barriersPushed_;
    }

    using ValueWatch = dataflow::ValueWatch;

    /** The counts of this link's ring and the value summary of its
     * column. Read-back is post-run-only. */
    ValueWatch watch() const;

    /** Record the value summary of this link's ring (off by default: a
     * push then only counts). Switches the whole ring, so call it
     * after wiring. Setup-only. */
    void setValueWatch(bool on) { ring_->watchValues_ = on; }

    /** Drain the remaining contents into a TokenStream (post-run);
     * throws as consume. */
    TokenStream drain();

    /** Return the channel to its just-constructed state — pending
     * tokens, the lifetime token counts, and the value summary all
     * cleared; the value watch switch is kept — so an execution
     * context can serve a fresh request over the same wiring
     * (graph::ExecutionContext). On a multicast cursor it drops only
     * that cursor's pending tokens; on any other channel it resets its
     * whole ring. Setup-only: must not race with an active run. */
    void resetForReuse();

    /** The process that pushes into this channel's ring (may be
     * null). */
    Process *producer() const { return ring_->producer_; }
    /** The process that pops from this channel (may be null). */
    Process *
    consumer() const
    {
        return cursor_ ? cursor_->consumer_ : nullptr;
    }

    /** The channel whose lane this link's column carries: the channel
     * itself, unless it is a multicast cursor or chain link. */
    const Channel *ringRoot() const { return root_; }
    /** True when this channel reads another channel's column. */
    bool isMulticastCursor() const { return cursor_ && root_ != this; }
    /** The links reading this channel's column, in wakeup order: the
     * channel itself on a point-to-point link, its cursors on a
     * multicast root, none on a cursor or chain link. */
    std::vector<const Channel *> readers() const;
    /** Slots in this channel's ring (16, doubling as it grows). */
    size_t ringSlots() const { return ring_->slots_; }
    /** The ring carrying this link's tokens. */
    Ring *ring() const { return ring_; }
    /** The cursor reading this link (null on a fanout input). */
    Cursor *cursor() const { return cursor_; }

    /** Scheduler wiring — called by Engine when it creates the
     * channel. */
    void
    bindEngine(Engine *engine)
    {
        engine_ = engine;
        ownRing_.engine_ = engine;
    }

    /** Engine-internal: toggled at Policy::parallel run boundaries
     * (before worker spawn / after join, so the flag itself is ordered
     * by thread creation and join). While false — the default, and the
     * state during every single-threaded run — pushes and reads skip
     * the spinlock and the seq_cst size mirror, which are pure
     * overhead when both link endpoints live on one thread. */
    void setConcurrent(bool on) { ring_->concurrent_ = on; }

  private:
    friend class Engine;
    friend class Ring;

    /** Engine::multicast's wiring: @p in stops reading, and every ring
     * of @p outs is folded into @p in's column (see the file comment).
     * Returns the consumers whose cursors were grouped.
     * @throws std::logic_error on a wiring that would give a link two
     * writers or two readers, or on a non-empty channel. */
    static std::vector<Process *>
    wireMulticast(Channel *in, const std::vector<Channel *> &outs);

    /** The ring a Channel push may write: one this link's column is
     * the only column of. */
    Ring &soleRing() const;
    [[noreturn]] void throwShared(const char *what) const;

    std::string name_;
    size_t capacity_; ///< bounds this link's reads
    Ring *ring_;      ///< the ring carrying this link's column
    uint32_t col_ = 0;
    Channel *root_;   ///< the channel whose lane col_ carries
    Cursor *cursor_;  ///< null on a fanout input
    Channel *nextMember_ = nullptr; ///< next link of ring_
    Engine *engine_ = nullptr;
    Ring ownRing_;
    Cursor ownCursor_;
};

/** A group of channels carrying one thread's live values in lockstep. */
using Bundle = std::vector<Channel *>;

// ---------------------------------------------------------------------
// Inline read paths.

inline uint32_t
Cursor::firstColumn() const
{
    uint32_t first = std::numeric_limits<uint32_t>::max();
    for (const Lane &lane : lanes_)
        first = lane.col < first ? lane.col : first;
    return first;
}

inline size_t
Cursor::runHeld(size_t cap, int &head) const
{
    if (count_ == 0) {
        head = -1;
        return 0;
    }
    const Ring &r = *ring_;
    head = r.tags_[head_];
    if (head != 0)
        return 0;
    const size_t limit = cap < count_ ? cap : count_;
    size_t n = 0;
    while (n < limit && r.tags_[(head_ + n) & r.mask_] == 0)
        ++n;
    return n;
}

inline void
Cursor::copyHeld(uint32_t col, Word *dst, size_t n) const
{
    // A run wraps at most once: copy it in up to two pieces.
    const Ring &r = *ring_;
    const Word *src = r.cols_ + col * r.slots_;
    const size_t first = n < r.slots_ - head_ ? n : r.slots_ - head_;
    std::memcpy(dst, src + head_, first * sizeof(Word));
    std::memcpy(dst + first, src, (n - first) * sizeof(Word));
}

inline size_t
Cursor::peekHeld(Word *cols, size_t stride, size_t cap, int &head) const
{
    const size_t n = runHeld(cap, head);
    if (n == 0)
        return 0;
    for (const Lane &lane : lanes_)
        copyHeld(lane.col, cols + lane.pos * stride, n);
    return n;
}

inline size_t
Cursor::peekRun(Word *cols, size_t stride, size_t cap, int &head) const
{
    if (!ring_->concurrent_)
        return peekHeld(cols, stride, cap, head);
    std::lock_guard<SpinLock> guard(ring_->mu_);
    return peekHeld(cols, stride, cap, head);
}

inline void
Cursor::take(size_t n, std::memory_order order, bool &was_full)
{
    if (count_ < n)
        throwUnderflow();
    was_full = count_ == capacity_;
    head_ = (head_ + n) & ring_->mask_;
    count_ -= n;
    size_.store(count_, order);
}

inline void
Cursor::consume(size_t n)
{
    bool was_full = false;
    if (ring_->concurrent_) {
        std::lock_guard<SpinLock> guard(ring_->mu_);
        take(n, std::memory_order_seq_cst, was_full);
    } else {
        take(n, std::memory_order_relaxed, was_full);
    }
    if (was_full)
        notifySpaceAvailable();
}

template <typename Visit>
size_t
Cursor::scanHeld(uint32_t col, size_t cap, Visit &visit) const
{
    const Ring &r = *ring_;
    const size_t n = cap < count_ ? cap : count_;
    for (size_t i = 0; i < n; ++i) {
        const size_t slot = (head_ + i) & r.mask_;
        const int tag = r.tags_[slot];
        visit(tag == 0 ? Token::data(r.cols_[col * r.slots_ + slot])
                       : Token::barrier(tag),
              i);
    }
    return n;
}

template <typename Visit>
size_t
Channel::readTokens(size_t cap, Visit &&visit) const
{
    if (cursor_ == nullptr)
        return 0;
    if (!ring_->concurrent_)
        return cursor_->scanHeld(col_, cap, visit);
    std::lock_guard<SpinLock> guard(ring_->mu_);
    return cursor_->scanHeld(col_, cap, visit);
}

} // namespace dataflow
} // namespace revet

#endif // REVET_DATAFLOW_CHANNEL_HH
