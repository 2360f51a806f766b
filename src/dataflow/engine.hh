/**
 * @file
 * Functional execution engine for streaming-primitive graphs.
 *
 * The Engine owns channels and processes and runs them to quiescence —
 * the fixed point where no primitive can make progress. With unbounded
 * channels this computes the denotational (Kahn-network) semantics of
 * the graph; the result is independent of scheduling order because
 * every primitive is a deterministic stream transformer. That freedom
 * is what allows two interchangeable scheduling policies:
 *
 *  - Policy::worklist (default) — readiness-driven: channels notify the
 *    engine on empty->non-empty (wakes the consumer) and full->non-full
 *    (wakes the producer) transitions, and only primitives on the ready
 *    deque are stepped; a per-process queued flag deduplicates
 *    wakeups, read inline by the ring that notifies.
 *    Primitives only examine channel heads, emptiness, and free
 *    capacity, so these transitions cover every way a blocked primitive
 *    can become runnable. Quiescence is still *certified* by a full
 *    verification rescan once the deque empties — a missed wakeup can
 *    therefore cost time (counted in SchedStats::missedWakeups, asserted
 *    zero in tests) but never change the computed fixed point.
 *
 *  - Policy::parallel — the worklist sharded across N worker threads
 *    with per-worker run deques and Chase-Lev-style work stealing
 *    (owners run LIFO from the back, thieves take FIFO from the front).
 *    The queued flag becomes a per-process atomic state
 *    machine (idle/queued/running) plus a notification latch, and the
 *    single-threaded verification rescan becomes a distributed
 *    quiescence protocol: an atomic active-work counter plus an idle
 *    census elect a leader that re-certifies quiescence with the same
 *    serial rescan, exactly once all workers are provably out of work.
 *    See runParallel() in engine.cc for the protocol and its proof
 *    obligations, and README.md ("Parallel execution") for the
 *    memory-ordering contract.
 *
 * All policies produce bit-identical channel traffic and DRAM effects;
 * tests/dataflow/test_scheduler.cc certifies this against the AST
 * interpreter on every app fixture (translation validation in the
 * WaveCert spirit).
 */

#ifndef REVET_DATAFLOW_ENGINE_HH
#define REVET_DATAFLOW_ENGINE_HH

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/channel.hh"
#include "dataflow/primitives.hh"

namespace revet
{
namespace dataflow
{

/** Observability counters for one Engine::run invocation. Under
 * Policy::parallel each worker keeps a private copy and the engine sums
 * them after the join, so no counter is ever contended. */
struct SchedStats
{
    /** Scheduler rounds that moved at least one token: ready-deque
     * generations (worklist), or progress-runs normalized by process
     * count (parallel). */
    uint64_t rounds = 0;
    /** Process runQuanta() invocations. */
    uint64_t steps = 0;
    /** runQuanta() invocations that moved nothing (wasted scans). */
    uint64_t idleSteps = 0;
    /** Quanta the firings did: threads plus barriers moved. */
    uint64_t quanta = 0;
    /** Ready-deque insertions triggered by channel transitions
     * (full-burst self-requeues are not counted). */
    uint64_t wakeups = 0;
    /** Cursor empty -> non-empty edges, each one notification of the
     * cursor's consumer, counted before the already-queued check that
     * turns most of them into no wakeup. */
    uint64_t notifications = 0;
    /** Full verification rescans used to certify quiescence. */
    uint64_t verifyPasses = 0;
    /** Verification rescans that found progress. For the single-thread
     * worklist this is a notification gap, always 0 unless a channel
     * bypasses the engine's wiring. Under Policy::parallel a benign
     * race (notification landing while its target was mid-run) can
     * produce one; the rescan certifies the fixed point either way. */
    uint64_t missedWakeups = 0;
    /** runQuanta() calls a full scan of every process per round would
     * have made (rounds x processes) minus the calls actually made
     * (worklist only). */
    uint64_t stepsSkipped = 0;
    /** Processes taken from another worker's deque (parallel only). */
    uint64_t steals = 0;
    /** Worker threads the run actually used (1 for the single-threaded
     * policies, and for parallel runs too small to shard). */
    uint64_t workers = 1;
};

class Engine
{
  public:
    /** Scheduling policy for run(); see the file comment. */
    enum class Policy { worklist, parallel };

    /** Default safety cap on working rounds for run() and for
     * graph::ExecutionContext::run(), the one entry point compiled
     * programs run through, so every run diagnoses livelock at the
     * same threshold. */
    static constexpr uint64_t defaultMaxRounds = 1u << 26;

    explicit Engine(Policy policy = Policy::worklist) : policy_(policy) {}

    // Channels hold a back-pointer to their engine; moving would
    // dangle it.
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    Policy policy() const { return policy_; }
    void setPolicy(Policy policy) { policy_ = policy; }

    /** Worker threads for Policy::parallel. 0 (the default) defers to
     * defaultNumThreads(); values are clamped to at least 1. Ignored by
     * the single-threaded policies. */
    void setNumThreads(int n) { num_threads_ = n; }

    /** Resolved worker count a parallel run would use now. */
    int numThreads() const;

    /** Process-wide default for parallel runs: the REVET_NUM_THREADS
     * environment variable when it parses *strictly* as one decimal
     * integer in [1, 1023], otherwise
     * std::thread::hardware_concurrency() (at least 1). A set-but-
     * invalid value (trailing junk, non-numeric, 0, negative, out of
     * range) is rejected with a one-line stderr warning rather than
     * silently absorbed. */
    static int defaultNumThreads();

    /** Create a channel owned by this engine. */
    Channel *
    channel(std::string name = "", size_t capacity = Channel::unbounded)
    {
        channels_.push_back(
            std::make_unique<Channel>(std::move(name), capacity));
        channels_.back()->bindEngine(this);
        return channels_.back().get();
    }

    /**
     * Link fan-out as the network does it: @p in stops reading, and
     * every ring of @p outs is folded into @p in's ring column (see
     * channel.hh), so each out reads that column through a cursor, each
     * token pushed into it is written once and delivered to every
     * out's consumer, and no process copies it. When @p in is itself a
     * cursor, @p outs join its ring, so a chain of fanouts is one
     * ring. Setup-only, on empty channels of this engine; @p in gains
     * no reader and @p outs no writer of their own.
     * @throws std::logic_error on a wiring that would give a link two
     *         writers or two readers.
     */
    void multicast(Channel *in, const std::vector<Channel *> &outs);

    /** Channel::resetForReuse of every channel, with each ring reset
     * once. Setup-only. */
    void resetChannels();

    /** Construct and register a primitive. */
    template <typename P, typename... Args>
    P *
    make(Args &&...args)
    {
        auto proc = std::make_unique<P>(std::forward<Args>(args)...);
        P *raw = proc.get();
        registerProcess(raw);
        procs_.push_back(std::move(proc));
        return raw;
    }

    /**
     * Run to quiescence under the current policy.
     *
     * @param max_rounds safety cap on *working* scheduler rounds (rounds
     *        that still move tokens). Exceeding it throws: the network
     *        is either genuinely livelocked (see the stall reasons in
     *        the message) or max_rounds is undersized for the workload.
     *        The final no-progress certification pass is not counted.
     * @return number of working rounds taken.
     */
    uint64_t run(uint64_t max_rounds = defaultMaxRounds);

    /** Counters from the most recent run(). */
    const SchedStats &schedStats() const { return sched_; }

    /**
     * Stalled channels *and* blocked processes (livelock diagnostics).
     * A process is reported when it is non-idle — pending input tokens
     * or buffered internal state — with a one-line reason, so internal
     * blockage (e.g. a merge waiting on a bundle peer) is visible even
     * when every channel is empty.
     *
     * Safe after a parallel run (workers are joined and their state
     * aggregated before run() returns). If called *during* one — from a
     * signal handler or watchdog thread — it reports only that workers
     * are still active rather than racing them over process state.
     */
    std::string stallReport() const;

    /** True if no non-sink channel holds tokens. */
    bool drained() const;

    const std::vector<std::unique_ptr<Channel>> &
    channels() const
    {
        return channels_;
    }

    /** Ring notification: a cursor read by @p consumer went empty ->
     * non-empty. Serial runs skip the enqueue when the consumer is
     * already queued. */
    void
    onTokenAvailable(Process *consumer)
    {
        if (par_.load(std::memory_order_relaxed) != nullptr) {
            parallelNotify(consumer, true);
            return;
        }
        ++sched_.notifications;
        if (consumer != nullptr && !consumer->queued_ && enqueue(consumer))
            ++sched_.wakeups;
    }

    /** Cursor notification: a bounded cursor of @p producer's ring went
     * full -> non-full. */
    void
    onSpaceAvailable(Process *producer)
    {
        if (par_.load(std::memory_order_relaxed) != nullptr) {
            parallelNotify(producer, false);
            return;
        }
        if (enqueue(producer))
            ++sched_.wakeups;
    }

  private:
    struct Par; // one parallel run's scheduler state (engine.cc)

    /** Give @p proc the next scheduler id and wire its channels: its
     * output lanes' rings fold into one, its input lanes' cursors
     * become its, and the cursors of one bundle argument on one ring
     * group into one. @throws std::logic_error (wiring nothing) when
     * it would read a multicast root, write a multicast cursor, give a
     * channel a second reader or writer, or fold a ring holding
     * tokens. */
    void registerProcess(Process *proc);
    /** Put @p proc on the ready deque unless it is already queued (or
     * no worklist run is active). Returns true if it was inserted;
     * only channel-event insertions count as SchedStats::wakeups. */
    bool enqueue(Process *proc);
    /** Rebuild @p proc's cursor lists after wiring grouped its
     * cursors. */
    static void rewire(Process *proc);
    uint64_t runWorklist(uint64_t max_rounds);
    uint64_t runParallel(uint64_t max_rounds);
    /** Parallel-mode readiness notification for @p proc; @p token
     * marks a cursor's empty -> non-empty edge. */
    void parallelNotify(Process *proc, bool token);
    [[noreturn]] void throwLivelock(uint64_t max_rounds) const;

    Policy policy_;
    int num_threads_ = 0;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::vector<std::unique_ptr<Process>> procs_;

    // Worklist scheduler state (valid while runWorklist is active).
    std::deque<Process *> ready_;
    bool scheduling_ = false;
    // Parallel scheduler state (non-null while runParallel is active);
    // atomic so stallReport and the channel notification hooks can
    // observe mode changes without racing the run setup/teardown.
    std::atomic<Par *> par_{nullptr};
    SchedStats sched_;
};

} // namespace dataflow
} // namespace revet

#endif // REVET_DATAFLOW_ENGINE_HH
