#include "dataflow/engine.hh"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace revet
{
namespace dataflow
{

namespace
{

// Per-process scheduling states for Policy::parallel: the atomic
// replacement for the worklist's in_queue_ bitmap. Deque entries map
// 1:1 onto transitions *into* kQueued (CAS winners in notify, plus the
// unique runner in the requeue paths), and only a deque pop or the
// quiescence leader's claim CAS moves kQueued -> kRunning, so a process
// can never run on two workers at once.
constexpr uint8_t kProcIdle = 0;    ///< not queued, not running
constexpr uint8_t kProcQueued = 1;  ///< on exactly one worker's deque
constexpr uint8_t kProcRunning = 2; ///< claimed by exactly one worker

/** Work quanta a primitive may run per scheduling decision. */
constexpr int kBurst = 4096;

} // namespace

/**
 * One parallel run's scheduler state.
 *
 * Work distribution: each worker owns a deque of queued processes,
 * guarded by a spinlock. Owners push and pop at the back (LIFO — run
 * the just-woken consumer while its tokens are cache-hot), thieves
 * take from the front (FIFO — steal the oldest, coarsest work): the
 * Chase-Lev end discipline, with a lock instead of the lock-free
 * version because every critical section is a few pointer moves,
 * contention only occurs on actual steals, and a lock is trivially
 * verifiable under ThreadSanitizer.
 *
 * Readiness: a channel edge (empty->non-empty, full->non-full) sets the
 * target's `note` latch, then tries to CAS its state kProcIdle ->
 * kProcQueued; the winner bumps the active-work counter and pushes the
 * process onto the *notifying* worker's own deque. If the target is
 * already queued or running, the latch alone suffices: every run clears
 * the latch first and, after retiring to kProcIdle, re-checks it and
 * requeues itself if an event landed mid-run. All of state/note/channel
 * sizes/inflight/idleCount use seq_cst, so "notifier saw non-idle" and
 * "runner saw empty channel" cannot both order before their respective
 * writes in the single total order — a wakeup may be *deferred* to the
 * latch re-check but never lost. A ring with several readers
 * (channel.hh) is the same argument once per reader: each has its own
 * seq_cst size mirror and its own empty->non-empty edge to its
 * consumer, and a bounded reader's full->non-full edge notifies the
 * ring's producer, whose canPush() reads every bounded reader's mirror.
 *
 * Termination (distributed quiescence): `inflight` counts processes in
 * {queued, running} and `idleCount` counts workers that found both
 * their own and every victim's deque empty. When a worker observes
 * inflight == 0 and idleCount == nworkers it elects itself leader (CAS)
 * and — after re-validating both conditions under the leadership, at
 * which point no process is queued, running, or notifiable — runs the
 * same serial certification rescan the single-threaded worklist uses,
 * claiming each process with a state CAS. No progress and nothing
 * re-queued means the fixed point is certified and `stop` is raised;
 * any progress is a (benign, counted) missed wakeup and the run
 * continues.
 */
struct Engine::Par
{
    struct Worker
    {
        Par *par = nullptr;
        int id = 0;
        SpinLock mu; ///< guards q
        std::deque<Process *> q;
        SchedStats stats;
    };

    /** The worker loop the current thread belongs to, so notifications
     * land on the notifier's own deque (locality; stealing rebalances). */
    static thread_local Worker *tlWorker;

    Engine &eng;
    const int nworkers;
    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<std::atomic<uint8_t>> state; ///< kProc* per process
    std::vector<std::atomic<uint8_t>> note;  ///< notification latch
    std::atomic<uint64_t> inflight{0}; ///< #processes queued or running
    std::atomic<uint64_t> progressRuns{0};
    std::atomic<int> idleCount{0}; ///< workers with no findable work
    std::atomic<int> leader{0};    ///< quiescence-leader election flag
    std::atomic<bool> stop{false};
    std::atomic<bool> livelock{false};
    std::atomic<int> parked{0};
    std::mutex parkMu;
    std::condition_variable parkCv;
    std::mutex errMu;
    std::exception_ptr error;

    Par(Engine &engine, int n)
        : eng(engine), nworkers(n), state(engine.procs_.size()),
          note(engine.procs_.size())
    {
        for (size_t i = 0; i < state.size(); ++i) {
            state[i].store(kProcIdle, std::memory_order_relaxed);
            note[i].store(0, std::memory_order_relaxed);
        }
        workers.reserve(static_cast<size_t>(n));
        for (int w = 0; w < n; ++w) {
            workers.push_back(std::make_unique<Worker>());
            workers.back()->par = this;
            workers.back()->id = w;
        }
        // Everything starts queued (same reason as the worklist seed:
        // callers may have pushed tokens between runs, and sources have
        // no input edge to wake them), dealt round-robin across workers
        // as the initial load balance.
        size_t w = 0;
        for (auto &proc : eng.procs_) {
            state[proc->sched_id_].store(kProcQueued,
                                         std::memory_order_relaxed);
            workers[w]->q.push_back(proc.get());
            w = (w + 1) % static_cast<size_t>(nworkers);
        }
        inflight.store(eng.procs_.size(), std::memory_order_relaxed);
    }

    uint64_t maxRounds = defaultMaxRounds; ///< set by runParallel

    /** Livelock cap in productive process-runs: max_rounds rounds of
     * the serial policies correspond to at most max_rounds * nprocs
     * runs that moved tokens (saturating to avoid overflow). */
    uint64_t
    cap() const
    {
        const uint64_t nprocs =
            eng.procs_.empty() ? 1 : eng.procs_.size();
        if (maxRounds > std::numeric_limits<uint64_t>::max() / nprocs)
            return std::numeric_limits<uint64_t>::max();
        return maxRounds * nprocs;
    }

    void
    wakeAll()
    {
        std::lock_guard<std::mutex> g(parkMu);
        parkCv.notify_all();
    }

    void
    pushWork(Worker &w, Process *proc)
    {
        w.mu.lock();
        w.q.push_back(proc);
        const bool surplus = w.q.size() > 1;
        w.mu.unlock();
        // Only bother waking a parked sibling when this deque has more
        // than the owner itself can immediately take.
        if (surplus && parked.load(std::memory_order_seq_cst) > 0) {
            std::lock_guard<std::mutex> g(parkMu);
            parkCv.notify_one();
        }
    }

    Process *
    popOwn(Worker &w)
    {
        w.mu.lock();
        Process *p = nullptr;
        if (!w.q.empty()) {
            p = w.q.back();
            w.q.pop_back();
        }
        w.mu.unlock();
        return p;
    }

    Process *
    steal(Worker &w)
    {
        for (int i = 1; i < nworkers; ++i) {
            Worker &victim =
                *workers[static_cast<size_t>((w.id + i) % nworkers)];
            victim.mu.lock();
            Process *p = nullptr;
            if (!victim.q.empty()) {
                p = victim.q.front();
                victim.q.pop_front();
            }
            victim.mu.unlock();
            if (p != nullptr) {
                ++w.stats.steals;
                return p;
            }
        }
        return nullptr;
    }

    /** Channel-edge notification for @p proc (any worker thread). */
    void
    notify(Process *proc)
    {
        if (proc == nullptr)
            return;
        const size_t id = proc->sched_id_;
        // Latch first: if the CAS below loses to a concurrent runner,
        // that runner's post-retire latch check must see this event.
        note[id].store(1, std::memory_order_seq_cst);
        uint8_t expect = kProcIdle;
        if (!state[id].compare_exchange_strong(expect, kProcQueued,
                                               std::memory_order_seq_cst))
            return; // already queued or running; the latch covers it
        inflight.fetch_add(1, std::memory_order_seq_cst);
        Worker *w = (tlWorker != nullptr && tlWorker->par == this)
            ? tlWorker
            : workers[0].get();
        ++w->stats.wakeups;
        pushWork(*w, proc);
    }

    void
    recordError(std::exception_ptr e)
    {
        {
            std::lock_guard<std::mutex> g(errMu);
            if (!error)
                error = e;
        }
        stop.store(true, std::memory_order_seq_cst);
        wakeAll();
    }

    /**
     * Run @p proc, already claimed (state == kProcRunning) by this
     * worker. Handles the retire protocol: full-burst self-requeue,
     * idle retirement with the latch re-check, progress accounting, and
     * livelock/exception escalation. Returns the quanta moved.
     */
    int
    runClaimed(Worker &w, Process *proc)
    {
        const size_t id = proc->sched_id_;
        note[id].store(0, std::memory_order_seq_cst);
        int quanta = 0;
        try {
            quanta = proc->runQuanta(kBurst);
        } catch (...) {
            state[id].store(kProcIdle, std::memory_order_seq_cst);
            inflight.fetch_sub(1, std::memory_order_seq_cst);
            recordError(std::current_exception());
            return 0;
        }
        ++w.stats.steps;
        if (quanta == 0)
            ++w.stats.idleSteps;
        w.stats.quanta += static_cast<uint64_t>(quanta);
        if (quanta > 0) {
            const uint64_t runs =
                progressRuns.fetch_add(1, std::memory_order_relaxed) + 1;
            if (runs > cap()) {
                livelock.store(true, std::memory_order_seq_cst);
                stop.store(true, std::memory_order_seq_cst);
                wakeAll();
            }
        }
        if (quanta == kBurst) {
            // A full burst means the primitive is still runnable on its
            // own; no channel event will requeue it, so requeue here
            // (same rule as the single-threaded worklist).
            state[id].store(kProcQueued, std::memory_order_seq_cst);
            pushWork(w, proc);
            return quanta;
        }
        state[id].store(kProcIdle, std::memory_order_seq_cst);
        inflight.fetch_sub(1, std::memory_order_seq_cst);
        if (note[id].load(std::memory_order_seq_cst) != 0) {
            // An event landed during the run; this run may have blocked
            // before seeing it, so reclaim. The CAS keeps requeues
            // exclusive against concurrent notifiers.
            uint8_t expect = kProcIdle;
            if (state[id].compare_exchange_strong(
                    expect, kProcQueued, std::memory_order_seq_cst)) {
                inflight.fetch_add(1, std::memory_order_seq_cst);
                pushWork(w, proc);
            }
        }
        return quanta;
    }

    void
    claimAndRun(Worker &w, Process *proc)
    {
        state[proc->sched_id_].store(kProcRunning,
                                     std::memory_order_seq_cst);
        runClaimed(w, proc);
    }

    /**
     * Leader-elected quiescence certification. Called when this worker
     * observed inflight == 0 && idleCount == nworkers while registered
     * idle. Returns true when the worker should leave its idle phase
     * (it did the rescan — successful or not — or lost nothing by
     * re-entering the main loop); false when another leader is active.
     *
     * Soundness: after winning the CAS the leader re-reads idleCount
     * and inflight. idleCount == nworkers means every worker (self
     * included) is in its idle phase, so no process is running; with
     * inflight == 0 none is queued either. A process can only become
     * queued through notify(), and notify() only fires from a running
     * process's channel operations — so between those two reads and
     * the rescan's own claims, the leader has exclusive access.
     */
    bool
    tryLeadQuiescence(Worker &w)
    {
        int expect = 0;
        if (!leader.compare_exchange_strong(expect, 1,
                                            std::memory_order_seq_cst))
            return false;
        if (idleCount.load(std::memory_order_seq_cst) != nworkers ||
            inflight.load(std::memory_order_seq_cst) != 0) {
            leader.store(0, std::memory_order_seq_cst);
            return false;
        }
        ++w.stats.verifyPasses;
        bool progress = false;
        for (auto &proc : eng.procs_) {
            uint8_t expect_idle = kProcIdle;
            if (!state[proc->sched_id_].compare_exchange_strong(
                    expect_idle, kProcRunning,
                    std::memory_order_seq_cst))
                continue; // requeued earlier in this very rescan
            inflight.fetch_add(1, std::memory_order_seq_cst);
            if (runClaimed(w, proc.get()) > 0)
                progress = true;
            if (stop.load(std::memory_order_seq_cst))
                break;
        }
        if (!progress &&
            inflight.load(std::memory_order_seq_cst) == 0) {
            // Certified: a full serial pass moved nothing and nothing
            // became runnable. Fixed point reached.
            stop.store(true, std::memory_order_seq_cst);
            wakeAll();
        } else if (progress) {
            ++w.stats.missedWakeups;
        }
        leader.store(0, std::memory_order_seq_cst);
        idleCount.fetch_sub(1, std::memory_order_seq_cst);
        return true;
    }

    /** Briefly park on the condvar; bounded so a lost notify_one can
     * only cost one timeout, never liveness. */
    void
    parkBriefly()
    {
        parked.fetch_add(1, std::memory_order_seq_cst);
        {
            std::unique_lock<std::mutex> lk(parkMu);
            if (!stop.load(std::memory_order_seq_cst))
                parkCv.wait_for(lk, std::chrono::microseconds(200));
        }
        parked.fetch_sub(1, std::memory_order_seq_cst);
    }

    /** No findable work: register idle, keep probing, and volunteer for
     * quiescence certification. Returns with idleCount balanced. */
    void
    idlePhase(Worker &w)
    {
        idleCount.fetch_add(1, std::memory_order_seq_cst);
        int spins = 0;
        while (!stop.load(std::memory_order_seq_cst)) {
            Process *p = popOwn(w);
            if (p == nullptr)
                p = steal(w);
            if (p != nullptr) {
                idleCount.fetch_sub(1, std::memory_order_seq_cst);
                claimAndRun(w, p);
                return;
            }
            if (inflight.load(std::memory_order_seq_cst) == 0 &&
                idleCount.load(std::memory_order_seq_cst) == nworkers &&
                tryLeadQuiescence(w))
                return;
            if (++spins >= 64) {
                spins = 0;
                parkBriefly();
            } else {
                std::this_thread::yield();
            }
        }
        idleCount.fetch_sub(1, std::memory_order_seq_cst);
    }

    void
    workerLoop(int wid)
    {
        Worker &w = *workers[static_cast<size_t>(wid)];
        Worker *prev = tlWorker;
        tlWorker = &w;
        while (!stop.load(std::memory_order_seq_cst)) {
            Process *p = popOwn(w);
            if (p == nullptr)
                p = steal(w);
            if (p != nullptr) {
                claimAndRun(w, p);
                continue;
            }
            idlePhase(w);
        }
        tlWorker = prev;
    }
};

thread_local Engine::Par::Worker *Engine::Par::tlWorker = nullptr;

void
Engine::registerProcess(Process *proc)
{
    // One writer and one reader per link, checked before anything is
    // wired: a second endpoint would silently steal the first one's
    // wakeups.
    for (const Channel *ch : proc->inputs()) {
        if (!ch->reader_) {
            throw std::logic_error(
                proc->name() + ": channel '" + ch->name() +
                "' feeds a multicast; read one of its cursors");
        }
        if (ch->consumer_ != nullptr) {
            throw std::logic_error(
                proc->name() + ": channel '" + ch->name() +
                "' is already read by " + ch->consumer_->name());
        }
    }
    for (const Channel *ch : proc->outputs()) {
        if (ch->ring_ != ch) {
            throw std::logic_error(
                proc->name() + ": channel '" + ch->name() +
                "' carries multicast root '" + ch->ringRoot()->name() +
                "''s ring; write the root");
        }
        if (ch->producer_ != nullptr) {
            throw std::logic_error(
                proc->name() + ": channel '" + ch->name() +
                "' is already written by " + ch->producer_->name());
        }
    }
    proc->sched_id_ = procs_.size();
    for (Channel *ch : proc->inputs())
        ch->setConsumer(proc);
    for (Channel *ch : proc->outputs())
        ch->setProducer(proc);
}

void
Engine::multicast(Channel *in, const std::vector<Channel *> &outs)
{
    auto foreign = [this](const Channel *ch) {
        if (ch->engine_ != this) {
            throw std::logic_error("multicast: channel '" + ch->name() +
                                   "' belongs to another engine");
        }
    };
    foreign(in);
    for (const Channel *out : outs)
        foreign(out);
    Channel::wireMulticast(in, outs);
}

bool
Engine::enqueue(Process *proc)
{
    if (!scheduling_ || proc == nullptr)
        return false;
    const size_t id = proc->sched_id_;
    if (id >= in_queue_.size() || in_queue_[id])
        return false;
    in_queue_[id] = true;
    ready_.push_back(proc);
    return true;
}

void
Engine::parallelNotify(Process *proc)
{
    Par *par = par_.load(std::memory_order_seq_cst);
    if (par != nullptr)
        par->notify(proc);
}

int
Engine::numThreads() const
{
    if (num_threads_ > 0)
        return num_threads_;
    return defaultNumThreads();
}

int
Engine::defaultNumThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const int fallback = hw == 0 ? 1 : static_cast<int>(hw);
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup, and
    // callers race at worst against an external setenv we don't do.
    const char *env = std::getenv("REVET_NUM_THREADS");
    if (env == nullptr)
        return fallback;
    // Strict parse: the whole value must be one in-range decimal
    // integer. strtol alone would silently accept "8abc" (trailing
    // junk), and silently ignore "abc"/""/0/negatives/overflow —
    // worker-count typos must be loud, not absorbed.
    char *end = nullptr;
    errno = 0;
    const long n = std::strtol(env, &end, 10);
    const bool junk = end == env || *end != '\0';
    if (junk || errno == ERANGE || n <= 0 || n >= 1024) {
        std::fprintf(stderr,
                     "revet: ignoring invalid REVET_NUM_THREADS=\"%s\" "
                     "(want an integer in [1, 1023]); using %d\n",
                     env, fallback);
        return fallback;
    }
    return static_cast<int>(n);
}

void
Engine::throwLivelock(uint64_t max_rounds) const
{
    throw std::runtime_error(
        "dataflow engine exceeded " + std::to_string(max_rounds) +
        " working rounds with tokens still moving — either a genuine "
        "livelock (see the stall reasons below) or an undersized "
        "max_rounds for this workload. " + stallReport());
}

uint64_t
Engine::run(uint64_t max_rounds)
{
    sched_ = SchedStats{};
    if (policy_ == Policy::parallel)
        return runParallel(max_rounds);
    return runWorklist(max_rounds);
}

uint64_t
Engine::runWorklist(uint64_t max_rounds)
{
    scheduling_ = true;
    ready_.clear();
    in_queue_.assign(procs_.size(), false);
    // Everything starts ready: callers may have pushed tokens between
    // runs, and self-driving primitives (sources, counters) have no
    // input edge to wake them.
    for (auto &proc : procs_) {
        in_queue_[proc->sched_id_] = true;
        ready_.push_back(proc.get());
    }

    try {
        while (true) {
            if (ready_.empty()) {
                // Certify quiescence with one full rescan. With correct
                // notification wiring this never finds progress; when a
                // channel bypasses the engine (constructed outside
                // Engine::channel) it degrades to one full scan per
                // round instead of silently dropping work.
                ++sched_.verifyPasses;
                bool progress = false;
                for (auto &proc : procs_) {
                    int quanta = proc->runQuanta(kBurst);
                    ++sched_.steps;
                    if (quanta == 0)
                        ++sched_.idleSteps;
                    sched_.quanta += quanta;
                    if (quanta > 0) {
                        progress = true;
                        enqueue(proc.get());
                    }
                }
                if (!progress)
                    break;
                ++sched_.missedWakeups;
                if (++sched_.rounds > max_rounds)
                    throwLivelock(max_rounds);
                continue;
            }

            // One round: the current generation of the ready deque.
            // Processes woken while it drains run in the next round.
            bool progress = false;
            for (size_t n = ready_.size(); n > 0 && !ready_.empty();
                 --n) {
                Process *proc = ready_.front();
                ready_.pop_front();
                in_queue_[proc->sched_id_] = false;
                int quanta = proc->runQuanta(kBurst);
                ++sched_.steps;
                if (quanta == 0)
                    ++sched_.idleSteps;
                sched_.quanta += quanta;
                progress |= quanta > 0;
                // A full burst means the primitive is still runnable on
                // its own (no channel event will requeue it); anything
                // less means it blocked and channel transitions own its
                // next wakeup.
                if (quanta == kBurst)
                    enqueue(proc);
            }
            if (progress && ++sched_.rounds > max_rounds)
                throwLivelock(max_rounds);
        }
    } catch (...) {
        scheduling_ = false;
        throw;
    }
    scheduling_ = false;
    if (sched_.rounds * procs_.size() > sched_.steps)
        sched_.stepsSkipped =
            sched_.rounds * procs_.size() - sched_.steps;
    return sched_.rounds;
}

uint64_t
Engine::runParallel(uint64_t max_rounds)
{
    const int n = numThreads();
    // Nothing to shard: one worker (or one process) degrades to the
    // plain worklist, which has identical semantics and less overhead.
    if (n < 2 || procs_.size() < 2)
        return runWorklist(max_rounds);

    Par par(*this, n);
    par.maxRounds = max_rounds;
    par_.store(&par, std::memory_order_seq_cst);
    // Channels run their full synchronization protocol only while
    // workers exist; the flag flips strictly before spawn / after join
    // so it is ordered by thread creation and join themselves.
    for (auto &ch : channels_)
        ch->setConcurrent(true);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(n) - 1);
    try {
        for (int t = 1; t < n; ++t)
            threads.emplace_back([&par, t] { par.workerLoop(t); });
    } catch (...) {
        // Thread spawn failed: stop whatever did start, then rethrow.
        par.stop.store(true, std::memory_order_seq_cst);
        par.wakeAll();
        for (auto &th : threads)
            th.join();
        for (auto &ch : channels_)
            ch->setConcurrent(false);
        par_.store(nullptr, std::memory_order_seq_cst);
        throw;
    }
    par.workerLoop(0); // the calling thread is worker 0
    for (auto &th : threads)
        th.join();
    for (auto &ch : channels_)
        ch->setConcurrent(false);
    par_.store(nullptr, std::memory_order_seq_cst);

    // Workers are joined: aggregate their private counters.
    for (const auto &w : par.workers) {
        sched_.steps += w->stats.steps;
        sched_.idleSteps += w->stats.idleSteps;
        sched_.quanta += w->stats.quanta;
        sched_.wakeups += w->stats.wakeups;
        sched_.verifyPasses += w->stats.verifyPasses;
        sched_.missedWakeups += w->stats.missedWakeups;
        sched_.steals += w->stats.steals;
    }
    sched_.workers = static_cast<uint64_t>(n);
    const uint64_t runs =
        par.progressRuns.load(std::memory_order_relaxed);
    const uint64_t nprocs = procs_.empty() ? 1 : procs_.size();
    sched_.rounds = (runs + nprocs - 1) / nprocs;

    if (par.error)
        std::rethrow_exception(par.error);
    if (par.livelock.load(std::memory_order_seq_cst))
        throwLivelock(max_rounds);
    return sched_.rounds;
}

bool
Engine::drained() const
{
    for (const auto &ch : channels_) {
        if (!ch->empty())
            return false;
    }
    return true;
}

std::string
Engine::stallReport() const
{
    if (par_.load(std::memory_order_seq_cst) != nullptr) {
        // A parallel run is still executing (watchdog/signal caller):
        // process and channel state belong to the workers, so report
        // that instead of racing them. After run() returns — including
        // the livelock throw path, which joins first — the full report
        // below is safe.
        return "stall report unavailable: parallel run in progress "
               "(worker threads own process state); retry after run() "
               "returns";
    }
    std::ostringstream oss;
    oss << "stalled channels:";
    bool any = false;
    for (const auto &ch : channels_) {
        if (!ch->empty()) {
            any = true;
            oss << " " << (ch->name().empty() ? "?" : ch->name()) << "("
                << ch->size() << " head=" << ch->front().str();
            if (ch->isMulticastCursor()) {
                const Process *writer = ch->producer();
                oss << ", multicast of " << ch->ringRoot()->name()
                    << " from " << (writer ? writer->name() : "?");
            }
            oss << ")";
        }
    }
    if (!any)
        oss << " none";
    oss << "; blocked processes:";
    any = false;
    for (const auto &proc : procs_) {
        if (proc->idle())
            continue;
        any = true;
        oss << "\n  " << proc->stallReason();
    }
    if (!any)
        oss << " none";
    return oss.str();
}

} // namespace dataflow
} // namespace revet
