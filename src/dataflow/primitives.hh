/**
 * @file
 * Streaming-tensor primitives of the Revet abstract machine.
 *
 * These are the Section III-B building blocks. Each primitive consumes and
 * produces explicit-barrier SLTF token streams over Channels and respects
 * the two machine-model rules:
 *
 *  1. every barrier that enters a primitive exits exactly once, in order;
 *  2. thread data is never reordered across barriers (only between them).
 *
 * Primitives are written incrementally — fire() performs one bounded
 * firing and never consumes an input token unless the resulting outputs
 * can be pushed — so the same objects run over unbounded and bounded
 * channels alike.
 *
 * A firing moves a run. Between two barriers SLTF streams carry plain
 * data runs, one token per thread, and a primitive handles every
 * thread of the run the same way: one fire() call takes the leading
 * data run at its inputs (the threads aligned on every lane, at most
 * the budget it is given and, on bounded outputs, the free room), does
 * the whole run's work, and moves it with one consume per input
 * cursor and one push onto its output ring (channel.hh): a bundle
 * argument whose lanes share a producer ring is read, classified and
 * consumed once, and all of a primitive's output lanes are one ring,
 * so a firing pays one push and at most one wakeup per consumer
 * cursor, however wide its bundles. A barrier still fires alone. A
 * quantum stays one thread or barrier moved, so a run of n counts n
 * quanta and a burst of quanta moves exactly the tokens the same
 * number of one-token firings would: runQuanta hands each firing what
 * is left of the burst, so no run crosses a scheduling decision. A run
 * is snapshotted once: tokens that arrive while it fires are the next
 * firing's work.
 *
 * These classes are the one definition of each firing rule: compiled
 * graphs instantiate them directly (graph::ExecutionContext, which
 * reset()s them between requests; its blocks, parks, FIFO restores
 * and ordinals are ElementWise with a lane function over the machine
 * memory, and only the keyed restore is a process of its own), as do
 * the hand-built networks of the tests and benches. Their fire()
 * bodies allocate nothing once warm, except Sink's growing collection:
 * runs go through a per-thread column scratch, and a lane function's
 * own working memory through a second one (laneScratch).
 *
 * Link fan-out is not a primitive here. As on the vRDA, where the
 * network delivers a vector to every consumer, each producer writes
 * its ring once and each consumer argument reads it through its own
 * cursor (channel.hh); Engine::multicast gives a fanout's outputs
 * cursors on the producer's ring. No process copies tokens, and every
 * consumer still sees an ordinary channel.
 *
 * Every primitive declares its input bundle arguments and its output
 * channels to the base class (declareIo) at construction. The Engine
 * uses the declaration to wire the channels — the outputs' rings fold
 * into one, and each argument's lanes group into cursors, which the
 * primitive reads through reader() — and the base class uses it for
 * generic stall diagnostics: a blocked primitive can say which inputs
 * it is starved on and which outputs are full.
 *
 * Concurrency contract (Engine::Policy::parallel): the engine never
 * runs one Process on two workers at once, so primitive internal state
 * needs no synchronization. A primitive's channels may be operated on
 * by its peer endpoint concurrently, but every guard a primitive uses
 * is stable in the direction it matters — !empty() observed by the
 * consumer can only stay true (the producer only adds), canPush()
 * observed by the producer can only stay true (the consumer only
 * frees) — so a passing guard never invalidates before the guarded
 * pop/push. The converse races (a guard failing just as the peer makes
 * it passable) are exactly the readiness notifications the scheduler
 * delivers. See channel.hh for the full memory-ordering contract.
 *
 * Corollary: a *negative* observation (head absent, run ended) is NOT
 * stable — a producer may push mid-firing. A fire() that branches on
 * "no token there" must act on one observation of each head;
 * re-reading can see a different world than the branch was chosen on
 * (ForwardMerge's barrier fall-through is the canonical case). This
 * holds by construction: every primitive reads its inputs only through
 * one bundle reader (readHeads in primitives.cc), which reads each
 * cursor once per firing — one emptiness check, then one
 * Cursor::peekRun that classifies the head from the tag column and
 * copies each lane's leading data run — and
 * every decision of the firing branches on what that read returned. A
 * token that arrives mid-firing is the next firing's work — its push
 * notification re-queues the process.
 */

#ifndef REVET_DATAFLOW_PRIMITIVES_HH
#define REVET_DATAFLOW_PRIMITIVES_HH

#include <array>
#include <deque>
#include <initializer_list>
#include <stdexcept>
#include <functional>
#include <string>
#include <vector>

#include "dataflow/channel.hh"

namespace revet
{
namespace dataflow
{

/** The cursors one bundle argument of a process reads through, in
 * the order of the first lane each serves. */
struct Reader
{
    Cursor *const *cur;
    size_t n;
};

/** Base class for all streaming primitives. */
class Process
{
  public:
    explicit Process(std::string name) : name_(std::move(name)) {}
    virtual ~Process() = default;

    /**
     * Fire once: move one run of at most @p budget threads (@p budget
     * >= 1), or one barrier.
     * @return the quanta done — threads plus barriers moved — or 0
     * when the primitive is blocked.
     */
    virtual int fire(int budget) = 0;

    /**
     * Run up to @p burst quanta; returns the number completed. A return
     * value less than @p burst means the primitive blocked (its next
     * fire() would make no progress until a channel event wakes it).
     */
    int
    runQuanta(int burst)
    {
        int done = 0;
        try {
            while (done < burst) {
                const int quanta = fire(burst - done);
                if (quanta == 0)
                    break;
                done += quanta;
            }
        } catch (const std::runtime_error &err) {
            throw std::runtime_error("[" + name_ + "] " + err.what());
        }
        return done;
    }

    const std::string &name() const { return name_; }

    /** Channels this primitive pops from, as declared at construction:
     * its bundle arguments, one after another. */
    const std::vector<Channel *> &inputs() const { return io_ins_; }
    /** Channels this primitive pushes to, as declared at construction. */
    const std::vector<Channel *> &outputs() const { return io_outs_; }

    /**
     * True when this primitive is quiescent by design: nothing pending
     * on its inputs and no buffered internal state. A non-idle primitive
     * that cannot step is stalled and shows up in Engine::stallReport().
     * The default checks declared inputs only; primitives with internal
     * state (Source, Counter, FwdBackMerge, Reduce) override.
     */
    virtual bool idle() const;

    /**
     * One-line diagnosis of why this primitive cannot currently step.
     * The default derives it from the declared channels (starved inputs,
     * full outputs); stateful primitives append their mode.
     */
    virtual std::string stallReason() const;

    /**
     * Return every per-run member (stream cursors, mode machines,
     * accumulators) to its constructed state so the same network can
     * serve another run once its channels are reset. Setup-only, like
     * Channel::resetForReuse; stateless primitives keep the no-op.
     */
    virtual void reset() {}

  protected:
    /** The lanes of a declaration: a bundle's, one channel (either
     * must outlive the call), or none. */
    struct Lanes
    {
        Lanes() = default;
        Lanes(const Bundle &bundle) : ch(bundle.data()), n(bundle.size()) {}
        Lanes(Channel *const &one) : ch(&one), n(1) {}

        Channel *const *ch = nullptr;
        size_t n = 0;
    };

    /** Record the channels this primitive reads, one Lanes per bundle
     * argument (lanes the primitive consumes together; at most
     * kMaxArgs), and the channels it writes. */
    void declareIo(std::initializer_list<Lanes> args, Lanes outs);

    /** The cursors of input argument @p arg (wired at registration). */
    Reader
    reader(size_t arg) const
    {
        return {cursors_.data() + cursorEnds_[arg],
                cursorEnds_[arg + 1] - cursorEnds_[arg]};
    }

    /** The ring of this primitive's outputs (null without outputs). */
    Ring *outRing() const { return out_; }

    /** Channel-derived stall description, for overrides to extend. */
    std::string ioStallDetail() const;

  private:
    friend class Engine;

    std::string name_;
    std::vector<Channel *> io_ins_;
    std::vector<Channel *> io_outs_;
    /** Bundle arguments a primitive reads: a merge's two sides. */
    static constexpr size_t kMaxArgs = 2;
    size_t args_ = 0;
    /** Argument a is io_ins_[argEnds_[a], argEnds_[a + 1]). */
    std::array<uint32_t, kMaxArgs + 1> argEnds_{};
    /** Argument a reads through cursors_[cursorEnds_[a],
     * cursorEnds_[a + 1]). */
    std::vector<Cursor *> cursors_;
    std::array<uint32_t, kMaxArgs + 1> cursorEnds_{};
    Ring *out_ = nullptr;
    /** On the worklist's ready deque (serial runs only): a ring skips
     * notifying a queued consumer. */
    bool queued_ = false;
    /** Index into the owning engine's scheduler tables (the parallel
     * per-process state/latch arrays). */
    size_t sched_id_ = static_cast<size_t>(-1);
};

/** Injects a fixed token stream into a channel. */
class Source : public Process
{
  public:
    Source(std::string name, Channel *out, TokenStream stream)
        : Process(std::move(name)), out_(out), stream_(std::move(stream))
    {
        declareIo({}, out_);
    }

    int fire(int budget) override;
    bool done() const { return pos_ == stream_.size(); }
    bool idle() const override { return done(); }
    std::string stallReason() const override;
    void reset() override { pos_ = 0; }

    /** Rewind onto a new stream (a compiled graph's per-run seed). */
    void
    reset(TokenStream stream)
    {
        stream_ = std::move(stream);
        pos_ = 0;
    }

  private:
    Channel *out_;
    TokenStream stream_;
    size_t pos_ = 0;
};

/** Collects every token arriving on a channel. */
class Sink : public Process
{
  public:
    Sink(std::string name, Channel *in) : Process(std::move(name)), in_(in)
    {
        declareIo({in_}, {});
    }

    int fire(int budget) override;
    const TokenStream &collected() const { return collected_; }
    void reset() override { collected_.clear(); }

  private:
    Channel *in_;
    TokenStream collected_;
};

/** One firing's threads, lane by lane: in[i][t] is input lane i of
 * thread t and out[j][t] output lane j, for t < n. */
struct LaneRun
{
    size_t n;              ///< threads in the run (>= 1)
    size_t ins;            ///< input lanes
    size_t outs;           ///< output lanes
    const Word *const *in; ///< one column of n words per input lane
    Word *const *out;      ///< one column of n words per output lane
};

/** Lane function: maps a run of threads' input lanes to their output
 * lanes, writing every output word of every thread. */
using LaneFn = std::function<void(const LaneRun &)>;

/** Working memory for the lane function running on this thread: at
 * least @p words words, grown once and reused. It is apart from the
 * column scratch the function's LaneRun points into, and lane
 * functions do not nest, so one call may use all of it. */
Word *laneScratch(size_t words);

/**
 * Element-wise operation over aligned streams (Section III-B(a)).
 *
 * A data run aligned on every input maps through @p fn in one call;
 * barriers (which must agree across inputs) pass to every output.
 * Ordering, hierarchy, and thread count are never changed.
 */
class ElementWise : public Process
{
  public:
    /** @throws std::logic_error when @p ins is empty: with no input
     * to wait on, every step would be a firing. */
    ElementWise(std::string name, Bundle ins, Bundle outs, LaneFn fn)
        : Process(std::move(name)), ins_(std::move(ins)),
          outs_(std::move(outs)), fn_(std::move(fn))
    {
        if (ins_.empty())
            throw std::logic_error(this->name() + ": no input lanes");
        declareIo({ins_}, outs_);
        in_cols_.resize(ins_.size());
        out_cols_.resize(outs_.size());
    }

    int fire(int budget) override;

  private:
    Bundle ins_;
    Bundle outs_;
    LaneFn fn_;
    std::vector<const Word *> in_cols_;
    std::vector<Word *> out_cols_;
};

/**
 * Broadcast (expansion): repeats each element of the shallow stream
 * across one dim-@p level group of the deep structure stream
 * (Section III-B(b)). The output mirrors the deep stream's structure with
 * its data replaced by the current shallow element; the deep stream is
 * consumed (fan it out upstream if its values are also needed).
 */
class Broadcast : public Process
{
  public:
    Broadcast(std::string name, Channel *deep, Channel *shallow,
              Channel *out, int level = 1)
        : Process(std::move(name)), deep_(deep), shallow_(shallow),
          out_(out), level_(level)
    {
        declareIo({deep_, shallow_}, out_);
    }

    int fire(int budget) override;

  private:
    Channel *deep_;
    Channel *shallow_;
    Channel *out_;
    int level_;
};

/**
 * Counter (expansion): maps each (min, max, step) triple to the range
 * [min, max) and adds one hierarchy level; incoming barriers are raised
 * one level. Empty ranges still emit their explicit Omega(1) so empty
 * groups stay distinct.
 */
class Counter : public Process
{
  public:
    Counter(std::string name, Channel *min, Channel *max, Channel *step,
            Channel *out)
        : Process(std::move(name)), ins_{min, max, step}, out_(out)
    {
        declareIo({ins_}, out_);
    }

    int fire(int budget) override;
    bool idle() const override;
    std::string stallReason() const override;
    void reset() override;

  private:
    enum class Mode { idle, run, term };

    Bundle ins_; ///< min, max, step
    Channel *out_;
    Mode mode_ = Mode::idle;
    int64_t cur_ = 0;
    int64_t lim_ = 0;
    int64_t stride_ = 0;
};

/**
 * Reduction: the machine's add-reduction. Coalesces the last tensor
 * dimension into the wrapping sum of its elements plus @p init and
 * lowers every barrier by one level. Empty groups yield @p init,
 * preserving [[]] -> [0], [[],[]] -> [0,0], [] -> [].
 */
class Reduce : public Process
{
  public:
    Reduce(std::string name, Channel *in, Channel *out, Word init)
        : Process(std::move(name)), in_(in), out_(out), init_(init),
          acc_(init)
    {
        declareIo({in_}, out_);
    }

    int fire(int budget) override;
    bool idle() const override;
    std::string stallReason() const override;
    void reset() override;

  private:
    Channel *in_;
    Channel *out_;
    Word init_;
    Word acc_;
    /** True while data has been folded into acc_ but the group's
     * closing barrier has not arrived. */
    bool in_group_ = false;
};

/**
 * Flatten / hierarchy strip: removes one hierarchy level without touching
 * elements — Omega(1) disappears, Omega(j) becomes Omega(j-1). Used for
 * fork (expansion/flatten pair) and for edges leaving a while-loop body.
 */
class Flatten : public Process
{
  public:
    Flatten(std::string name, Channel *in, Channel *out)
        : Process(std::move(name)), in_(in), out_(out)
    {
        declareIo({in_}, out_);
    }

    int fire(int budget) override;

  private:
    Channel *in_;
    Channel *out_;
};

/**
 * Filter: forwards a thread's bundle only when its predicate matches
 * @p sense; barriers pass through unmodified (Section III-B(c)). An if
 * statement uses two filters with opposite sense on the same fanned-out
 * predicate.
 */
class Filter : public Process
{
  public:
    Filter(std::string name, Channel *pred, const Bundle &ins, Bundle outs,
           bool sense = true)
        : Process(std::move(name)), ins_{pred}, outs_(std::move(outs)),
          sense_(sense)
    {
        ins_.insert(ins_.end(), ins.begin(), ins.end());
        declareIo({ins_}, outs_);
    }

    int fire(int budget) override;

  private:
    Bundle ins_; ///< the predicate, then the thread bundle
    Bundle outs_;
    bool sense_;
};

/**
 * Forward merge: interleaves two forward branches into one stream,
 * eagerly within the lowest dimension. On reaching a barrier on one
 * input, that input stalls until the other presents the matching
 * barrier; the pair is forwarded as a single barrier. Thread bundles
 * merge atomically.
 */
class ForwardMerge : public Process
{
  public:
    ForwardMerge(std::string name, Bundle a, Bundle b, Bundle outs)
        : Process(std::move(name)), a_(std::move(a)), b_(std::move(b)),
          outs_(std::move(outs))
    {
        declareIo({a_, b_}, outs_);
    }

    int fire(int budget) override;

  private:
    Bundle a_;
    Bundle b_;
    Bundle outs_;
};

/**
 * Forward-backward merge: the while-loop header (Section III-B(d)).
 *
 * Batching is deterministic: before the flush only the forward input
 * flows (recirculating threads wait in the backedge for the drain
 * phase), so batch structure and link traffic depend only on the input
 * streams, never on scheduling order — the property the scheduler
 * equivalence suite certifies. The hardware merge additionally
 * free-runs recirculators into the current batch, which overlaps
 * iterations but cannot change results.
 *
 * Forward data flows until a forward barrier Omega(k) arrives; then the merge
 * emits the loop-control Omega(1), stalls the forward input, and drains:
 * every backedge group that still contains threads is passed through and
 * re-terminated with Omega(1); a backedge group that arrives empty means
 * the loop body has fully drained, so the merge emits Omega(k+1) into the
 * body (the loop-exit edge's Flatten lowers it back to Omega(k)) and
 * unstalls the forward input. The copy of that final barrier that comes
 * back around the backedge is swallowed as an echo.
 */
class FwdBackMerge : public Process
{
  public:
    FwdBackMerge(std::string name, Bundle fwd, Bundle back, Bundle outs)
        : Process(std::move(name)), fwd_(std::move(fwd)),
          back_(std::move(back)), outs_(std::move(outs))
    {
        declareIo({fwd_, back_}, outs_);
    }

    int fire(int budget) override;
    bool idle() const override;
    std::string stallReason() const override;
    void reset() override;

  private:
    enum class Mode { flow, drain };

    Bundle fwd_;
    Bundle back_;
    Bundle outs_;
    Mode mode_ = Mode::flow;
    int pending_level_ = 0;
    bool back_data_since_barrier_ = false;
    std::deque<int> pending_echoes_;
};

} // namespace dataflow
} // namespace revet

#endif // REVET_DATAFLOW_PRIMITIVES_HH
