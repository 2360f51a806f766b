#include "dataflow/primitives.hh"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace revet
{
namespace dataflow
{

// Note on backpressure: a push throws on a full bounded cursor, so
// every run is sized by its output ring's room() and every one-token
// push is preceded by a canPush() / runCap() guard in the same firing.

void
Process::declareIo(std::initializer_list<Lanes> args, Lanes outs)
{
    if (args.size() > kMaxArgs)
        throw std::logic_error(name_ + ": more bundle arguments than " +
                               std::to_string(kMaxArgs));
    size_t lanes = 0;
    for (const Lanes &arg : args)
        lanes += arg.n;
    io_ins_.clear();
    io_ins_.reserve(lanes);
    args_ = 0;
    for (const Lanes &arg : args) {
        io_ins_.insert(io_ins_.end(), arg.ch, arg.ch + arg.n);
        argEnds_[++args_] = static_cast<uint32_t>(io_ins_.size());
    }
    io_outs_.assign(outs.ch, outs.ch + outs.n);
}

bool
Process::idle() const
{
    for (const Channel *ch : inputs()) {
        if (!ch->empty())
            return false;
    }
    return true;
}

std::string
Process::ioStallDetail() const
{
    std::ostringstream oss;
    bool starved = false;
    for (const Channel *ch : inputs()) {
        if (ch->empty()) {
            oss << (starved ? " " : "starved inputs:[");
            oss << (ch->name().empty() ? "?" : ch->name());
            starved = true;
        }
    }
    if (starved)
        oss << "]";
    bool full = false;
    for (const Channel *ch : outputs()) {
        if (!ch->canPush()) {
            oss << (full ? " " : (starved ? "; full outputs:[" :
                                            "full outputs:["));
            oss << (ch->name().empty() ? "?" : ch->name());
            full = true;
            // A multicast root is full through its bounded cursors.
            std::string cursors;
            for (const Channel *c : ch->readers()) {
                if (c != ch && c->size() >= c->capacity())
                    cursors += (cursors.empty() ? "" : " ") + c->name();
            }
            if (!cursors.empty())
                oss << "->{" << cursors << "}";
        }
    }
    if (full)
        oss << "]";
    if (!starved && !full)
        oss << "internally blocked";
    return oss.str();
}

std::string
Process::stallReason() const
{
    return name_ + ": " + ioStallDetail();
}

std::string
Source::stallReason() const
{
    return name() + ": " + std::to_string(stream_.size() - pos_) +
           " tokens pending; " + ioStallDetail();
}

bool
Counter::idle() const
{
    return mode_ == Mode::idle && Process::idle();
}

std::string
Counter::stallReason() const
{
    const char *mode = mode_ == Mode::idle  ? "idle"
                       : mode_ == Mode::run ? "run"
                                            : "term";
    return name() + ": mode=" + mode + "; " + ioStallDetail();
}

bool
FwdBackMerge::idle() const
{
    return mode_ == Mode::flow && pending_echoes_.empty() &&
           Process::idle();
}

std::string
FwdBackMerge::stallReason() const
{
    std::ostringstream oss;
    oss << name() << ": mode="
        << (mode_ == Mode::flow ? "flow" : "drain");
    if (mode_ == Mode::drain)
        oss << " (forward input stalled, draining backedge toward B"
            << pending_level_ + 1 << ")";
    if (!pending_echoes_.empty())
        oss << " awaiting " << pending_echoes_.size()
            << " backedge echo(es) of B" << pending_echoes_.front();
    oss << "; " << ioStallDetail();
    return oss.str();
}

namespace
{

/** Threads one firing moves at most, so the column scratch stays
 * small. A longer run is the next firing of the same burst, which
 * moves the same tokens in the same order. */
constexpr size_t kMaxRun = 256;

/** The column scratch of the firing running on this thread (a worker
 * runs one process at a time, and firings do not nest): at least
 * @p words words, grown once and reused. */
Word *
scratch(size_t words)
{
    thread_local std::vector<Word> buf;
    if (buf.size() < words)
        buf.resize(words);
    return buf.data();
}

/** The threads a firing may move with @p room free on its outputs:
 * at most @p budget and kMaxRun. */
size_t
runCap(int budget, size_t room)
{
    return std::min({static_cast<size_t>(budget), kMaxRun, room});
}

/** The free room of the output ring @p out (unbounded without
 * outputs). */
size_t
roomOf(const Ring *out)
{
    return out ? out->room() : Channel::unbounded;
}

/** What a bundle's heads show: kind -1 when some lane is empty
 * (blocked), 0 for an aligned data run of n threads, k for the barrier
 * Bk on every lane. */
struct Heads
{
    int kind;
    size_t n;
};

/**
 * The one read of bundle argument @p in a firing makes: blocked if any
 * cursor is empty, else each cursor read once (Cursor::peekRun), the
 * leading data run of the lane at position i — at most @p cap words —
 * into column @p cols + i * kMaxRun.
 * @throws std::runtime_error if the heads are misaligned (a mix of
 * data and barriers, or differing barrier levels) — a machine-model
 * violation.
 */
Heads
readHeads(Reader in, size_t cap, Word *cols)
{
    for (size_t i = 0; i < in.n; ++i) {
        if (in.cur[i]->empty())
            return {-1, 0};
    }
    bool any_data = false;
    int level = -1;
    for (size_t i = 0; i < in.n; ++i) {
        int head = 0;
        const size_t n = in.cur[i]->peekRun(cols, kMaxRun, cap, head);
        if (head == 0) {
            any_data = true;
            cap = n;
        } else if (level == -1) {
            level = head;
        } else if (level != head) {
            throw std::runtime_error(
                "bundle misaligned: barriers B" + std::to_string(level) +
                " vs B" + std::to_string(head));
        }
    }
    if (any_data && level != -1) {
        throw std::runtime_error(
            "bundle misaligned: data vs barrier at channel heads");
    }
    return any_data ? Heads{0, cap} : Heads{level, 0};
}

/** Take @p n tokens from every lane of @p in. */
void
consumeRun(Reader in, size_t n)
{
    for (size_t i = 0; i < in.n; ++i)
        in.cur[i]->consume(n);
}

/** Append the run of @p n threads in columns @p cols + j * kMaxRun to
 * @p out (nothing without outputs). */
void
pushRun(Ring *out, const Word *cols, size_t n)
{
    if (out)
        out->pushRun(cols, kMaxRun, n);
}

void
pushBarrier(Ring *out, int level)
{
    if (out)
        out->pushBarrier(level);
}

/** Move the @p n threads readHeads put in @p cols from @p from to
 * @p out: one consume per cursor, then one push. */
int
moveRun(Reader from, Ring *out, const Word *cols, size_t n)
{
    consumeRun(from, n);
    pushRun(out, cols, n);
    return static_cast<int>(n);
}

} // namespace

Word *
laneScratch(size_t words)
{
    thread_local std::vector<Word> buf;
    if (buf.size() < words)
        buf.resize(words);
    return buf.data();
}

int
Source::fire(int budget)
{
    const size_t n = std::min({static_cast<size_t>(budget),
                               stream_.size() - pos_, out_->room()});
    if (n == 0)
        return 0;
    out_->pushTokens(stream_.data() + pos_, n);
    pos_ += n;
    return static_cast<int>(n);
}

int
Sink::fire(int budget)
{
    const size_t n = in_->readTokens(
        static_cast<size_t>(budget),
        [this](const Token &tok, size_t) { collected_.push_back(tok); });
    if (n > 0)
        in_->consume(n);
    return static_cast<int>(n);
}

int
ElementWise::fire(int budget)
{
    const size_t cap = runCap(budget, roomOf(outRing()));
    if (cap == 0)
        return 0;
    Word *cols = scratch((ins_.size() + outs_.size()) * kMaxRun);
    const Reader in = reader(0);
    const Heads heads = readHeads(in, cap, cols);
    if (heads.kind < 0)
        return 0;
    if (heads.kind > 0) {
        consumeRun(in, 1);
        pushBarrier(outRing(), heads.kind);
        return 1;
    }
    const size_t n = heads.n;
    for (size_t i = 0; i < ins_.size(); ++i)
        in_cols_[i] = cols + i * kMaxRun;
    for (size_t j = 0; j < outs_.size(); ++j)
        out_cols_[j] = cols + (ins_.size() + j) * kMaxRun;
    fn_(LaneRun{n, ins_.size(), outs_.size(), in_cols_.data(),
                out_cols_.data()});
    consumeRun(in, n);
    pushRun(outRing(), cols + ins_.size() * kMaxRun, n);
    return static_cast<int>(n);
}

int
Broadcast::fire(int budget)
{
    const size_t cap = runCap(budget, out_->room());
    if (cap == 0)
        return 0;
    Word *col = scratch(kMaxRun);
    const Heads deep = readHeads(reader(0), cap, col);
    if (deep.kind < 0)
        return 0;
    // The shallow stream moves at its own rate: read its head only
    // when the deep head needs it, and its element only for data.
    Word sh = 0;
    if (deep.kind == 0) {
        const Heads shallow = readHeads(reader(1), 1, &sh);
        if (shallow.kind < 0)
            return 0;
        if (shallow.kind > 0) {
            throw std::runtime_error(
                name() + ": shallow stream has a barrier where the deep "
                         "structure still carries data");
        }
        // Every thread of the deep run takes the current shallow
        // element.
        std::fill(col, col + deep.n, sh);
        deep_->consume(deep.n);
        out_->pushData(col, deep.n);
        return static_cast<int>(deep.n);
    }
    const int j = deep.kind;
    if (j < level_) {
        // Barrier below the broadcast level: structure internal to one
        // broadcast element; pass through.
        deep_->consume(1);
        out_->push(Token::barrier(j));
        return 1;
    }
    const int shallow = readHeads(reader(1), 0, &sh).kind;
    if (shallow < 0)
        return 0;
    if (j == level_) {
        // One broadcast group ends: retire the shallow element.
        if (shallow != 0)
            throw std::runtime_error(name() + ": expected shallow data");
    } else if (shallow != j - level_) {
        // j > level_: the shallow stream's own barrier must match, one
        // level shallower.
        throw std::runtime_error(
            name() + ": shallow barrier mismatch at deep B" +
            std::to_string(j));
    }
    deep_->consume(1);
    shallow_->consume(1);
    out_->push(Token::barrier(j));
    return 1;
}

int
Counter::fire(int budget)
{
    if (mode_ == Mode::idle) {
        Word *cols = scratch(ins_.size() * kMaxRun);
        const Heads heads = readHeads(reader(0), 1, cols);
        if (heads.kind < 0)
            return 0;
        if (heads.kind > 0) {
            if (!out_->canPush())
                return 0;
            consumeRun(reader(0), 1);
            out_->push(Token::barrier(heads.kind + 1));
            return 1;
        }
        cur_ = static_cast<int32_t>(cols[0]);
        lim_ = static_cast<int32_t>(cols[kMaxRun]);
        stride_ = static_cast<int32_t>(cols[2 * kMaxRun]);
        consumeRun(reader(0), 1);
        if (stride_ == 0)
            throw std::runtime_error(name() + ": zero counter stride");
        mode_ = Mode::run;
        return 1;
    }
    if (mode_ == Mode::run) {
        // Values left in [cur, lim): the counter's own data run.
        const int64_t span = stride_ > 0 ? lim_ - cur_ : cur_ - lim_;
        const int64_t step = stride_ > 0 ? stride_ : -stride_;
        if (span <= 0) {
            mode_ = Mode::term;
        } else {
            const size_t n = std::min(
                runCap(budget, out_->room()),
                static_cast<size_t>((span + step - 1) / step));
            if (n == 0)
                return 0;
            Word *col = scratch(n);
            for (size_t i = 0; i < n; ++i) {
                col[i] = static_cast<Word>(static_cast<uint64_t>(cur_) &
                                           0xffffffffu);
                cur_ += stride_;
            }
            out_->pushData(col, n);
            return static_cast<int>(n);
        }
    }
    // Mode::term: emit the explicit group terminator.
    if (!out_->canPush())
        return 0;
    out_->push(Token::barrier(1));
    mode_ = Mode::idle;
    return 1;
}

void
Counter::reset()
{
    mode_ = Mode::idle;
    cur_ = lim_ = stride_ = 0;
}

int
Reduce::fire(int budget)
{
    Word *col = scratch(kMaxRun);
    const Heads heads = readHeads(
        reader(0), std::min(static_cast<size_t>(budget), kMaxRun), col);
    if (heads.kind < 0)
        return 0;
    if (heads.kind == 0) {
        for (size_t i = 0; i < heads.n; ++i)
            acc_ += col[i];
        in_group_ = true;
        in_->consume(heads.n);
        return static_cast<int>(heads.n);
    }
    if (!out_->canPush())
        return 0;
    const int j = heads.kind;
    in_->consume(1);
    if (j == 1) {
        out_->push(Token::data(acc_));
        acc_ = init_;
        in_group_ = false;
    } else {
        out_->push(Token::barrier(j - 1));
    }
    return 1;
}

bool
Reduce::idle() const
{
    return !in_group_ && Process::idle();
}

std::string
Reduce::stallReason() const
{
    std::string detail = ioStallDetail();
    if (in_group_)
        detail = "partial reduction buffered (awaiting the group's "
                 "closing barrier); " + detail;
    return name() + ": " + detail;
}

void
Reduce::reset()
{
    acc_ = init_;
    in_group_ = false;
}

int
Flatten::fire(int budget)
{
    // A full output still lets B1 vanish: read with its room as the cap.
    const size_t cap = runCap(budget, out_->room());
    Word *col = scratch(kMaxRun);
    const Heads heads = readHeads(reader(0), cap, col);
    if (heads.kind < 0)
        return 0;
    if (heads.kind == 1) {
        in_->consume(1); // the stripped level vanishes
        return 1;
    }
    if (cap == 0)
        return 0;
    if (heads.kind == 0)
        return moveRun(reader(0), outRing(), col, heads.n);
    in_->consume(1);
    out_->push(Token::barrier(heads.kind - 1));
    return 1;
}

int
Filter::fire(int budget)
{
    const size_t lanes = ins_.size();
    Word *cols = scratch(lanes * kMaxRun);
    const Reader in = reader(0);
    const Heads heads = readHeads(
        in, std::min(static_cast<size_t>(budget), kMaxRun), cols);
    if (heads.kind < 0)
        return 0;
    // A kept thread needs room on the outputs, a dropped one does not.
    const size_t room = runCap(budget, roomOf(outRing()));
    if (heads.kind > 0) {
        if (room == 0)
            return 0;
        consumeRun(in, 1);
        pushBarrier(outRing(), heads.kind);
        return 1;
    }
    const size_t n = heads.n;
    // Each thread of the run is kept or dropped by its predicate, so
    // with the outputs full the run still drops the threads ahead of
    // the first kept one.
    size_t fired = 0, kept = 0;
    for (; fired < n; ++fired) {
        if ((cols[fired] != 0) != sense_)
            continue;
        if (kept == room)
            break;
        // Compact the kept threads to the front of every lane.
        for (size_t i = 1; i < lanes; ++i)
            cols[i * kMaxRun + kept] = cols[i * kMaxRun + fired];
        ++kept;
    }
    if (fired == 0)
        return 0;
    consumeRun(in, fired);
    pushRun(outRing(), cols + kMaxRun, kept);
    return static_cast<int>(fired);
}

int
ForwardMerge::fire(int budget)
{
    // Read each side's heads exactly once (-1 = no token yet). Under
    // Policy::parallel a producer can push mid-firing, so a head
    // observed absent must stay absent for the rest of this decision:
    // re-reading it could see freshly arrived data where the barrier
    // fall-through expects a barrier and throw a spurious mismatch.
    // The late token is the next firing's work — its push notification
    // re-queues this process. A data run comes from the side whose
    // read found data; when that is A, B is only classified (cap 0).
    const size_t cap = runCap(budget, roomOf(outRing()));
    Word *cols = scratch(std::max(a_.size(), b_.size()) * kMaxRun);
    const Heads a = readHeads(reader(0), cap, cols);
    const Heads b = readHeads(reader(1), a.kind == 0 ? 0 : cap, cols);
    if (a.kind == 0 || b.kind == 0) {
        if (cap == 0)
            return 0;
        return a.kind == 0 ? moveRun(reader(0), outRing(), cols, a.n)
                           : moveRun(reader(1), outRing(), cols, b.n);
    }
    // No data at either head: both must present the matching barrier.
    if (a.kind < 0 || b.kind < 0)
        return 0;
    if (a.kind != b.kind) {
        throw std::runtime_error(name() + ": branch barrier mismatch B" +
                                 std::to_string(a.kind) + " vs B" +
                                 std::to_string(b.kind));
    }
    if (cap == 0)
        return 0;
    consumeRun(reader(0), 1);
    consumeRun(reader(1), 1);
    pushBarrier(outRing(), a.kind);
    return 1;
}

int
FwdBackMerge::fire(int budget)
{
    // Read the backedge heads exactly once for the whole firing (-1 =
    // no token yet): a recirculating token can arrive mid-firing under
    // Policy::parallel, and the echo check, the flow-mode sanity check,
    // and the drain below all branch on this one observation (see the
    // negative-observation corollary in primitives.hh). An echo that
    // arrives after the read is the next firing's work; only the drain
    // reads the backedge run.
    const size_t cap = runCap(budget, roomOf(outRing()));
    Word *cols = scratch(std::max(fwd_.size(), back_.size()) * kMaxRun);
    const Reader fwd_in = reader(0);
    const Reader back_in = reader(1);
    const Heads back =
        readHeads(back_in, mode_ == Mode::drain ? cap : 0, cols);
    const int bk = back.kind;

    // The released flush's barrier recirculates through the body as an
    // echo; swallow it wherever it surfaces, before any run starts.
    if (bk > 0 && !pending_echoes_.empty() &&
        bk == pending_echoes_.front()) {
        consumeRun(back_in, 1);
        pending_echoes_.pop_front();
        return 1;
    }

    if (mode_ == Mode::flow) {
        // Only the forward input flows before the flush. Recirculating
        // threads wait in the backedge channel for the drain phase, so
        // the batch structure — and therefore every link's token count
        // — is a function of the input streams alone, independent of
        // scheduling order. The hardware merge free-runs eagerly
        // (recirculators re-enter mid-batch), which only improves
        // pipelining; admitting them here would make link traffic
        // schedule-dependent and break scheduler translation
        // validation. Revisit when channels model finite loop buffers.
        //
        // The only legitimate backedge barrier outside a flush is the
        // pending echo (swallowed above when it is at the head);
        // anything else means a miswired loop, and waiting for the
        // drain would silently misread it as a batch limit.
        if (bk > 0) {
            throw std::runtime_error(
                name() + ": unexpected backedge barrier B" +
                std::to_string(bk) + " outside a flush");
        }
        if (cap == 0)
            return 0;
        const Heads fwd = readHeads(fwd_in, cap, cols);
        if (fwd.kind < 0)
            return 0;
        if (fwd.kind == 0)
            return moveRun(fwd_in, outRing(), cols, fwd.n);
        // A forward barrier: flush the loop. Terminate the batch with
        // the loop-control Omega(1) and drain.
        consumeRun(fwd_in, 1);
        pushBarrier(outRing(), 1);
        pending_level_ = fwd.kind;
        back_data_since_barrier_ = false;
        mode_ = Mode::drain;
        return 1;
    }

    // Mode::drain: the forward input is stalled; iterate the body dry.
    if (bk < 0)
        return 0;
    if (bk > 1) {
        throw std::runtime_error(name() +
                                 ": backedge barrier B" +
                                 std::to_string(bk) +
                                 " during drain (expected B1)");
    }
    if (cap == 0)
        return 0;
    if (bk == 0) {
        back_data_since_barrier_ = true;
        return moveRun(back_in, outRing(), cols, back.n);
    }
    consumeRun(back_in, 1);
    if (back_data_since_barrier_) {
        // Threads are still circulating: close this iteration batch.
        pushBarrier(outRing(), 1);
        back_data_since_barrier_ = false;
        return 1;
    }
    // Two barriers in a row: the body is empty. Release the flush.
    pushBarrier(outRing(), pending_level_ + 1);
    pending_echoes_.push_back(pending_level_ + 1);
    mode_ = Mode::flow;
    return 1;
}

void
FwdBackMerge::reset()
{
    mode_ = Mode::flow;
    pending_level_ = 0;
    back_data_since_barrier_ = false;
    pending_echoes_.clear();
}

} // namespace dataflow
} // namespace revet
