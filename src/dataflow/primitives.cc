#include "dataflow/primitives.hh"

#include <sstream>
#include <stdexcept>

namespace revet
{
namespace dataflow
{

// Note on backpressure: Channel::push throws on a full bounded channel,
// so every push site below must be (and is) preceded by a canPush() /
// allCanPush() guard on the same scheduler quantum.

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

/** Move one token from each lane of @p from, starting at lane
 * @p first, to the matching lane of @p outs. Unbounded channels never
 * wake a producer on pop, so lane-by-lane wakes consumers in the same
 * order as popping the whole bundle before pushing. */
inline void
forwardLanes(const Bundle &from, const Bundle &outs, size_t first = 0)
{
    for (size_t i = 0; i < outs.size(); ++i)
        outs[i]->push(from[first + i]->pop());
}

inline void
dropLanes(const Bundle &bundle)
{
    for (Channel *ch : bundle)
        ch->pop();
}

} // namespace

bool
Source::stepOnce()
{
    if (pos_ >= stream_.size() || !out_->canPush())
        return false;
    out_->push(stream_[pos_++]);
    return true;
}

bool
Sink::stepOnce()
{
    if (in_->empty())
        return false;
    collected_.push_back(in_->pop());
    return true;
}

bool
ElementWise::stepOnce()
{
    if (!allHaveToken(ins_) || !allCanPush(outs_))
        return false;
    int kind = bundleHeadKind(ins_);
    if (kind > 0) {
        dropLanes(ins_);
        pushBarrier(outs_, kind);
        return true;
    }
    for (size_t i = 0; i < ins_.size(); ++i)
        in_words_[i] = ins_[i]->pop().word();
    out_words_.clear();
    fn_(in_words_, out_words_);
    if (out_words_.size() != outs_.size()) {
        throw std::logic_error(name() + ": lane fn produced " +
                               std::to_string(out_words_.size()) +
                               " results for " +
                               std::to_string(outs_.size()) + " outputs");
    }
    for (size_t i = 0; i < outs_.size(); ++i)
        outs_[i]->push(Token::data(out_words_[i]));
    return true;
}

bool
Broadcast::stepOnce()
{
    if (deep_->empty() || !out_->canPush())
        return false;
    const Token &head = deep_->front();
    if (head.isData()) {
        if (shallow_->empty())
            return false;
        if (!shallow_->front().isData()) {
            throw std::runtime_error(
                name() + ": shallow stream has a barrier where the deep "
                         "structure still carries data");
        }
        deep_->pop();
        out_->push(Token::data(shallow_->front().word()));
        return true;
    }
    int j = head.barrierLevel();
    if (j < level_) {
        // Barrier below the broadcast level: structure internal to one
        // broadcast element; pass through.
        deep_->pop();
        out_->push(Token::barrier(j));
        return true;
    }
    if (shallow_->empty())
        return false;
    const Token &sh = shallow_->front();
    if (j == level_) {
        // One broadcast group ends: retire the shallow element.
        if (!sh.isData())
            throw std::runtime_error(name() + ": expected shallow data");
        deep_->pop();
        shallow_->pop();
        out_->push(Token::barrier(j));
        return true;
    }
    // j > level_: the shallow stream's own barrier must match, one level
    // shallower.
    if (!sh.isBarrier() || sh.barrierLevel() != j - level_) {
        throw std::runtime_error(
            name() + ": shallow barrier mismatch at deep B" +
            std::to_string(j));
    }
    deep_->pop();
    shallow_->pop();
    out_->push(Token::barrier(j));
    return true;
}

bool
Counter::stepOnce()
{
    if (mode_ == Mode::idle) {
        if (!allHaveToken(ins_))
            return false;
        int kind = bundleHeadKind(ins_);
        if (kind > 0) {
            if (!out_->canPush())
                return false;
            dropLanes(ins_);
            out_->push(Token::barrier(kind + 1));
            return true;
        }
        cur_ = ins_[0]->pop().asInt();
        lim_ = ins_[1]->pop().asInt();
        stride_ = ins_[2]->pop().asInt();
        if (stride_ == 0)
            throw std::runtime_error(name() + ": zero counter stride");
        mode_ = Mode::run;
        return true;
    }
    if (mode_ == Mode::run) {
        bool live = stride_ > 0 ? cur_ < lim_ : cur_ > lim_;
        if (!live) {
            mode_ = Mode::term;
        } else {
            if (!out_->canPush())
                return false;
            out_->push(Token::data(static_cast<Word>(
                static_cast<uint64_t>(cur_) & 0xffffffffu)));
            cur_ += stride_;
            return true;
        }
    }
    // Mode::term: emit the explicit group terminator.
    if (!out_->canPush())
        return false;
    out_->push(Token::barrier(1));
    mode_ = Mode::idle;
    return true;
}

void
Counter::reset()
{
    mode_ = Mode::idle;
    cur_ = lim_ = stride_ = 0;
}

bool
Reduce::stepOnce()
{
    if (in_->empty())
        return false;
    const Token &head = in_->front();
    if (head.isData()) {
        acc_ += head.word();
        in_group_ = true;
        in_->pop();
        return true;
    }
    if (!out_->canPush())
        return false;
    int j = head.barrierLevel();
    in_->pop();
    if (j == 1) {
        out_->push(Token::data(acc_));
        acc_ = init_;
        in_group_ = false;
    } else {
        out_->push(Token::barrier(j - 1));
    }
    return true;
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

bool
Flatten::stepOnce()
{
    if (in_->empty())
        return false;
    const Token &head = in_->front();
    if (head.isBarrier() && head.barrierLevel() == 1) {
        in_->pop(); // the stripped level vanishes
        return true;
    }
    if (!out_->canPush())
        return false;
    Token tok = in_->pop();
    if (tok.isBarrier())
        out_->push(Token::barrier(tok.barrierLevel() - 1));
    else
        out_->push(tok);
    return true;
}

bool
Filter::stepOnce()
{
    if (!allHaveToken(ins_))
        return false;
    int kind = bundleHeadKind(ins_);
    if (kind > 0) {
        if (!allCanPush(outs_))
            return false;
        dropLanes(ins_);
        pushBarrier(outs_, kind);
        return true;
    }
    bool keep = (ins_[0]->front().word() != 0) == sense_;
    if (keep && !allCanPush(outs_))
        return false;
    ins_[0]->pop();
    if (keep) {
        forwardLanes(ins_, outs_, 1);
    } else {
        for (size_t i = 1; i < ins_.size(); ++i)
            ins_[i]->pop();
    }
    return true;
}

bool
ForwardMerge::stepOnce()
{
    // Snapshot each side's head exactly once (-1 = no token yet).
    // Under Policy::parallel a producer can push mid-step, so a head
    // observed absent must stay absent for the rest of this decision:
    // re-reading it could see freshly arrived data where the barrier
    // fall-through expects a barrier and throw a spurious mismatch.
    // The late token is next step's work — its push notification
    // re-queues this process.
    const int ka = allHaveToken(a_) ? bundleHeadKind(a_) : -1;
    const int kb = allHaveToken(b_) ? bundleHeadKind(b_) : -1;
    if (ka == 0 || kb == 0) {
        if (!allCanPush(outs_))
            return false;
        forwardLanes(ka == 0 ? a_ : b_, outs_);
        return true;
    }
    // No data at either head: both must present the matching barrier.
    if (ka < 0 || kb < 0)
        return false;
    if (ka != kb) {
        throw std::runtime_error(name() + ": branch barrier mismatch B" +
                                 std::to_string(ka) + " vs B" +
                                 std::to_string(kb));
    }
    if (!allCanPush(outs_))
        return false;
    dropLanes(a_);
    dropLanes(b_);
    pushBarrier(outs_, ka);
    return true;
}

bool
FwdBackMerge::stepOnce()
{
    // Snapshot the backedge head exactly once for the whole step
    // (-1 = no token yet): a recirculating token can arrive mid-step
    // under Policy::parallel, and the echo check, the flow-mode sanity
    // check, and the drain below all branch on this one observation
    // (see the negative-observation corollary in primitives.hh). An
    // echo that arrives after the snapshot is next step's work.
    const int bk = allHaveToken(back_) ? bundleHeadKind(back_) : -1;

    // The released flush's barrier recirculates through the body as an
    // echo; swallow it wherever it surfaces.
    if (bk > 0 && !pending_echoes_.empty() &&
        bk == pending_echoes_.front()) {
        dropLanes(back_);
        pending_echoes_.pop_front();
        return true;
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
        if (!allHaveToken(fwd_) || !allCanPush(outs_))
            return false;
        int kind = bundleHeadKind(fwd_);
        if (kind == 0) {
            forwardLanes(fwd_, outs_);
            return true;
        }
        // A forward barrier: flush the loop. Terminate the batch with
        // the loop-control Omega(1) and drain.
        dropLanes(fwd_);
        pushBarrier(outs_, 1);
        pending_level_ = kind;
        back_data_since_barrier_ = false;
        mode_ = Mode::drain;
        return true;
    }

    // Mode::drain: the forward input is stalled; iterate the body dry.
    if (bk < 0)
        return false;
    if (bk == 0) {
        if (!allCanPush(outs_))
            return false;
        forwardLanes(back_, outs_);
        back_data_since_barrier_ = true;
        return true;
    }
    if (bk != 1) {
        throw std::runtime_error(name() +
                                 ": backedge barrier B" +
                                 std::to_string(bk) +
                                 " during drain (expected B1)");
    }
    if (!allCanPush(outs_))
        return false;
    dropLanes(back_);
    if (back_data_since_barrier_) {
        // Threads are still circulating: close this iteration batch.
        pushBarrier(outs_, 1);
        back_data_since_barrier_ = false;
        return true;
    }
    // Two barriers in a row: the body is empty. Release the flush.
    pushBarrier(outs_, pending_level_ + 1);
    pending_echoes_.push_back(pending_level_ + 1);
    mode_ = Mode::flow;
    return true;
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
