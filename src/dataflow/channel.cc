#include "dataflow/channel.hh"

#include <mutex>
#include <stdexcept>

#include "dataflow/engine.hh"

namespace revet
{
namespace dataflow
{

void
Channel::pushLocked(const Token &tok)
{
    if (ring_ != this) {
        throw std::runtime_error(
            "channel '" + (name_.empty() ? std::string("?") : name_) +
            "' is a multicast " + (reader_ ? "cursor" : "chain link") +
            " of '" + root()->name() + "': only the root is written");
    }
    {
        // Parallel runs keep the full protocol: the seq_cst mirror is
        // what the missed-wakeup proof relies on, and the readers'
        // pops take this lock too.
        std::lock_guard<SpinLock> guard(mu_);
        append(tok, std::memory_order_seq_cst,
               [](Channel *c) { c->woken_ = true; });
    }
    // Notify outside the lock: the wakeup path may run the consumer's
    // scheduler bookkeeping, and holding a channel lock across it would
    // order channel locks against deque locks. The reader list is
    // fixed during a run, and only the producer touches woken_.
    for (Channel *c = readers_; c != nullptr; c = c->next_) {
        if (!c->woken_)
            continue;
        c->woken_ = false;
        if (c->engine_)
            c->notifyTokenAvailable();
    }
}

Token
Channel::popLocked()
{
    bool was_full = false;
    Token tok = Token::data(0);
    {
        std::lock_guard<SpinLock> guard(ring_->mu_);
        tok = take(std::memory_order_seq_cst, was_full);
    }
    if (was_full && engine_)
        notifySpaceAvailable();
    return tok;
}

Token
Channel::frontLocked() const
{
    std::lock_guard<SpinLock> guard(ring_->mu_);
    return buf_[head_];
}

void
Channel::notifyTokenAvailable()
{
    engine_->onTokenAvailable(this);
}

void
Channel::notifySpaceAvailable()
{
    engine_->onSpaceAvailable(this);
}

void
Channel::throwOverflow() const
{
    throw std::runtime_error(
        "channel '" + (name_.empty() ? std::string("?") : name_) +
        "' overflow: push on a full bounded channel (capacity " +
        std::to_string(capacity_) + ") — missing canPush() guard");
}

void
Channel::throwUnderflow() const
{
    throw std::runtime_error(
        "channel '" + (name_.empty() ? std::string("?") : name_) +
        "' underflow: pop on an empty channel");
}

void
Channel::grow()
{
    // The write that just landed filled the ring, so the reader
    // furthest behind holds all n slots starting at the write position:
    // double, unwrapping them to the front, and every other reader's
    // tokens are their suffix.
    const size_t n = slots_.size();
    std::vector<Token> bigger(2 * n, Token::data(0));
    for (size_t i = 0; i < n; ++i)
        bigger[i] = slots_[(tail_ + i) & mask_];
    slots_ = std::move(bigger);
    buf_ = slots_.data();
    mask_ = 2 * n - 1;
    tail_ = n;
    for (Channel *c = readers_; c != nullptr; c = c->next_) {
        c->head_ = n - c->count_;
        c->buf_ = buf_;
        c->mask_ = mask_;
    }
}

void
Channel::setCapacity(size_t capacity)
{
    capacity_ = capacity;
    root()->refreshGate();
}

void
Channel::refreshGate()
{
    gated_ = false;
    for (const Channel *c = readers_; c != nullptr; c = c->next_)
        gated_ |= c->capacity_ != unbounded;
}

std::vector<const Channel *>
Channel::readers() const
{
    std::vector<const Channel *> out;
    for (const Channel *c = readers_; c != nullptr; c = c->next_)
        out.push_back(c);
    return out;
}

void
Channel::resetForReuse()
{
    auto resetCursor = [](Channel *c) {
        c->head_ = c->ring_->tail_;
        c->count_ = 0;
        c->size_.store(0, std::memory_order_relaxed);
    };
    if (isMulticastCursor()) {
        resetCursor(this);
        return;
    }
    Channel &r = *root();
    r.tail_ = 0;
    r.watch_ = ValueWatch{};
    for (Channel *c = r.readers_; c != nullptr; c = c->next_)
        resetCursor(c);
}

TokenStream
Channel::drain()
{
    std::lock_guard<SpinLock> guard(ring_->mu_);
    TokenStream out;
    out.reserve(count_);
    for (size_t i = 0; i < count_; ++i)
        out.push_back(buf_[(head_ + i) & mask_]);
    head_ = (head_ + count_) & mask_;
    count_ = 0;
    size_.store(0, std::memory_order_seq_cst);
    return out;
}

void
Channel::wireMulticast(Channel *in, const std::vector<Channel *> &outs)
{
    auto fail = [&](const Channel *ch, const std::string &why) {
        throw std::logic_error(
            "multicast from '" + in->name() + "': channel '" +
            ch->name() + "' " + why);
    };
    if (in->consumer_ != nullptr)
        fail(in, "already has a reader");
    if (!in->reader_)
        fail(in, "already feeds a multicast");
    if (in->count_ != 0)
        fail(in, "is not empty");
    if (outs.empty())
        fail(in, "has no outputs");
    Channel *r = in->ring_; // the ring in reads, and every out joins
    for (size_t i = 0; i < outs.size(); ++i) {
        const Channel *out = outs[i];
        if (out == in)
            fail(out, "is both the input and an output");
        for (size_t j = 0; j < i; ++j) {
            if (outs[j] == out)
                fail(out, "is listed twice");
        }
        if (out->producer_ != nullptr || out->ring_ != out)
            fail(out, "already has a writer");
        if (out == r)
            fail(out, "would close a multicast cycle");
        for (const Channel *c = out->readers_; c != nullptr; c = c->next_) {
            if (c->count_ != 0)
                fail(c, "is not empty");
        }
    }

    // in stops reading its ring.
    Channel **link = &r->readers_;
    while (*link != in)
        link = &(*link)->next_;
    *link = in->next_;
    in->next_ = nullptr;
    in->reader_ = false;
    while (*link != nullptr)
        link = &(*link)->next_;

    // Each out's ring folds into r: its readers (the out itself, unless
    // it already roots a multicast) become r's cursors in wiring order,
    // and its own slots are dropped.
    for (Channel *out : outs) {
        for (Channel *c = out->readers_; c != nullptr;) {
            Channel *next = c->next_;
            c->ring_ = r;
            c->buf_ = r->buf_;
            c->mask_ = r->mask_;
            c->head_ = r->tail_;
            c->next_ = nullptr;
            *link = c;
            link = &c->next_;
            c = next;
        }
        out->readers_ = nullptr;
        out->ring_ = r;
        out->gated_ = false;
        std::vector<Token>().swap(out->slots_);
    }
    r->refreshGate();
}

int
bundleHeadKind(const Bundle &bundle)
{
    bool any_data = false;
    int level = -1;
    for (const Channel *ch : bundle) {
        const Token &head = ch->front();
        if (head.isData()) {
            any_data = true;
        } else if (level == -1) {
            level = head.barrierLevel();
        } else if (level != head.barrierLevel()) {
            throw std::runtime_error(
                "bundle misaligned: barriers B" + std::to_string(level) +
                " vs B" + std::to_string(head.barrierLevel()));
        }
    }
    if (any_data && level != -1) {
        throw std::runtime_error(
            "bundle misaligned: data vs barrier at channel heads");
    }
    return any_data ? 0 : level;
}

} // namespace dataflow
} // namespace revet
