#include "dataflow/channel.hh"

#include <algorithm>
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
    bool was_empty = false;
    {
        // Parallel runs keep the full protocol: the seq_cst mirror is
        // what the missed-wakeup proof relies on.
        std::lock_guard<SpinLock> guard(mu_);
        was_empty = append(tok, std::memory_order_seq_cst);
    }
    // Notify outside the lock: the wakeup path may run the consumer's
    // scheduler bookkeeping, and holding a channel lock across it would
    // order channel locks against deque locks.
    if (was_empty && engine_)
        notifyTokenAvailable();
}

void
Channel::multicastPushLocked(const Token &tok)
{
    MulticastGroup &g = *group_;
    if (g.root != this) {
        throw std::runtime_error(
            "channel '" + (name_.empty() ? std::string("?") : name_) +
            "' is a multicast " + (cursor_ ? "cursor" : "chain link") +
            " of '" + g.root->name() + "': only the root is written");
    }
    {
        // One lock per group: the cursors' pops take it too.
        std::lock_guard<SpinLock> guard(mu_);
        multicastAppend(tok, std::memory_order_seq_cst,
                        [&g](Channel *c) { g.woken.push_back(c); });
    }
    for (Channel *c : g.woken) {
        if (c->engine_)
            c->notifyTokenAvailable();
    }
    g.woken.clear();
}

Token
Channel::popLocked()
{
    bool was_full = false;
    Token tok = Token::data(0);
    {
        std::lock_guard<SpinLock> guard(ringLock());
        tok = take(std::memory_order_seq_cst, was_full);
    }
    if (was_full && engine_)
        notifySpaceAvailable();
    return tok;
}

Token
Channel::frontLocked() const
{
    std::lock_guard<SpinLock> guard(ringLock());
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
    // Double (from 16), unwrapping the live tokens to the front.
    std::vector<Token> bigger(ring_.empty() ? 16 : 2 * ring_.size(),
                              Token::data(0));
    for (size_t i = 0; i < count_; ++i)
        bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    ring_ = std::move(bigger);
    buf_ = ring_.data();
    mask_ = ring_.size() - 1;
    head_ = 0;
}

void
Channel::growMulticast()
{
    // Double (from 16). The furthest-behind cursor has filled the
    // ring, so its tokens are all n slots starting at the write
    // position: unwrap them to the front, and every other cursor's
    // tokens are their suffix.
    MulticastGroup &g = *group_;
    const size_t n = g.ring.size();
    std::vector<Token> bigger(n == 0 ? 16 : 2 * n, Token::data(0));
    for (size_t i = 0; i < n; ++i)
        bigger[i] = g.ring[(g.tail + i) & (n - 1)];
    g.ring = std::move(bigger);
    g.tail = n;
    for (Channel *c : g.cursors) {
        c->head_ = n - c->count_;
        c->buf_ = g.ring.data();
        c->mask_ = g.ring.size() - 1;
    }
}

void
Channel::setCapacity(size_t capacity)
{
    capacity_ = capacity;
    if (group_ != nullptr)
        group_->root->refreshGate();
}

void
Channel::refreshGate()
{
    // The root holds no tokens, so its own capacity never applies: a
    // bounded root takes the cursor check too (which ignores it).
    gated_ = capacity_ != unbounded;
    for (const Channel *c : group_->cursors)
        gated_ |= c->capacity_ != unbounded;
}

void
Channel::resetForReuse()
{
    if (group_ == nullptr) {
        head_ = 0;
        count_ = 0;
        size_.store(0, std::memory_order_relaxed);
        watch_ = ValueWatch{};
        return;
    }
    if (cursor_) {
        head_ = group_->tail;
        count_ = 0;
        size_.store(0, std::memory_order_relaxed);
        return;
    }
    MulticastGroup &g = *group_;
    g.tail = 0;
    g.root->watch_ = ValueWatch{};
    for (Channel *c : g.cursors) {
        c->head_ = 0;
        c->count_ = 0;
        c->size_.store(0, std::memory_order_relaxed);
    }
}

TokenStream
Channel::drain()
{
    std::lock_guard<SpinLock> guard(ringLock());
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
    if (in->group_ != nullptr && !in->cursor_)
        fail(in, "already feeds a multicast");
    if (in->count_ != 0)
        fail(in, "is not empty");
    if (outs.empty())
        fail(in, "has no outputs");
    for (size_t i = 0; i < outs.size(); ++i) {
        const Channel *out = outs[i];
        if (out == in)
            fail(out, "is both the input and an output");
        for (size_t j = 0; j < i; ++j) {
            if (outs[j] == out)
                fail(out, "is listed twice");
        }
        if (out->producer_ != nullptr || out->cursor_ ||
            (out->group_ != nullptr && out->group_->root != out))
            fail(out, "already has a writer");
        if (out->group_ != nullptr && out->group_ == in->group_)
            fail(out, "would close a multicast cycle");
        if (out->count_ != 0)
            fail(out, "is not empty");
    }

    MulticastGroup *g = in->group_;
    if (g == nullptr) {
        in->ownedGroup_ = std::make_unique<MulticastGroup>();
        g = in->ownedGroup_.get();
        g->root = in;
        g->links.push_back(in);
        in->group_ = g;
    } else {
        // A fanout fed by a cursor: the cursor retires to a chain link
        // and its readers join the root's group.
        auto &cs = g->cursors;
        cs.erase(std::find(cs.begin(), cs.end(), in));
        in->cursor_ = false;
        g->links.push_back(in);
    }

    auto addCursor = [g](Channel *c) {
        c->group_ = g;
        c->cursor_ = true;
        c->ring_ = std::vector<Token>();
        c->buf_ = g->ring.data();
        c->mask_ = g->ring.empty() ? 0 : g->ring.size() - 1;
        c->head_ = g->tail;
        g->cursors.push_back(c);
    };
    for (Channel *out : outs) {
        if (out->group_ == nullptr) {
            addCursor(out);
            continue;
        }
        // The out already roots a group (its fanout was wired first):
        // fold that group into this one. The out becomes a chain link.
        std::unique_ptr<MulticastGroup> old = std::move(out->ownedGroup_);
        out->gated_ = false;
        for (Channel *link : old->links) {
            link->group_ = g;
            g->links.push_back(link);
        }
        for (Channel *c : old->cursors)
            addCursor(c);
    }
    g->woken.reserve(g->cursors.size());
    g->root->refreshGate();
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
