#include "dataflow/channel.hh"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "dataflow/engine.hh"

namespace revet
{
namespace dataflow
{

namespace
{

std::string
nameOf(const Channel *ch)
{
    return ch == nullptr || ch->name().empty() ? std::string("?")
                                               : ch->name();
}

} // namespace

// ---------------------------------------------------------------------
// Cursor.

void
Cursor::notifySpaceAvailable()
{
    if (ring_->engine_ != nullptr)
        ring_->engine_->onSpaceAvailable(ring_->producer_);
}

void
Cursor::throwUnderflow() const
{
    throw std::runtime_error("channel '" + nameOf(lanes_.front().ch) +
                             "' underflow: pop on an empty channel");
}

// ---------------------------------------------------------------------
// Ring.

size_t
Ring::room() const
{
    if (!gated_)
        return Channel::unbounded;
    size_t free = Channel::unbounded;
    for (const Cursor *c = cursors_; c != nullptr; c = c->next_) {
        if (c->capacity_ == Channel::unbounded)
            continue;
        const size_t held = c->size_.load(std::memory_order_seq_cst);
        const size_t left = held >= c->capacity_ ? 0 : c->capacity_ - held;
        free = left < free ? left : free;
    }
    return free;
}

void
Ring::throwOverflow(const Cursor &c) const
{
    // Name the lane whose capacity bounds the cursor.
    const Channel *ch = c.lanes_.front().ch;
    for (const Cursor::Lane &lane : c.lanes_) {
        if (lane.ch->capacity() == c.capacity_)
            ch = lane.ch;
    }
    throw std::runtime_error(
        "channel '" + nameOf(ch) +
        "' overflow: push on a full bounded channel (capacity " +
        std::to_string(c.capacity_) + ") — missing canPush() guard");
}

template <typename Write, typename Record, typename OnEdge>
void
Ring::appendHeld(size_t n, Write &write, Record &record,
                 std::memory_order order, OnEdge &&on_edge)
{
    size_t held = 0;
    for (const Cursor *c = cursors_; c != nullptr; c = c->next_) {
        if (gated_ && c->count_ + n > c->capacity_)
            throwOverflow(*c);
        held = c->count_ > held ? c->count_ : held;
    }
    if (tags_ == nullptr || held + n > mask_)
        grow(held, n);
    write();
    record();
    tail_ = (tail_ + n) & mask_;
    for (Cursor *c = cursors_; c != nullptr; c = c->next_) {
        c->count_ += n;
        c->size_.store(c->count_, order);
        if (c->count_ == n)
            on_edge(c);
    }
}

template <typename Write, typename Record>
void
Ring::append(size_t n, Write &&write, Record &&record)
{
    if (n == 0)
        return;
    if (!concurrent_) {
        appendHeld(n, write, record, std::memory_order_relaxed,
                   [this](Cursor *c) {
                       if (engine_ != nullptr)
                           engine_->onTokenAvailable(c->consumer_);
                   });
        return;
    }
    {
        // Parallel runs keep the full protocol: the seq_cst mirror is
        // what the missed-wakeup proof relies on, and the cursors'
        // reads and consumes take this lock too.
        std::lock_guard<SpinLock> guard(mu_);
        appendHeld(n, write, record, std::memory_order_seq_cst,
                   [](Cursor *c) { c->woken_ = true; });
    }
    // The cursor list is fixed during a run, and only the producer
    // touches woken_.
    for (Cursor *c = cursors_; c != nullptr; c = c->next_) {
        if (!c->woken_)
            continue;
        c->woken_ = false;
        if (engine_ != nullptr)
            engine_->onTokenAvailable(c->consumer_);
    }
}

void
Ring::writeColumn(size_t col, const Word *src, size_t n)
{
    Word *dst = cols_ + col * slots_;
    const size_t first = n < slots_ - tail_ ? n : slots_ - tail_;
    std::memcpy(dst + tail_, src, first * sizeof(Word));
    std::memcpy(dst, src + first, (n - first) * sizeof(Word));
}

void
Ring::summarize(size_t col, const Word *words, size_t n)
{
    if (summaries_.size() < width_)
        summaries_.resize(width_);
    Summary &s = summaries_[col];
    if (dataPushed_ == 0)
        s.first = words[0];
    for (size_t i = 0; i < n; ++i) {
        const Word w = words[i];
        const int32_t v = static_cast<int32_t>(w);
        s.allEqual &= w == s.first;
        s.smin = v < s.smin ? v : s.smin;
        s.smax = v > s.smax ? v : s.smax;
        s.umin = w < s.umin ? w : s.umin;
        s.umax = w > s.umax ? w : s.umax;
    }
}

void
Ring::pushRun(const Word *cols, size_t stride, size_t n)
{
    append(
        n,
        [&] {
            const size_t first = n < slots_ - tail_ ? n : slots_ - tail_;
            std::memset(tags_ + tail_, 0, first);
            std::memset(tags_, 0, n - first);
            for (size_t j = 0; j < width_; ++j)
                writeColumn(j, cols + j * stride, n);
        },
        [&] {
            if (watchValues_) {
                for (size_t j = 0; j < width_; ++j)
                    summarize(j, cols + j * stride, n);
            }
            dataPushed_ += n;
        });
}

void
Ring::pushBarrier(int level)
{
    append(
        1, [&] { tags_[tail_] = static_cast<uint8_t>(level); },
        [&] { ++barriersPushed_; });
}

void
Ring::grow(size_t held, size_t n)
{
    // Single pushes double the ring right after the write that fills
    // it, so they end at the smallest doubling with a slot to spare
    // beyond held + n. The cursor furthest behind holds the held
    // tokens before the write position: unwrap them to the front, and
    // every other cursor's tokens are their suffix.
    size_t slots = slots_;
    while (held + n >= slots)
        slots *= 2;
    std::vector<Word> bigger(slots / sizeof(Word) + slots * width_);
    uint8_t *tags = reinterpret_cast<uint8_t *>(bigger.data());
    Word *cols = bigger.data() + slots / sizeof(Word);
    for (size_t i = 0; i < held; ++i) {
        const size_t from = (tail_ - held + i) & mask_;
        tags[i] = tags_[from];
        for (size_t j = 0; j < width_; ++j)
            cols[j * slots + i] = cols_[j * slots_ + from];
    }
    store_ = std::move(bigger);
    tags_ = tags;
    cols_ = cols;
    slots_ = slots;
    mask_ = slots - 1;
    tail_ = held;
    for (Cursor *c = cursors_; c != nullptr; c = c->next_)
        c->head_ = held - c->count_;
}

void
Ring::refreshGate()
{
    gated_ = false;
    for (const Cursor *c = cursors_; c != nullptr; c = c->next_)
        gated_ |= c->capacity_ != Channel::unbounded;
}

void
Ring::reset()
{
    tail_ = 0;
    dataPushed_ = barriersPushed_ = 0;
    summaries_.assign(summaries_.size(), Summary{});
    for (Cursor *c = cursors_; c != nullptr; c = c->next_) {
        c->head_ = 0;
        c->count_ = 0;
        c->size_.store(0, std::memory_order_relaxed);
    }
}

bool
Ring::pending() const
{
    for (const Cursor *c = cursors_; c != nullptr; c = c->next_) {
        if (c->count_ != 0)
            return true;
    }
    return false;
}

void
Ring::widen()
{
    ++width_;
    std::vector<Word>().swap(store_);
    tags_ = nullptr;
    cols_ = nullptr;
    summaries_.clear();
}

Cursor **
Ring::absorb(Ring &from, uint32_t col, Channel *root, Cursor **at)
{
    while (Channel *m = from.members_) {
        from.members_ = m->nextMember_;
        if (root != nullptr)
            m->root_ = root;
        m->ring_ = this;
        m->col_ = col;
        m->nextMember_ = members_;
        members_ = m;
    }
    if (at == nullptr) {
        at = &cursors_;
        while (*at != nullptr && (*at)->firstColumn() <= col)
            at = &(*at)->next_;
    }
    Cursor *rest = *at;
    while (Cursor *c = from.cursors_) {
        from.cursors_ = c->next_;
        c->ring_ = this;
        c->head_ = tail_;
        for (Cursor::Lane &lane : c->lanes_)
            lane.col = col;
        *at = c;
        at = &c->next_;
    }
    *at = rest;
    watchValues_ |= from.watchValues_;
    gated_ |= from.gated_;
    std::vector<Word>().swap(from.store_);
    from.tags_ = nullptr;
    from.cols_ = nullptr;
    return at;
}

bool
Ring::precedes(const Cursor *a, const Cursor *b) const
{
    for (const Cursor *c = cursors_; c != nullptr; c = c->next_) {
        if (c == a || c == b)
            return c == a;
    }
    return false;
}

void
Ring::merge(Cursor &into, Cursor &from)
{
    for (const Cursor::Lane &lane : from.lanes_) {
        lane.ch->cursor_ = &into;
        into.lanes_.push_back(lane);
    }
    if (from.capacity_ < into.capacity_)
        into.capacity_ = from.capacity_;
    from.lanes_.clear();
    merged_ = true;
}

void
Ring::dropMerged()
{
    if (!merged_)
        return;
    for (Cursor **link = &cursors_; *link != nullptr;) {
        Cursor *c = *link;
        if (!c->lanes_.empty()) {
            link = &c->next_;
            continue;
        }
        *link = c->next_;
        c->next_ = nullptr;
        c->ring_ = nullptr;
    }
    merged_ = false;
    refreshGate();
}

void
Ring::groupCursors(std::vector<Process *> &touched)
{
    std::vector<Cursor *> firsts;
    for (Cursor *c = cursors_; c != nullptr; c = c->next_) {
        if (c->consumer_ == nullptr)
            continue;
        Cursor *into = nullptr;
        for (Cursor *f : firsts) {
            if (f->consumer_ == c->consumer_ && f->arg_ == c->arg_ &&
                f->head_ == c->head_ && f->count_ == c->count_) {
                into = f;
                break;
            }
        }
        if (into == nullptr) {
            firsts.push_back(c);
            continue;
        }
        merge(*into, *c);
        if (std::find(touched.begin(), touched.end(), into->consumer_) ==
            touched.end())
            touched.push_back(into->consumer_);
    }
    dropMerged();
}

// ---------------------------------------------------------------------
// Channel.

Channel::Channel(std::string name, size_t capacity)
    : name_(std::move(name)), capacity_(capacity), ring_(&ownRing_),
      root_(this), cursor_(&ownCursor_)
{
    ownRing_.members_ = this;
    ownRing_.cursors_ = &ownCursor_;
    ownRing_.gated_ = capacity != unbounded;
    ownCursor_.ring_ = &ownRing_;
    ownCursor_.capacity_ = capacity;
    ownCursor_.lanes_.push_back({0, 0, this});
}

void
Channel::throwShared(const char *what) const
{
    throw std::runtime_error("channel '" + nameOf(this) + "' " + what);
}

Ring &
Channel::soleRing() const
{
    if (root_ != this) {
        throw std::runtime_error(
            "channel '" + nameOf(this) + "' is a multicast " +
            (cursor_ ? "cursor" : "chain link") + " of '" + nameOf(root_) +
            "': only the root is written");
    }
    if (ring_->width_ != 1)
        throwShared("is one lane of a bundle ring: its producer writes it");
    return *ring_;
}

void
Channel::pushData(const Word *words, size_t n)
{
    soleRing().pushRun(words, 0, n);
}

void
Channel::pushTokens(const Token *toks, size_t n)
{
    Ring &r = soleRing();
    r.append(
        n,
        [&] {
            for (size_t i = 0; i < n; ++i) {
                const size_t slot = (r.tail_ + i) & r.mask_;
                r.tags_[slot] = static_cast<uint8_t>(toks[i].barrierLevel());
                r.cols_[slot] = toks[i].word();
            }
        },
        [&] {
            for (size_t i = 0; i < n; ++i) {
                if (toks[i].isBarrier()) {
                    ++r.barriersPushed_;
                    continue;
                }
                if (r.watchValues_) {
                    const Word w = toks[i].word();
                    r.summarize(0, &w, 1);
                }
                ++r.dataPushed_;
            }
        });
}

size_t
Channel::peek(Word *words, size_t cap, int &head) const
{
    if (cursor_ == nullptr) {
        head = -1;
        return 0;
    }
    std::unique_lock<SpinLock> guard(ring_->mu_, std::defer_lock);
    if (ring_->concurrent_)
        guard.lock();
    const size_t n = cursor_->runHeld(cap, head);
    if (n > 0)
        cursor_->copyHeld(col_, words, n);
    return n;
}

void
Channel::consume(size_t n)
{
    if (cursor_ == nullptr)
        throwShared("feeds a multicast: it has no pending tokens");
    if (cursor_->lanes_.size() != 1)
        throwShared("shares its cursor with other lanes of its bundle");
    cursor_->consume(n);
}

Channel::ValueWatch
Channel::watch() const
{
    ValueWatch w;
    w.dataPushed = ring_->dataPushed_;
    w.barriersPushed = ring_->barriersPushed_;
    if (col_ < ring_->summaries_.size()) {
        const Ring::Summary &s = ring_->summaries_[col_];
        w.first = s.first;
        w.allEqual = s.allEqual;
        w.smin = s.smin;
        w.smax = s.smax;
        w.umin = s.umin;
        w.umax = s.umax;
    }
    return w;
}

std::vector<const Channel *>
Channel::readers() const
{
    std::vector<const Channel *> out;
    if (root_ != this)
        return out;
    for (const Cursor *c = ring_->cursors_; c != nullptr; c = c->next_) {
        for (const Cursor::Lane &lane : c->lanes_) {
            if (lane.col == col_)
                out.push_back(lane.ch);
        }
    }
    return out;
}

void
Channel::resetForReuse()
{
    if (!isMulticastCursor()) {
        ring_->reset();
        return;
    }
    cursor_->head_ = ring_->tail_;
    cursor_->count_ = 0;
    cursor_->size_.store(0, std::memory_order_relaxed);
}

TokenStream
Channel::drain()
{
    TokenStream out;
    if (cursor_ == nullptr)
        return out;
    if (cursor_->lanes_.size() != 1)
        throwShared("shares its cursor with other lanes of its bundle");
    std::lock_guard<SpinLock> guard(ring_->mu_);
    out.reserve(cursor_->count_);
    auto keep = [&out](const Token &tok, size_t) { out.push_back(tok); };
    cursor_->scanHeld(col_, cursor_->count_, keep);
    cursor_->head_ = (cursor_->head_ + cursor_->count_) & ring_->mask_;
    cursor_->count_ = 0;
    cursor_->size_.store(0, std::memory_order_seq_cst);
    return out;
}

std::vector<Process *>
Channel::wireMulticast(Channel *in, const std::vector<Channel *> &outs)
{
    auto fail = [&](const Channel *ch, const std::string &why) {
        throw std::logic_error(
            "multicast from '" + in->name() + "': channel '" +
            ch->name() + "' " + why);
    };
    if (in->consumer() != nullptr)
        fail(in, "already has a reader");
    if (in->cursor_ == nullptr)
        fail(in, "already feeds a multicast");
    if (in->cursor_->count_ != 0)
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
        if (out->producer() != nullptr || out->root_ != out)
            fail(out, "already has a writer");
        if (out == in->root_)
            fail(out, "would close a multicast cycle");
        for (const Cursor *c = out->ring_->cursors_; c != nullptr;
             c = c->next_) {
            if (c->count_ != 0)
                fail(c->lanes_.front().ch, "is not empty");
        }
    }

    // in stops reading: its cursor is its own, since only cursors with
    // a consumer group.
    Ring &r = *in->ring_;
    Cursor **link = &r.cursors_;
    while (*link != in->cursor_)
        link = &(*link)->next_;
    *link = in->cursor_->next_;
    in->cursor_->next_ = nullptr;
    in->cursor_ = nullptr;

    // Each out's ring folds into in's column: the out, and every link
    // already on its ring, now carry or read that column.
    Cursor **at = nullptr;
    for (Channel *out : outs)
        at = r.absorb(*out->ring_, in->col_, in->root_, at);
    std::vector<Process *> touched;
    r.groupCursors(touched);
    return touched;
}

} // namespace dataflow
} // namespace revet
