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

Token
Channel::popLocked()
{
    bool was_full = false;
    Token tok = Token::data(0);
    {
        std::lock_guard<SpinLock> guard(mu_);
        tok = take(std::memory_order_seq_cst, was_full);
    }
    if (was_full && engine_)
        notifySpaceAvailable();
    return tok;
}

Token
Channel::frontLocked() const
{
    std::lock_guard<SpinLock> guard(mu_);
    return ring_[head_];
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
    head_ = 0;
}

TokenStream
Channel::drain()
{
    std::lock_guard<SpinLock> guard(mu_);
    TokenStream out;
    out.reserve(count_);
    for (size_t i = 0; i < count_; ++i)
        out.push_back(ring_[(head_ + i) & (ring_.size() - 1)]);
    head_ = 0;
    count_ = 0;
    size_.store(0, std::memory_order_seq_cst);
    return out;
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
