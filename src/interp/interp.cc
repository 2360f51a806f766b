#include "interp/interp.hh"

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

namespace revet
{
namespace interp
{

using namespace lang;

namespace
{

/** One memory-adapter object on the interpreter heap. */
struct MemObj
{
    AdapterKind kind = AdapterKind::none;
    Scalar elem = Scalar::i32;
    int dram = -1;
    int64_t base = 0;   ///< view base / iterator seek origin
    int64_t size = 0;   ///< elements (SRAM/view) or tile
    std::vector<uint32_t> data; ///< SRAM / view buffer / write-it tile
    int64_t pos = 0;            ///< iterator position (absolute element)
    int64_t bufStart = 0;       ///< write-it buffer origin
    int64_t highestTile = -1;   ///< read-it highest fetched tile index
    bool flushed = false;       ///< view/iterator dealloc ran
};

class Machine
{
  public:
    Machine(const Program &prog, DramImage &dram, RunStats &stats,
            uint64_t max_steps)
        : prog_(prog), fn_(*prog.main()), dram_(dram), stats_(stats),
          maxSteps_(max_steps)
    {}

    void
    run(const std::vector<int32_t> &args)
    {
        if (args.size() != fn_.paramSlots.size()) {
            throw std::runtime_error(
                "main expects " + std::to_string(fn_.paramSlots.size()) +
                " arguments, got " + std::to_string(args.size()));
        }
        frame_.assign(fn_.slots.size(), 0);
        for (size_t i = 0; i < args.size(); ++i) {
            frame_[fn_.paramSlots[i]] =
                normalize(fn_.slots[fn_.paramSlots[i]].type,
                          static_cast<uint32_t>(args[i]));
        }
        liveThreads_ = 1;
        stats_.peakLiveThreads = 1;
        execList(fn_.bodyStmt->body, 0, nullptr);
    }

  private:
    using Cont = std::function<void()>;

    // ---- fork detection -------------------------------------------------

    bool
    containsFork(const Stmt &s)
    {
        auto it = forkCache_.find(&s);
        if (it != forkCache_.end())
            return it->second;
        bool found = false;
        if (s.kind == StmtKind::varDecl && s.value &&
            s.value->kind == ExprKind::forkExpr) {
            found = true;
        }
        // foreach bodies are separate threads: their forks terminate at
        // the foreach, so they don't force continuation handling here.
        if (!found && s.kind != StmtKind::foreachStmt) {
            for (const auto &child : s.body) {
                if (containsFork(*child)) {
                    found = true;
                    break;
                }
            }
            if (!found) {
                for (const auto &child : s.other) {
                    if (containsFork(*child)) {
                        found = true;
                        break;
                    }
                }
            }
        }
        forkCache_[&s] = found;
        return found;
    }

    bool
    anyFork(const std::vector<StmtPtr> &stmts, size_t from)
    {
        for (size_t i = from; i < stmts.size(); ++i) {
            if (containsFork(*stmts[i]))
                return true;
        }
        return false;
    }

    // ---- execution ------------------------------------------------------

    void
    tick()
    {
        if (++steps_ > maxSteps_)
            throw std::runtime_error("interpreter exceeded step budget "
                                     "(runaway loop?)");
    }

    /**
     * Execute stmts[i..]; calls @p cont at the fall-through end (zero or
     * more times — fork replays it per spawned thread). Sets stopped_
     * instead of calling cont when the thread returns/exits.
     */
    void
    execList(const std::vector<StmtPtr> &stmts, size_t i, const Cont &cont)
    {
        for (; i < stmts.size(); ++i) {
            const Stmt &s = *stmts[i];
            tick();
            switch (s.kind) {
              case StmtKind::varDecl:
                if (s.value && s.value->kind == ExprKind::forkExpr) {
                    execFork(s, stmts, i, cont);
                    return;
                }
                frame_[s.slot] =
                    s.value ? normalize(fn_.slots[s.slot].type,
                                        eval(*s.value))
                            : 0;
                break;
              case StmtKind::returnStmt:
                if (s.value && !redStack_.empty())
                    redStack_.back() += eval(*s.value);
                else if (s.value)
                    eval(*s.value);
                stopped_ = true;
                return;
              case StmtKind::exitStmt:
                stopped_ = true;
                return;
              case StmtKind::ifStmt: {
                bool taken = eval(*s.value) != 0;
                const auto &branch = taken ? s.body : s.other;
                if (containsFork(s)) {
                    size_t next = i + 1;
                    execList(branch, 0, [&, next] {
                        execList(stmts, next, cont);
                    });
                    return;
                }
                execList(branch, 0, nullptr);
                if (stopped_)
                    return;
                break;
              }
              case StmtKind::whileStmt: {
                if (containsFork(s)) {
                    size_t next = i + 1;
                    Cont after = [&, next] { execList(stmts, next, cont); };
                    execWhileFork(s, after);
                    return;
                }
                while (eval(*s.value) != 0) {
                    tick();
                    ++stats_.whileIterations;
                    execList(s.body, 0, nullptr);
                    if (stopped_)
                        return;
                }
                break;
              }
              case StmtKind::block: {
                if (containsFork(s)) {
                    size_t next = i + 1;
                    execList(s.body, 0, [&, next] {
                        execList(stmts, next, cont);
                    });
                    return;
                }
                execList(s.body, 0, nullptr);
                if (stopped_)
                    return;
                break;
              }
              case StmtKind::foreachStmt:
                execForeach(s);
                break;
              case StmtKind::replicateStmt:
                // Spatial throughput knob: semantically the body runs
                // once in the current thread. A fork inside needs the
                // enclosing statements as its continuation so every
                // spawned thread runs the rest of the program (same
                // shape as the block case above).
                if (containsFork(s)) {
                    size_t next = i + 1;
                    execList(s.body, 0, [&, next] {
                        execList(stmts, next, cont);
                    });
                    return;
                }
                execList(s.body, 0, nullptr);
                if (stopped_)
                    return;
                break;
              default:
                execSimple(s);
                break;
            }
        }
        if (cont)
            cont();
    }

    void
    execFork(const Stmt &s, const std::vector<StmtPtr> &stmts, size_t i,
             const Cont &cont)
    {
        int64_t n = static_cast<int32_t>(eval(*s.value->a));
        if (n < 0)
            throw std::runtime_error("fork with negative count");
        stats_.forkThreads += n > 0 ? n - 1 : 0;
        std::vector<uint32_t> saved = frame_;
        liveThreads_ += (n > 0 ? n - 1 : 0);
        stats_.peakLiveThreads =
            std::max(stats_.peakLiveThreads, liveThreads_);
        for (int64_t k = 0; k < n; ++k) {
            frame_ = saved;
            frame_[s.slot] =
                normalize(fn_.slots[s.slot].type, static_cast<uint32_t>(k));
            stopped_ = false;
            execList(stmts, i + 1, cont);
        }
        liveThreads_ -= (n > 0 ? n - 1 : 0);
        frame_ = std::move(saved);
        stopped_ = true; // the pre-fork thread no longer exists
    }

    void
    execWhileFork(const Stmt &s, const Cont &after)
    {
        // Recursive loop so forked threads re-evaluate the condition
        // independently. The continuation captures a raw pointer to
        // itself, not the shared_ptr: execution is fully synchronous
        // inside (*loop)(), and the owning capture made a
        // self-reference cycle that leaked every loop continuation.
        auto loop = std::make_shared<Cont>();
        Cont *loop_raw = loop.get();
        *loop = [this, &s, after, loop_raw] {
            tick();
            if (eval(*s.value) != 0) {
                ++stats_.whileIterations;
                execList(s.body, 0, *loop_raw);
            } else {
                after();
            }
        };
        (*loop)();
    }

    void
    execForeach(const Stmt &s)
    {
        int64_t count = static_cast<int32_t>(eval(*s.value));
        int64_t step = 1;
        if (s.extra) {
            step = static_cast<int32_t>(eval(*s.extra));
            if (step <= 0)
                throw std::runtime_error("foreach `by` step must be > 0");
        }
        redStack_.push_back(0);
        std::vector<uint32_t> saved = frame_;
        int64_t spawned = (count + step - 1) / std::max<int64_t>(step, 1);
        if (spawned > 0) {
            liveThreads_ += spawned;
            stats_.peakLiveThreads =
                std::max(stats_.peakLiveThreads, liveThreads_);
        }
        for (int64_t iv = 0; iv < count; iv += step) {
            ++stats_.foreachThreads;
            frame_ = saved;
            frame_[s.ivSlot] = normalize(fn_.slots[s.ivSlot].type,
                                         static_cast<uint32_t>(iv));
            stopped_ = false;
            execList(s.body, 0, nullptr);
        }
        if (spawned > 0)
            liveThreads_ -= spawned;
        frame_ = std::move(saved);
        stopped_ = false;
        uint32_t total = redStack_.back();
        redStack_.pop_back();
        if (s.resultSlot >= 0) {
            frame_[s.resultSlot] =
                normalize(fn_.slots[s.resultSlot].type, total);
        }
    }

    void
    execSimple(const Stmt &s)
    {
        if (s.guard && eval(*s.guard) == 0)
            return; // predicated off (if-to-select pass)
        switch (s.kind) {
          case StmtKind::sramDecl: {
            auto obj = std::make_unique<MemObj>();
            obj->kind = AdapterKind::sram;
            obj->elem = s.declType;
            obj->size = s.size;
            obj->data.assign(s.size, 0);
            frame_[s.slot] = addObj(std::move(obj));
            return;
          }
          case StmtKind::adapterDecl: {
            auto obj = std::make_unique<MemObj>();
            obj->kind = s.adapter;
            obj->dram = s.dram;
            obj->elem = fn_.slots[s.slot].type;
            obj->size = s.size;
            int64_t arg = static_cast<int32_t>(eval(*s.value));
            if (isView(s.adapter)) {
                obj->base = arg;
                obj->data.assign(s.size, 0);
                if (adapterReads(s.adapter)) {
                    for (int64_t k = 0; k < s.size; ++k)
                        obj->data[k] = dram_.load(s.dram, obj->base + k);
                    ++stats_.iteratorRefills;
                    stats_.dramReads += s.size;
                    stats_.dramReadBytes +=
                        s.size * dramElemBytes(obj->elem);
                }
            } else {
                obj->pos = arg;
                obj->bufStart = arg;
                if (adapterWrites(s.adapter))
                    obj->data.assign(s.size, 0);
            }
            frame_[s.slot] = addObj(std::move(obj));
            return;
          }
          case StmtKind::assign:
            frame_[s.slot] =
                normalize(fn_.slots[s.slot].type, eval(*s.value));
            return;
          case StmtKind::storeIndexed: {
            uint32_t idx = eval(*s.index);
            uint32_t val = eval(*s.value);
            if (s.dram >= 0) {
                dram_.store(s.dram, idx, val);
                ++stats_.dramWrites;
                stats_.dramWriteBytes +=
                    dramElemBytes(prog_.drams[s.dram].elem);
                return;
            }
            MemObj &obj = object(s.slot);
            ++stats_.sramWrites;
            if (idx < obj.data.size())
                obj.data[idx] = normalize(obj.elem, val);
            // Write/modify views are modeled write-through: hardware
            // flushes the whole tile at deallocation, and the apps write
            // every element, so per-element write-through is equivalent
            // and keeps byte accounting exact.
            if (isView(obj.kind) && adapterWrites(obj.kind) &&
                idx < obj.data.size()) {
                dram_.store(obj.dram, obj.base + idx,
                            normalize(obj.elem, val));
                ++stats_.dramWrites;
                stats_.dramWriteBytes += dramElemBytes(obj.elem);
            }
            return;
          }
          case StmtKind::storeDeref: {
            MemObj &obj = object(s.slot);
            uint32_t val = eval(*s.value);
            int64_t off = obj.pos - obj.bufStart;
            if (off < 0 || off >= obj.size) {
                throw std::runtime_error(
                    "write iterator out of tile range");
            }
            obj.data[off] = normalize(obj.elem, val);
            ++stats_.sramWrites;
            if (obj.kind == AdapterKind::writeIt) {
                // WriteIt flushes automatically at deallocation, so
                // every write lands; model it write-through (tile
                // traffic is still accounted at advances).
                dram_.store(obj.dram, obj.pos, normalize(obj.elem, val));
            }
            return;
          }
          case StmtKind::itAdvance: {
            MemObj &obj = object(s.slot);
            int64_t k = static_cast<int32_t>(eval(*s.index));
            obj.pos += k;
            if (obj.pos - obj.bufStart >= obj.size) {
                if (obj.kind == AdapterKind::manualWriteIt) {
                    flushWriteIt(obj, /*partial=*/false);
                } else if (obj.kind == AdapterKind::writeIt) {
                    ++stats_.iteratorRefills;
                    stats_.dramWrites += obj.size;
                    stats_.dramWriteBytes +=
                        obj.size * dramElemBytes(obj.elem);
                    obj.bufStart = obj.pos;
                }
            }
            return;
          }
          case StmtKind::exprStmt:
            eval(*s.value);
            return;
          case StmtKind::flushStmt:
            flushWriteIt(object(s.slot), /*partial=*/true);
            return;
          default:
            throw std::logic_error("unexpected statement kind");
        }
    }

    void
    flushWriteIt(MemObj &obj, bool partial)
    {
        int64_t pending = obj.pos - obj.bufStart;
        if (pending <= 0)
            return;
        int64_t count = partial ? pending : obj.size;
        for (int64_t k = 0; k < count; ++k)
            dram_.store(obj.dram, obj.bufStart + k, obj.data[k]);
        ++stats_.iteratorRefills;
        stats_.dramWrites += count;
        stats_.dramWriteBytes += count * dramElemBytes(obj.elem);
        obj.bufStart = obj.pos;
        std::fill(obj.data.begin(), obj.data.end(), 0);
    }

    // ---- expressions ----------------------------------------------------

    uint32_t
    eval(const Expr &e)
    {
        switch (e.kind) {
          case ExprKind::intConst:
            return static_cast<uint32_t>(e.intValue);
          case ExprKind::varRef:
            return frame_[e.slot];
          case ExprKind::unary: {
            ++stats_.aluOps;
            uint32_t a = eval(*e.a);
            switch (e.uop) {
              case UnOp::neg: return -a;
              case UnOp::logNot: return a == 0 ? 1 : 0;
              case UnOp::bitNot: return ~a;
            }
            return 0;
          }
          case ExprKind::binary:
            ++stats_.aluOps;
            return evalBinary(e);
          case ExprKind::cond: {
            ++stats_.aluOps;
            // Dataflow evaluates both sides (select); do the same so
            // side-effect-free expressions behave identically.
            uint32_t c = eval(*e.a);
            uint32_t b = eval(*e.b);
            uint32_t d = eval(*e.c);
            return c != 0 ? b : d;
          }
          case ExprKind::cast:
            return normalize(e.type, eval(*e.a));
          case ExprKind::indexRead: {
            uint32_t idx = eval(*e.a);
            if (e.dram >= 0) {
                ++stats_.dramReads;
                stats_.dramReadBytes +=
                    dramElemBytes(prog_.drams[e.dram].elem);
                return dram_.load(e.dram, idx);
            }
            MemObj &obj = object(e.slot);
            ++stats_.sramReads;
            if (idx < obj.data.size())
                return normalize(obj.elem, obj.data[idx]);
            return 0;
          }
          case ExprKind::derefIt: {
            MemObj &obj = object(e.slot);
            return iteratorLoad(obj, obj.pos);
          }
          case ExprKind::peekIt: {
            MemObj &obj = object(e.slot);
            int64_t k = static_cast<int32_t>(eval(*e.a));
            return iteratorLoad(obj, obj.pos + k);
          }
          case ExprKind::atomicRmw: {
            MemObj &obj = object(e.slot);
            uint32_t idx = eval(*e.a);
            uint32_t delta = eval(*e.b);
            ++stats_.sramReads;
            ++stats_.sramWrites;
            if (idx >= obj.data.size())
                return 0;
            uint32_t old = obj.data[idx];
            obj.data[idx] = normalize(
                obj.elem, e.bop == BinOp::add ? old + delta : old - delta);
            return normalize(obj.elem, old);
          }
          case ExprKind::forkExpr:
          case ExprKind::call:
            throw std::logic_error("unlowered expression in interpreter");
        }
        return 0;
    }

    uint32_t
    evalBinary(const Expr &e)
    {
        uint32_t a = eval(*e.a);
        uint32_t b = eval(*e.b);
        bool sgn = isSigned(e.a->type);
        int32_t sa = static_cast<int32_t>(a);
        int32_t sb = static_cast<int32_t>(b);
        switch (e.bop) {
          case BinOp::add: return a + b;
          case BinOp::sub: return a - b;
          case BinOp::mul: return a * b;
          case BinOp::div:
            if (b == 0)
                throw std::runtime_error("division by zero");
            return sgn ? static_cast<uint32_t>(sa / sb) : a / b;
          case BinOp::rem:
            if (b == 0)
                throw std::runtime_error("remainder by zero");
            return sgn ? static_cast<uint32_t>(sa % sb) : a % b;
          case BinOp::bitAnd: return a & b;
          case BinOp::bitOr: return a | b;
          case BinOp::bitXor: return a ^ b;
          case BinOp::shl: return a << (b & 31);
          case BinOp::shr:
            return sgn ? static_cast<uint32_t>(sa >> (b & 31))
                       : a >> (b & 31);
          case BinOp::eq: return a == b;
          case BinOp::ne: return a != b;
          case BinOp::lt: return sgn ? sa < sb : a < b;
          case BinOp::le: return sgn ? sa <= sb : a <= b;
          case BinOp::gt: return sgn ? sa > sb : a > b;
          case BinOp::ge: return sgn ? sa >= sb : a >= b;
          case BinOp::logicalAnd: return (a != 0 && b != 0) ? 1 : 0;
          case BinOp::logicalOr: return (a != 0 || b != 0) ? 1 : 0;
        }
        return 0;
    }

    uint32_t
    iteratorLoad(MemObj &obj, int64_t pos)
    {
        int64_t tile_idx = pos / std::max<int64_t>(obj.size, 1);
        if (tile_idx > obj.highestTile) {
            stats_.iteratorRefills += tile_idx - obj.highestTile;
            stats_.dramReads += obj.size * (tile_idx - obj.highestTile);
            stats_.dramReadBytes += obj.size *
                (tile_idx - obj.highestTile) * dramElemBytes(obj.elem);
            obj.highestTile = tile_idx;
        }
        ++stats_.sramReads;
        return dram_.load(obj.dram, pos);
    }

    uint32_t
    addObj(std::unique_ptr<MemObj> obj)
    {
        heap_.push_back(std::move(obj));
        return static_cast<uint32_t>(heap_.size() - 1);
    }

    MemObj &
    object(int slot)
    {
        uint32_t handle = frame_[slot];
        if (handle >= heap_.size())
            throw std::runtime_error("dangling memory adapter handle");
        return *heap_[handle];
    }

    const Program &prog_;
    const Function &fn_;
    DramImage &dram_;
    RunStats &stats_;
    uint64_t maxSteps_;
    uint64_t steps_ = 0;
    uint64_t liveThreads_ = 0;

    std::vector<uint32_t> frame_;
    std::vector<std::unique_ptr<MemObj>> heap_;
    std::vector<uint32_t> redStack_;
    bool stopped_ = false;
    std::map<const Stmt *, bool> forkCache_;
};

} // namespace

RunStats
run(const lang::Program &program, lang::DramImage &dram,
    const std::vector<int32_t> &args, uint64_t max_steps)
{
    RunStats stats;
    Machine machine(program, dram, stats, max_steps);
    machine.run(args);
    return stats;
}

} // namespace interp
} // namespace revet
