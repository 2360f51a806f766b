#include "graph/bytecode.hh"

#include <algorithm>
#include <array>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "dataflow/primitives.hh"

namespace revet
{
namespace graph
{

using dataflow::Bundle;
using dataflow::Channel;
using lang::normalize;
using sltf::Token;

const char *
toString(BcOp op)
{
    switch (op) {
      case BcOp::source: return "source";
      case BcOp::sink: return "sink";
      case BcOp::fanout: return "fanout";
      case BcOp::block: return "block";
      case BcOp::counter: return "counter";
      case BcOp::broadcast: return "broadcast";
      case BcOp::reduce: return "reduce";
      case BcOp::flatten: return "flatten";
      case BcOp::filter: return "filter";
      case BcOp::fwdMerge: return "fwdMerge";
      case BcOp::fbMerge: return "fbMerge";
      case BcOp::park: return "park";
      case BcOp::restore: return "restore";
      case BcOp::keyedRestore: return "keyedRestore";
      case BcOp::ordinal: return "ordinal";
    }
    return "?";
}

namespace
{

/** A DRAM region a block references, and whether any of its ops
 * writes it. */
struct RegionUse
{
    int region;
    int refs;
    bool written;
};

/**
 * True when running @p ops column by column (each op over every thread
 * of a run before the next op) leaves what thread after thread leaves.
 * Pure ops cannot tell the orders apart; memory ops can, unless
 *  - every DRAM region the block writes is referenced by one op only,
 *  - a block that writes SRAM accesses SRAM once,
 *  - an sramAlloc (handles come in call order) is the block's only
 *    SRAM op, and
 *  - a block with a memory op has no div or rem, whose throw would
 *    leave memory as the columns left it, not as thread order would.
 * @p regions is the caller's scratch, reused across blocks.
 */
bool
columnSafe(const std::vector<BlockOp> &ops, std::vector<RegionUse> &regions)
{
    regions.clear();
    int sram = 0, sram_writes = 0, allocs = 0;
    bool divides = false;
    for (const BlockOp &op : ops) {
        switch (op.kind) {
          case OpKind::divs:
          case OpKind::divu:
          case OpKind::rems:
          case OpKind::remu:
            divides = true;
            break;
          case OpKind::sramAlloc:
            ++allocs;
            break;
          case OpKind::sramWrite:
          case OpKind::rmwAdd:
          case OpKind::rmwSub:
            ++sram_writes;
            [[fallthrough]];
          case OpKind::sramRead:
            ++sram;
            break;
          case OpKind::dramRead:
          case OpKind::dramWrite: {
            auto it = std::find_if(
                regions.begin(), regions.end(),
                [&](const RegionUse &u) { return u.region == op.dram; });
            if (it == regions.end())
                it = regions.insert(it, {op.dram, 0, false});
            ++it->refs;
            it->written |= op.kind == OpKind::dramWrite;
            break;
          }
          default:
            break;
        }
    }
    if (divides && (allocs > 0 || sram > 0 || !regions.empty()))
        return false;
    if ((sram_writes > 0 && sram > 1) || allocs > 1 ||
        (allocs == 1 && sram > 0))
        return false;
    for (const RegionUse &u : regions) {
        if (u.written && u.refs > 1)
            return false;
    }
    return true;
}

} // namespace

BytecodeProgram
BytecodeProgram::compile(const Dfg &dfg)
{
    BytecodeProgram out;
    out.numLinks = dfg.links.size();
    out.linkNames.reserve(dfg.links.size());
    for (const auto &link : dfg.links)
        out.linkNames.push_back(link.name);

    // Size the pools once, so the loop below appends without regrowth.
    size_t num_chans = 0, num_ops = 0, num_regs = 0;
    for (const auto &node : dfg.nodes) {
        num_chans += node.ins.size() + node.outs.size();
        num_ops += node.ops.size();
        num_regs += node.inputRegs.size() + node.outputRegs.size();
    }
    out.chans.reserve(num_chans);
    out.ops.reserve(num_ops);
    out.regs.reserve(num_regs);
    out.names.reserve(dfg.nodes.size());
    out.insts.reserve(dfg.nodes.size());

    size_t arg_idx = 0;
    std::vector<RegionUse> regions;
    for (const auto &node : dfg.nodes) {
        BcInst inst;
        inst.ins = static_cast<uint32_t>(out.chans.size());
        inst.nIns = static_cast<uint32_t>(node.ins.size());
        for (int l : node.ins)
            out.chans.push_back(static_cast<uint32_t>(l));
        inst.outs = static_cast<uint32_t>(out.chans.size());
        inst.nOuts = static_cast<uint32_t>(node.outs.size());
        for (int l : node.outs)
            out.chans.push_back(static_cast<uint32_t>(l));
        switch (node.kind) {
          case NodeKind::source:
            inst.op = BcOp::source;
            // Argument slots are assigned in source-node order.
            inst.arg = node.name == "__start"
                           ? -1
                           : static_cast<int32_t>(arg_idx++);
            break;
          case NodeKind::sink:
            inst.op = BcOp::sink;
            break;
          case NodeKind::fanout:
            inst.op = BcOp::fanout;
            break;
          case NodeKind::block:
            inst.op = BcOp::block;
            inst.nRegs = static_cast<uint32_t>(node.nRegs);
            inst.ops = static_cast<uint32_t>(out.ops.size());
            inst.nOps = static_cast<uint32_t>(node.ops.size());
            inst.columnar = columnSafe(node.ops, regions);
            out.ops.insert(out.ops.end(), node.ops.begin(),
                           node.ops.end());
            inst.inRegs = static_cast<uint32_t>(out.regs.size());
            out.regs.insert(out.regs.end(), node.inputRegs.begin(),
                            node.inputRegs.end());
            inst.outRegs = static_cast<uint32_t>(out.regs.size());
            out.regs.insert(out.regs.end(), node.outputRegs.begin(),
                            node.outputRegs.end());
            break;
          case NodeKind::counter:
            inst.op = BcOp::counter;
            break;
          case NodeKind::broadcast:
            inst.op = BcOp::broadcast;
            inst.level = node.level;
            break;
          case NodeKind::reduce:
            inst.op = BcOp::reduce;
            inst.init = node.init;
            break;
          case NodeKind::flatten:
            inst.op = BcOp::flatten;
            break;
          case NodeKind::filter:
            inst.op = BcOp::filter;
            inst.sense = node.sense;
            break;
          case NodeKind::fwdMerge:
            inst.op = BcOp::fwdMerge;
            break;
          case NodeKind::fbMerge:
            inst.op = BcOp::fbMerge;
            break;
          case NodeKind::park:
            inst.op = BcOp::park;
            break;
          case NodeKind::restore:
            inst.op = node.keyed ? BcOp::keyedRestore : BcOp::restore;
            break;
          case NodeKind::ordinal:
            inst.op = BcOp::ordinal;
            break;
        }
        inst.name = static_cast<uint32_t>(out.names.size());
        out.names.push_back(std::string(toString(inst.op)) + "(" +
                            node.name + "#" + std::to_string(node.id) +
                            ")");
        out.insts.push_back(inst);
    }
    out.numArgs = arg_idx;
    return out;
}

namespace
{

/** Shared mutable memory state: DRAM image + dynamically allocated SRAM
 * buffers (the MU allocator pool, unbounded in functional mode).
 *
 * Unlike channels (single producer/consumer each), this state is shared
 * by every block process, so under Engine::Policy::parallel each access
 * runs under `mu` — callers lock, the methods stay lock-free so a
 * locked caller can compose them (alloc inside memoryOp's
 * section). The serialization does not perturb results: every
 * DRAM/SRAM cell has a single writer per program point in well-formed
 * Revet programs, and rmw ops are commutative (add/sub), so operation
 * order across threads cannot change final memory. Stats counters are
 * pure sums.
 *
 * The DRAM image and stats block are per-request state: an
 * ExecutionContext keeps one MachineMemory for its lifetime and points
 * it at each request's image/stats via rebind(). */
struct MachineMemory
{
    lang::DramImage *dram = nullptr;
    std::vector<std::vector<uint32_t>> heap;
    ExecStats *stats = nullptr;
    /** Serializes heap growth, DRAM image access, and stats updates
     * across engine worker threads. */
    std::mutex mu;
    /** Park slots currently occupied across all park/restore pairs;
     * the high-water mark lands in ExecStats::sramParkedPeak and the
     * post-run residue in ExecStats::sramParkedEnd. */
    uint64_t parkedNow = 0;
    /** SRAM handles live this run; handles are assigned densely from 0
     * each run, so this (not heap.size()) is the dangling bound: the
     * heap is the context's allocator arena and outlives requests —
     * alloc() re-zeroes and reuses the buffer a previous request left
     * in the slot instead of growing the heap. */
    uint32_t liveAllocs = 0;
    /** Next arrival index of each ordinal, one slot per ordinal
     * instruction. Each slot has a single user, so it needs no lock. */
    std::vector<Word> arrivals;

    /** Point this memory at the next request's image/stats and clear
     * all per-run state. Setup-only (no run in flight). */
    void
    rebind(lang::DramImage &dram_ref, ExecStats &stats_ref)
    {
        dram = &dram_ref;
        stats = &stats_ref;
        liveAllocs = 0;
        parkedNow = 0;
        std::fill(arrivals.begin(), arrivals.end(), 0);
    }

    uint32_t
    alloc(int64_t size)
    {
        if (liveAllocs < heap.size()) {
            heap[liveAllocs].assign(static_cast<size_t>(size), 0u);
            ++stats->sramArenaReused;
        } else {
            heap.emplace_back(static_cast<size_t>(size), 0u);
        }
        ++stats->sramAllocs;
        return liveAllocs++;
    }

    void
    parkSlots(uint64_t n)
    {
        parkedNow += n;
        if (parkedNow > stats->sramParkedPeak)
            stats->sramParkedPeak = parkedNow;
    }

    void
    releaseSlots(uint64_t n)
    {
        parkedNow -= n;
    }

    std::vector<uint32_t> *
    buffer(uint32_t handle)
    {
        if (handle >= liveAllocs)
            throw std::runtime_error("dangling SRAM handle in dataflow");
        return &heap[handle];
    }
};

/**
 * Evaluate one memory op (SRAM heap, DRAM image, rmw) over operand
 * values @p a, @p b, @p c, and count it in the stats. The caller holds
 * @p mem's mutex.
 */
inline Word
memoryOp(const BlockOp &op, Word a, Word b, Word c, MachineMemory &mem)
{
    switch (op.kind) {
      case OpKind::sramAlloc:
        return mem.alloc(op.size);
      case OpKind::sramRead: {
        ++mem.stats->sramAccesses;
        auto *buf = mem.buffer(a);
        return b < buf->size() ? normalize(op.elem, (*buf)[b]) : 0;
      }
      case OpKind::sramWrite: {
        ++mem.stats->sramAccesses;
        auto *buf = mem.buffer(a);
        if (b < buf->size())
            (*buf)[b] = normalize(op.elem, c);
        return 0;
      }
      case OpKind::rmwAdd:
      case OpKind::rmwSub: {
        ++mem.stats->sramAccesses;
        auto *buf = mem.buffer(a);
        if (b >= buf->size())
            return 0;
        uint32_t old = (*buf)[b];
        uint32_t next = op.kind == OpKind::rmwAdd ? old + c : old - c;
        (*buf)[b] = normalize(op.elem, next);
        return normalize(op.elem, old);
      }
      case OpKind::dramRead: {
        ++mem.stats->dramReadElems;
        mem.stats->dramReadBytes += lang::dramElemBytes(op.elem);
        return mem.dram->load(op.dram, a);
      }
      case OpKind::dramWrite: {
        ++mem.stats->dramWriteElems;
        mem.stats->dramWriteBytes += lang::dramElemBytes(op.elem);
        mem.dram->store(op.dram, a, b);
        return 0;
      }
      default:
        break; // pure ops are evalPureOp's
    }
    return 0;
}

/** The machine-model violation of a div or rem @p op that met a zero
 * divisor. */
[[noreturn]] void
throwZeroDivisor(const BlockOp &op)
{
    const bool rem = op.kind == OpKind::rems || op.kind == OpKind::remu;
    throw std::runtime_error(rem ? "remainder by zero in dataflow"
                                 : "division by zero in dataflow");
}

/**
 * Post-run bookkeeping: copy the engine's scheduler counters into
 * @p stats, throw the stall report if the network failed to drain, and
 * harvest per-link traffic counts, plus the value summaries when
 * @p watched (the engine's first @p num_links channels are the graph
 * links, in link-id order).
 */
void
collectRunStats(dataflow::Engine &engine, size_t num_links, bool watched,
                ExecStats &stats)
{
    const dataflow::SchedStats &sched = engine.schedStats();
    stats.schedWakeups = sched.wakeups;
    stats.schedNotifications = sched.notifications;
    stats.schedSteps = sched.steps;
    stats.schedIdleSteps = sched.idleSteps;
    stats.schedVerifyPasses = sched.verifyPasses;
    stats.schedQuanta = sched.quanta;
    stats.schedSteals = sched.steals;
    stats.schedWorkers = sched.workers;
    stats.drained = engine.drained();
    if (!stats.drained) {
        throw std::runtime_error("dataflow execution stalled: " +
                                 engine.stallReport());
    }
    stats.linkTokens.resize(num_links, 0);
    stats.linkBarriers.resize(num_links, 0);
    const auto &channels = engine.channels();
    for (size_t i = 0; i < num_links; ++i) {
        stats.linkTokens[i] = channels[i]->totalPushed();
        stats.linkBarriers[i] = channels[i]->watch().barriersPushed;
    }
    if (watched) {
        stats.linkValues.resize(num_links);
        for (size_t i = 0; i < num_links; ++i)
            stats.linkValues[i] = channels[i]->watch();
    }
}

// The nine stream roles run as the dataflow:: primitives themselves,
// and fanouts as Engine::multicast cursors with no process. Blocks,
// parks, FIFO restores and ordinals are dataflow::ElementWise too,
// with the lane functions below; only the keyed restore, which
// re-pairs threads across two streams, is a process of its own.

/** One op's columns over a run of n threads: thread t reads a[t],
 * b[t] and c[t] and, unless g is set and g[t] is 0, writes d[t]. */
struct OpColumns
{
    const Word *g, *a, *b, *c;
    Word *d;
    size_t n;
};

/**
 * Run one op of kind @p K over its columns, under one lock of @p mem
 * for a memory op. The kind is a constant here, so the switch in
 * evalPureOp or memoryOp folds away and the loop is the op's own.
 * Returns false if a div or rem met a zero divisor in a thread the
 * guard let through.
 */
template <OpKind K>
bool
opColumn(const BlockOp &op, const OpColumns &col, MachineMemory &mem)
{
    BlockOp k = op;
    k.kind = K;
    if constexpr (K >= OpKind::sramAlloc) {
        std::lock_guard<std::mutex> guard(mem.mu);
        for (size_t t = 0; t < col.n; ++t) {
            if (!col.g || col.g[t] != 0)
                col.d[t] = memoryOp(k, col.a[t], col.b[t], col.c[t], mem);
        }
        return true;
    } else {
        bool ok = true;
        if (col.g) {
            for (size_t t = 0; t < col.n; ++t) {
                if (col.g[t] != 0)
                    ok &= evalPureOp(k, col.a[t], col.b[t], col.c[t],
                                     col.d[t]);
            }
        } else {
            for (size_t t = 0; t < col.n; ++t)
                ok &= evalPureOp(k, col.a[t], col.b[t], col.c[t], col.d[t]);
        }
        return ok;
    }
}

using ColumnFn = bool (*)(const BlockOp &, const OpColumns &,
                          MachineMemory &);

template <size_t... K>
constexpr std::array<ColumnFn, sizeof...(K)>
columnTable(std::index_sequence<K...>)
{
    return {{&opColumn<static_cast<OpKind>(K)>...}};
}

/** opColumn for every OpKind, indexed by kind (dramWrite is the last). */
constexpr auto kOpColumn = columnTable(
    std::make_index_sequence<static_cast<size_t>(OpKind::dramWrite) + 1>());

/** The per-thread register table of a columnar run: where each
 * register's column is. */
const Word **
registerTable(size_t regs)
{
    thread_local std::vector<const Word *> table;
    if (table.size() < regs)
        table.resize(regs);
    return table.data();
}

/**
 * A block body over the program's flat tables. columns() is its one
 * interpreter: blockLanes hands it a whole run or one thread at a
 * time. Either way a register read before it is written reads 0; the
 * working memory is laneScratch, so a context holds no register file
 * per block.
 */
struct BlockBody
{
    const BlockOp *ops;
    const int32_t *inRegs;
    const int32_t *outRegs;
    uint32_t nOps, nRegs, nIns, nOuts;
    MachineMemory *mem;

    /**
     * Threads t0 .. t0 + n - 1 of @p run, column by column: each op
     * runs once over the n threads (one dispatch, and one lock for a
     * memory op). A register is a column of n words: an input lane's
     * column read in place until an op writes the register, a shared
     * zero column until anything does, then the register's own column
     * in the scratch. A guarded op first copies the register's current
     * column into its own, so the threads it masks off keep their
     * value. Returns the div or rem that met a zero divisor, with no
     * output written and the ops before it done, or null.
     */
    const BlockOp *
    columns(const dataflow::LaneRun &run, size_t t0, size_t n) const
    {
        // nRegs register columns, then a zero and a discard column.
        Word *cols = dataflow::laneScratch((nRegs + 2) * n);
        Word *zero = cols + nRegs * n;
        Word *discard = zero + n;
        std::fill(zero, zero + n, 0);
        const Word **reg = registerTable(nRegs);
        std::fill(reg, reg + nRegs, zero);
        for (uint32_t i = 0; i < nIns; ++i)
            reg[inRegs[i]] = run.in[i] + t0;
        auto col = [&](int r) { return r >= 0 ? reg[r] : zero; };
        for (uint32_t i = 0; i < nOps; ++i) {
            const BlockOp &op = ops[i];
            Word *d = discard;
            if (op.dst >= 0) {
                d = cols + static_cast<size_t>(op.dst) * n;
                if (op.guard >= 0 && reg[op.dst] != d)
                    std::copy(reg[op.dst], reg[op.dst] + n, d);
            }
            const OpColumns c{op.guard >= 0 ? reg[op.guard] : nullptr,
                              col(op.a), col(op.b), col(op.c), d, n};
            if (!kOpColumn[static_cast<size_t>(op.kind)](op, c, *mem))
                return &op;
            if (op.dst >= 0)
                reg[op.dst] = d;
        }
        for (uint32_t i = 0; i < nOuts; ++i)
            std::copy(reg[outRegs[i]], reg[outRegs[i]] + n, run.out[i] + t0);
        return nullptr;
    }
};

/**
 * A block's lane function. A block compile() marked columnar runs the
 * whole run in one columns() call. Any other block runs it one thread
 * at a time, so its memory effects come in thread order, and so does
 * a columnar run that met a zero divisor: compile() allows a div or
 * rem there only without memory ops, so the rerun redoes no effect and
 * throws for the first thread that fails, as thread order does.
 */
dataflow::LaneFn
blockLanes(const BytecodeProgram &prog, const BcInst &inst,
           MachineMemory &mem)
{
    const BlockBody body{prog.ops.data() + inst.ops,
                         prog.regs.data() + inst.inRegs,
                         prog.regs.data() + inst.outRegs,
                         inst.nOps,
                         inst.nRegs,
                         inst.nIns,
                         inst.nOuts,
                         &mem};
    return [body, columnar = inst.columnar](const dataflow::LaneRun &run) {
        if (columnar && !body.columns(run, 0, run.n))
            return;
        for (size_t t = 0; t < run.n; ++t) {
            if (const BlockOp *op = body.columns(run, t, 1))
                throwZeroDivisor(*op);
        }
    };
}

/**
 * The lane function of a single-lane role around a replicate region:
 * park (SRAM write of each data token), FIFO restore (the in-order
 * read-back), and ordinal (tags each entering thread with its arrival
 * index: the key a keyed park stores under and its restore looks up
 * by). Each passes its data words through, except the ordinal, which
 * replaces them; ElementWise passes barriers untouched. A park or
 * restore run books all its threads under one lock.
 */
dataflow::LaneFn
tapLanes(BcOp role, MachineMemory &mem)
{
    if (role == BcOp::ordinal) {
        // The arrival counter is per-run state: MachineMemory::rebind
        // zeroes it with the rest of the bookkeeping.
        const size_t slot = mem.arrivals.size();
        mem.arrivals.push_back(0);
        return [slot, &mem](const dataflow::LaneRun &run) {
            for (size_t t = 0; t < run.n; ++t)
                run.out[0][t] = mem.arrivals[slot]++;
        };
    }
    const bool park = role == BcOp::park;
    return [park, &mem](const dataflow::LaneRun &run) {
        {
            std::lock_guard<std::mutex> guard(mem.mu);
            mem.stats->sramAccesses += run.n;
            if (park) {
                mem.stats->sramParkedElems += run.n;
                mem.parkSlots(run.n);
            } else {
                mem.releaseSlots(run.n);
            }
        }
        std::copy(run.in[0], run.in[0] + run.n, run.out[0]);
    };
}

/**
 * Associative read-back side of an ordinal-keyed park/restore pair.
 *
 * The park forwards the value stream in region-entry order; this
 * process buffers each arriving value under its arrival index (the
 * same numbering the region-entry ordinal hands out) and emits values
 * in the order their keys appear on the key stream — the ordinal lane
 * that rode the region's bundles, i.e. region-exit order. The output's
 * barrier structure mirrors the key stream (the value stream's
 * barriers carry entry-order structure and are dropped); a key whose
 * value has not arrived yet simply waits.
 *
 * Slot reclamation: values whose threads died inside the region
 * (exit/return) are never looked up, so waiting for a lookup would
 * hold their slots forever. Both streams of a keyed pair carry the
 * same barrier structure — keyed parking refuses thread-multiplying
 * region bodies (counter/broadcast/reduce force a fork refusal), and
 * every remaining in-region primitive conserves barriers end to end
 * (flattens inside a while body cancel against the B1s its fbMerge
 * inserts) — so barrier #k on the value stream and barrier #k on the
 * key stream delimit the same batch of threads. When the key stream
 * closes batch k, every still-buffered value tagged with batch k
 * belongs to a dead thread and its slot is freed (bookkeeping only:
 * the MU just forgets the slot, so no sramAccesses are counted).
 * Leftover values at quiescence are such parks, not a stall.
 */
class KeyedRestore final : public dataflow::Process
{
  public:
    KeyedRestore(std::string name, Channel *value, Channel *key,
                 Channel *out, MachineMemory &mem)
        : Process(std::move(name)), value_(value), key_(key), out_(out),
          mem_(mem)
    {
        declareIo({value_, key_}, out_);
    }

    /** One token per firing: a value absorbed, or a key served. */
    int fire(int) override { return step() ? 1 : 0; }

    std::string
    stallReason() const override
    {
        std::string detail = ioStallDetail();
        if (!key_->empty() && key_->front().isData()) {
            detail = "awaiting parked value for ordinal " +
                std::to_string(key_->front().word()) + "; " + detail;
        }
        return name() + ": " + std::to_string(buffered_.size()) +
            " value(s) parked; " + detail;
    }

    void
    reset() override
    {
        buffered_.clear();
        next_ordinal_ = 0;
        value_batches_ = 0;
        key_batches_ = 0;
    }

  private:
    struct Parked
    {
        Word value = 0;
        /** Value-stream barrier count at arrival: which batch the
         * value's thread entered the region in. */
        uint64_t batch = 0;
    };

    /** Absorb one value, or serve one key. */
    bool
    step()
    {
        // Absorb the park stream first: values land in the keyed SRAM.
        if (!value_->empty()) {
            Token tok = value_->pop();
            if (tok.isBarrier()) {
                ++value_batches_;
                return true;
            }
            if (value_batches_ < key_batches_) {
                // Dead on arrival: the value's batch already closed on
                // the key side, so no key can ever look it up.
                std::lock_guard<std::mutex> guard(mem_.mu);
                mem_.releaseSlots(1);
            } else {
                buffered_[next_ordinal_] = {tok.word(), value_batches_};
            }
            ++next_ordinal_;
            return true;
        }
        if (key_->empty() || !out_->canPush())
            return false;
        const Token &head = key_->front();
        if (head.isBarrier()) {
            out_->push(key_->pop());
            ++key_batches_;
            reclaimClosedBatches();
            return true;
        }
        auto it = buffered_.find(head.word());
        if (it == buffered_.end())
            return false; // the key ran ahead of its parked value
        key_->pop();
        {
            std::lock_guard<std::mutex> guard(mem_.mu);
            ++mem_.stats->sramAccesses;
            mem_.releaseSlots(1);
        }
        out_->push(Token::data(it->second.value));
        buffered_.erase(it);
        return true;
    }

    void
    reclaimClosedBatches()
    {
        size_t freed = 0;
        for (auto it = buffered_.begin(); it != buffered_.end();) {
            if (it->second.batch < key_batches_) {
                it = buffered_.erase(it);
                ++freed;
            } else {
                ++it;
            }
        }
        if (freed == 0)
            return;
        std::lock_guard<std::mutex> guard(mem_.mu);
        mem_.releaseSlots(freed);
    }

    Channel *value_;
    Channel *key_;
    Channel *out_;
    MachineMemory &mem_;
    std::unordered_map<Word, Parked> buffered_;
    Word next_ordinal_ = 0;
    /** Barriers seen on each stream so far; equal counts delimit the
     * same thread batch (see the class comment). */
    uint64_t value_batches_ = 0;
    uint64_t key_batches_ = 0;
};

/** main()'s one-token seed for a source: its argument (or 0 for
 * `__start`), closed by Omega(1). */
sltf::TokenStream
sourceSeed(Word value)
{
    return sltf::StreamBuilder().d(value).b(1).build();
}

} // namespace

/**
 * Everything one context instantiates once and rebinds per request:
 * the engine (which owns the channels and processes), raw views onto
 * both for the per-run reset sweep, and the machine memory whose
 * DRAM/stats pointers move from request to request.
 */
struct ExecutionContext::Impl
{
    const BytecodeProgram &prog;
    MachineMemory mem;
    dataflow::Engine engine;
    std::vector<Channel *> chans;
    std::vector<dataflow::Process *> procs;
    /** Each source and the main-args index it seeds from (-1: the
     * `__start` seed). */
    std::vector<std::pair<dataflow::Source *, int32_t>> sources;
    uint64_t runs = 0;
    bool poisoned = false;
    bool watchValues = false;

    explicit Impl(const BytecodeProgram &p)
        : prog(p), engine(dataflow::Engine::Policy::worklist)
    {
        chans.resize(prog.numLinks, nullptr);
        for (size_t i = 0; i < prog.numLinks; ++i)
            chans[i] = engine.channel(prog.linkNames[i]);
        procs.reserve(prog.insts.size());
        for (const BcInst &inst : prog.insts) {
            if (dataflow::Process *proc = instantiate(inst))
                procs.push_back(proc);
        }
    }

    /** The channels of @p count operands starting at pool offset
     * @p at. */
    Bundle
    lanes(uint32_t at, uint32_t count) const
    {
        Bundle b;
        b.reserve(count);
        for (uint32_t i = 0; i < count; ++i)
            b.push_back(chans[prog.chans[at + i]]);
        return b;
    }

    /** The process running @p inst, or null for a fanout (wired as a
     * multicast instead). */
    dataflow::Process *
    instantiate(const BcInst &inst)
    {
        using namespace dataflow;
        const std::string &name = prog.names[inst.name];
        auto in = [&](uint32_t i) { return chans[prog.chans[inst.ins + i]]; };
        Channel *out = inst.nOuts > 0 ? chans[prog.chans[inst.outs]] : nullptr;
        Bundle outs = lanes(inst.outs, inst.nOuts);
        switch (inst.op) {
          case BcOp::source: {
            // Seeded per run from the request's arguments.
            auto *src = engine.make<Source>(name, out, sltf::TokenStream{});
            sources.emplace_back(src, inst.arg);
            return src;
          }
          case BcOp::sink:
            return engine.make<Sink>(name, in(0));
          case BcOp::fanout:
            // Link fan-out is the network's job: the outputs become
            // read cursors over the input's ring, with no process.
            engine.multicast(in(0), outs);
            return nullptr;
          case BcOp::block:
            return engine.make<ElementWise>(name, lanes(inst.ins, inst.nIns),
                                            std::move(outs),
                                            blockLanes(prog, inst, mem));
          case BcOp::counter:
            return engine.make<Counter>(name, in(0), in(1), in(2), out);
          case BcOp::broadcast:
            return engine.make<Broadcast>(name, in(0), in(1), out,
                                          inst.level);
          case BcOp::reduce:
            return engine.make<Reduce>(name, in(0), out, inst.init);
          case BcOp::flatten:
            return engine.make<Flatten>(name, in(0), out);
          case BcOp::filter:
            return engine.make<Filter>(name, in(0),
                                       lanes(inst.ins + 1, inst.nIns - 1),
                                       std::move(outs), inst.sense);
          case BcOp::fwdMerge:
            return engine.make<ForwardMerge>(
                name, lanes(inst.ins, inst.nOuts),
                lanes(inst.ins + inst.nOuts, inst.nOuts), std::move(outs));
          case BcOp::fbMerge:
            return engine.make<FwdBackMerge>(
                name, lanes(inst.ins, inst.nOuts),
                lanes(inst.ins + inst.nOuts, inst.nOuts), std::move(outs));
          case BcOp::park:
          case BcOp::restore:
          case BcOp::ordinal:
            return engine.make<ElementWise>(name, Bundle{in(0)},
                                            std::move(outs),
                                            tapLanes(inst.op, mem));
          case BcOp::keyedRestore:
            return engine.make<KeyedRestore>(name, in(0), in(1), out, mem);
        }
        throw std::logic_error("unknown bytecode op");
    }
};

ExecutionContext::ExecutionContext(const BytecodeProgram &prog)
    : impl_(new Impl(prog))
{}

ExecutionContext::~ExecutionContext() = default;

void
ExecutionContext::setValueWatch(bool on)
{
    impl_->watchValues = on;
    for (Channel *ch : impl_->chans)
        ch->setValueWatch(on);
}

uint64_t
ExecutionContext::runsServed() const
{
    return impl_->runs;
}

bool
ExecutionContext::poisoned() const
{
    return impl_->poisoned;
}

ExecStats
ExecutionContext::run(lang::DramImage &dram,
                      const std::vector<int32_t> &args,
                      dataflow::Engine::Policy policy, int num_threads)
{
    Impl &im = *impl_;
    if (args.size() < im.prog.numArgs)
        throw std::runtime_error("dataflow program expects more arguments");

    ExecStats stats;
    stats.graphNodes = im.prog.insts.size();
    stats.graphLinks = im.prog.numLinks;

    // Full per-request reset *before* the run, so a request never
    // inherits residue: memory pointed at this request's image/stats,
    // channels to empty, every process's mode machines re-armed and
    // every source re-seeded with this request's arguments.
    im.mem.rebind(dram, stats);
    im.engine.resetChannels();
    for (dataflow::Process *proc : im.procs)
        proc->reset();
    for (const auto &[src, arg] : im.sources)
        src->reset(sourceSeed(arg < 0 ? 0 : static_cast<Word>(args[arg])));

    im.engine.setPolicy(policy);
    im.engine.setNumThreads(num_threads);
    // Pessimistic: cleared only when the run reaches quiescence. A
    // throw below (livelock, machine-model violation) leaves channel
    // and memory state mid-request; the reset above makes the *next*
    // run safe regardless, but pools read this to retire the context.
    im.poisoned = true;
    im.engine.run();
    collectRunStats(im.engine, im.prog.numLinks, im.watchValues, stats);
    stats.sramParkedEnd = im.mem.parkedNow;
    im.poisoned = false;
    ++im.runs;
    return stats;
}

} // namespace graph
} // namespace revet
