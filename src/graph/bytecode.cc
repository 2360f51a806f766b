#include "graph/bytecode.hh"

#include <algorithm>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "dataflow/primitives.hh"

namespace revet
{
namespace graph
{

using dataflow::allCanPush;
using dataflow::allHaveToken;
using dataflow::Bundle;
using dataflow::bundleHeadKind;
using dataflow::Channel;
using dataflow::pushBarrier;
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

BytecodeProgram
BytecodeProgram::compile(const Dfg &dfg)
{
    BytecodeProgram out;
    out.numLinks = dfg.links.size();
    out.linkNames.reserve(dfg.links.size());
    for (const auto &link : dfg.links)
        out.linkNames.push_back(link.name);

    size_t arg_idx = 0;
    out.insts.reserve(dfg.nodes.size());
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
 * locked caller can compose them (alloc inside evalMemoryOp's
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

    /** Point this memory at the next request's image/stats and clear
     * all per-run state. Setup-only (no run in flight). */
    void
    rebind(lang::DramImage &dram_ref, ExecStats &stats_ref)
    {
        dram = &dram_ref;
        stats = &stats_ref;
        liveAllocs = 0;
        parkedNow = 0;
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
    parkSlot()
    {
        ++parkedNow;
        if (parkedNow > stats->sramParkedPeak)
            stats->sramParkedPeak = parkedNow;
    }

    void
    releaseSlot()
    {
        --parkedNow;
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
 * Evaluate one block op that graph::evalPureOp declined: memory ops
 * (SRAM heap, DRAM image, rmw) and their stats, under @p mem's mutex,
 * plus the division/remainder-by-zero machine-model violations.
 */
Word
evalMemoryOp(const BlockOp &op, const std::vector<Word> &regs,
             MachineMemory &mem)
{
    auto A = [&] { return regs[op.a]; };
    auto B = [&] { return regs[op.b]; };
    auto C = [&] { return regs[op.c]; };
    // One lock per op keeps workers serialized only on the memory ops
    // themselves, never on the pure ALU fast path.
    std::lock_guard<std::mutex> guard(mem.mu);
    switch (op.kind) {
      case OpKind::divs:
      case OpKind::divu:
        throw std::runtime_error("division by zero in dataflow");
      case OpKind::rems:
      case OpKind::remu:
        throw std::runtime_error("remainder by zero in dataflow");
      case OpKind::sramAlloc:
        return mem.alloc(op.size);
      case OpKind::sramRead: {
        ++mem.stats->sramAccesses;
        auto *buf = mem.buffer(A());
        uint32_t idx = B();
        return idx < buf->size() ? normalize(op.elem, (*buf)[idx]) : 0;
      }
      case OpKind::sramWrite: {
        ++mem.stats->sramAccesses;
        auto *buf = mem.buffer(A());
        uint32_t idx = B();
        if (idx < buf->size())
            (*buf)[idx] = normalize(op.elem, C());
        return 0;
      }
      case OpKind::rmwAdd:
      case OpKind::rmwSub: {
        ++mem.stats->sramAccesses;
        auto *buf = mem.buffer(A());
        uint32_t idx = B();
        if (idx >= buf->size())
            return 0;
        uint32_t old = (*buf)[idx];
        uint32_t next =
            op.kind == OpKind::rmwAdd ? old + C() : old - C();
        (*buf)[idx] = normalize(op.elem, next);
        return normalize(op.elem, old);
      }
      case OpKind::dramRead: {
        ++mem.stats->dramReadElems;
        mem.stats->dramReadBytes += lang::dramElemBytes(op.elem);
        return mem.dram->load(op.dram, A());
      }
      case OpKind::dramWrite: {
        ++mem.stats->dramWriteElems;
        mem.stats->dramWriteBytes += lang::dramElemBytes(op.elem);
        mem.dram->store(op.dram, A(), B());
        return 0;
      }
      default:
        break; // pure ops are evalPureOp's
    }
    return 0;
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
    stats.schedSteps = sched.steps;
    stats.schedIdleSteps = sched.idleSteps;
    stats.schedStepsSkipped = sched.stepsSkipped;
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
// and fanouts as Engine::multicast cursors with no process; only the
// roles that touch MachineMemory (or, for ordinal, renumber threads
// for the keyed parks) are processes of their own, below.

/**
 * A block: one element-wise firing over a preallocated register file.
 * Each firing re-zeroes the file (reads-before-writes yield 0), lands
 * the inputs by the lane map, and runs straight over this block's
 * slice of the program's flat BlockOp table.
 */
class BlockProc final : public dataflow::Process
{
  public:
    BlockProc(std::string name, const BytecodeProgram &prog,
              const BcInst &inst, Bundle ins, Bundle outs,
              MachineMemory &mem)
        : Process(std::move(name)), ins_(std::move(ins)),
          outs_(std::move(outs)), regs_(inst.nRegs, 0),
          ops_(prog.ops.data() + inst.ops), num_ops_(inst.nOps),
          in_regs_(prog.regs.data() + inst.inRegs),
          out_regs_(prog.regs.data() + inst.outRegs), mem_(mem)
    {
        declareIo(ins_, outs_);
    }

    bool
    stepOnce() override
    {
        if (!allHaveToken(ins_) || !allCanPush(outs_))
            return false;
        const int kind = bundleHeadKind(ins_);
        if (kind > 0) {
            for (Channel *ch : ins_)
                ch->pop();
            pushBarrier(outs_, kind);
            return true;
        }
        std::fill(regs_.begin(), regs_.end(), 0);
        for (size_t i = 0; i < ins_.size(); ++i)
            regs_[in_regs_[i]] = ins_[i]->pop().word();
        for (uint32_t i = 0; i < num_ops_; ++i) {
            const BlockOp &op = ops_[i];
            if (op.guard >= 0 && regs_[op.guard] == 0)
                continue;
            // ALU semantics live in graph::evalPureOp (shared with the
            // optimizer's constant folder); it declines memory traffic
            // and division by zero, which take the locked slow path.
            Word v;
            const Word a = op.a >= 0 ? regs_[op.a] : 0;
            const Word b = op.b >= 0 ? regs_[op.b] : 0;
            const Word c = op.c >= 0 ? regs_[op.c] : 0;
            if (!evalPureOp(op, a, b, c, v))
                v = evalMemoryOp(op, regs_, mem_);
            if (op.dst >= 0)
                regs_[op.dst] = v;
        }
        for (size_t i = 0; i < outs_.size(); ++i)
            outs_[i]->push(Token::data(regs_[out_regs_[i]]));
        return true;
    }

  private:
    Bundle ins_;
    Bundle outs_;
    std::vector<Word> regs_;
    const BlockOp *ops_;
    uint32_t num_ops_;
    const int32_t *in_regs_;
    const int32_t *out_regs_;
    MachineMemory &mem_;
};

/**
 * The single-lane roles around a replicate region: park (SRAM write of
 * each data token), FIFO restore (the in-order read-back), and ordinal
 * (tags each entering thread with its arrival index: the key a keyed
 * park stores under and its restore looks up by). All three pass the
 * stream through with barriers untouched.
 */
class LaneTap final : public dataflow::Process
{
  public:
    LaneTap(std::string name, BcOp role, Channel *in, Channel *out,
            MachineMemory &mem)
        : Process(std::move(name)), role_(role), in_(in), out_(out),
          mem_(mem)
    {
        declareIo({in_}, {out_});
    }

    bool
    stepOnce() override
    {
        if (in_->empty() || !out_->canPush())
            return false;
        Token tok = in_->pop();
        if (tok.isData()) {
            if (role_ == BcOp::ordinal) {
                tok = Token::data(count_++);
            } else {
                std::lock_guard<std::mutex> guard(mem_.mu);
                ++mem_.stats->sramAccesses;
                if (role_ == BcOp::park) {
                    ++mem_.stats->sramParkedElems;
                    mem_.parkSlot();
                } else {
                    mem_.releaseSlot();
                }
            }
        }
        out_->push(tok);
        return true;
    }

    void reset() override { count_ = 0; }

  private:
    BcOp role_;
    Channel *in_;
    Channel *out_;
    MachineMemory &mem_;
    Word count_ = 0;
};

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
        declareIo({value_, key_}, {out_});
    }

    bool
    stepOnce() override
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
                mem_.releaseSlot();
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
            mem_.releaseSlot();
        }
        out_->push(Token::data(it->second.value));
        buffered_.erase(it);
        return true;
    }

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
        for (size_t i = 0; i < freed; ++i)
            mem_.releaseSlot();
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
            return engine.make<BlockProc>(name, prog, inst,
                                          lanes(inst.ins, inst.nIns),
                                          std::move(outs), mem);
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
            return engine.make<LaneTap>(name, inst.op, in(0), out, mem);
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

const BytecodeProgram &
ExecutionContext::program() const
{
    return impl_->prog;
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
                      dataflow::Engine::Policy policy, int num_threads,
                      uint64_t max_rounds)
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
    for (Channel *ch : im.chans)
        ch->resetForReuse();
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
    stats.engineRounds = im.engine.run(max_rounds);
    collectRunStats(im.engine, im.prog.numLinks, im.watchValues, stats);
    stats.sramParkedEnd = im.mem.parkedNow;
    im.poisoned = false;
    ++im.runs;
    return stats;
}

} // namespace graph
} // namespace revet
