/**
 * @file
 * The executor for compiled dataflow graphs.
 *
 * BytecodeProgram::compile flattens an optimized Dfg once into
 * position-independent tables: one fixed-width instruction per node,
 * channel *indices* (not pointers) into a shared operand pool, and the
 * block bodies concatenated into a single BlockOp table. An
 * ExecutionContext instantiates each instruction once, as the
 * dataflow:: primitives themselves, so every firing rule has exactly
 * one definition: the nine stream roles with a firing rule of their
 * own (source, sink, counter, broadcast, reduce, flatten, filter, and
 * both merges) directly, and blocks, parks, FIFO restores and
 * ordinals as dataflow::ElementWise, whose lane function runs the
 * block body or the park bookkeeping over the shared machine memory
 * (bytecode.cc). Like every primitive, they fire a run at a time
 * (primitives.hh): one call of a block's lane function takes the whole
 * data run its firing snapshotted. One loop runs every block body
 * column by column, each op over a slice of the run before the next
 * op (the vRDA's lanes, in software): the whole run for most blocks,
 * which compile() marks columnar, and one thread at a time for the few
 * whose memory effects could come out differently in that order, so
 * every run leaves memory as thread order, the interpreter's, does.
 * A park or restore books its whole
 * run under one lock of the machine memory. A quantum stays one
 * thread or barrier moved. The keyed restore is the one role with a
 * private process: it re-pairs values with keys across two streams.
 * Registering an instruction's process folds its output links into one
 * ring, and groups the links of each bundle argument that share a
 * producer ring into one cursor (dataflow/channel.hh). A fanout runs
 * no process: as in the vRDA network, Engine::multicast makes each
 * output a cursor on its input's ring column, each token is written
 * once, and every output link still reports the whole stream in its
 * per-link counts.
 * The program
 * plugs into dataflow::Engine unchanged, so both scheduling policies
 * run it and neither is observable through results. Its DRAM
 * output is held bit-identical to the AST interpreter's by the test
 * suites; the per-link token counts it returns feed the link-bandwidth
 * analysis and the cycle model.
 */

#ifndef REVET_GRAPH_BYTECODE_HH
#define REVET_GRAPH_BYTECODE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/engine.hh"
#include "graph/dfg.hh"
#include "graph/exec.hh"
#include "lang/dram_image.hh"

namespace revet
{
namespace graph
{

/** Bytecode opcodes: one per streaming-primitive role. The FIFO and
 * keyed restore variants get distinct opcodes (they share a NodeKind
 * but not semantics), as do argument and `__start` sources (resolved
 * via BcInst::arg, not a runtime branch). */
enum class BcOp : uint8_t
{
    source,
    sink,
    fanout,
    block,
    counter,
    broadcast,
    reduce,
    flatten,
    filter,
    fwdMerge,
    fbMerge,
    park,
    restore,      ///< FIFO read-back (order-preserving region)
    keyedRestore, ///< associative read-back (thread-reordering region)
    ordinal,
};

const char *toString(BcOp op);

/**
 * One flattened node. All variable-length payloads live in the
 * program's shared pools and are referenced by offset+count, so the
 * instruction itself is fixed-width and the whole program is three
 * contiguous arrays hot in cache:
 *
 *  - ins/outs: offsets into BytecodeProgram::chans (channel indices ==
 *    link ids). Merge instructions follow the Dfg convention: the
 *    input range is the A-bundle then the B-bundle, each nOuts wide.
 *    A filter's first input is its predicate.
 *  - ops + inRegs/outRegs: a block's body in BytecodeProgram::ops and
 *    its lane-to-register maps in BytecodeProgram::regs (inRegs is
 *    nIns entries, outRegs is nOuts entries).
 *  - name: index into BytecodeProgram::names — "kind(node#id)", so
 *    Engine::stallReport() names each process by its role and source
 *    node.
 */
struct BcInst
{
    BcOp op = BcOp::sink;
    bool sense = true;   ///< filter polarity
    bool columnar = false; ///< block runs a whole run per op, not a thread
    uint32_t nRegs = 0;  ///< block register-file size
    int32_t level = 1;   ///< broadcast hierarchy distance
    Word init = 0;       ///< reduce initial value
    int32_t arg = -1;    ///< source: main-args index (-1: __start seed)
    uint32_t ins = 0;    ///< offset into chans
    uint32_t nIns = 0;
    uint32_t outs = 0;   ///< offset into chans
    uint32_t nOuts = 0;
    uint32_t ops = 0;    ///< offset into the shared BlockOp table
    uint32_t nOps = 0;
    uint32_t inRegs = 0;  ///< offset into regs (nIns entries)
    uint32_t outRegs = 0; ///< offset into regs (nOuts entries)
    uint32_t name = 0;   ///< offset into names
};

/**
 * A dataflow graph compiled to flat tables. Immutable after compile()
 * and holds no pointers, so one program can be cached (see
 * core::CompiledArtifact) and executed any number of times, under any
 * scheduling policy, from any thread.
 */
struct BytecodeProgram
{
    std::vector<BcInst> insts;      ///< one per Dfg node, in node order
    std::vector<uint32_t> chans;    ///< flattened channel-index operands
    std::vector<BlockOp> ops;       ///< concatenated block bodies
    std::vector<int32_t> regs;      ///< concatenated lane/register maps
    std::vector<std::string> names; ///< per-inst diagnostic names
    std::vector<std::string> linkNames; ///< per-channel names (diagnostics)
    size_t numLinks = 0;
    size_t numArgs = 0; ///< main arguments the program expects

    /** Flatten @p dfg (which must verify()) into bytecode. Pure: the
     * graph is not retained. */
    static BytecodeProgram compile(const Dfg &dfg);
};

/**
 * The per-request half of the compile-once/run-many split.
 *
 * A BytecodeProgram is immutable and shareable across threads; running
 * it needs mutable state — channel FIFOs, each instruction's register
 * file and internal mode machines, the SRAM arena, a DRAM image and a
 * stats block. An ExecutionContext instantiates all of that once
 * (engine, channels, one process per instruction) and rebinds it to a
 * fresh request on every run() instead of rebuilding it: channels are
 * cleared, per-instruction state is re-armed with the request's
 * arguments, and the machine memory is pointed at the request's DRAM
 * image and stats. The SRAM arena is kept: a reused context hands the
 * next request the buffers the previous one grew, re-zeroed
 * (ExecStats::sramArenaReused). Contexts are single-request-at-a-time
 * (use one per thread for concurrency, as core/serve.hh's workers
 * do); handing a context between threads across requests is safe when
 * the handoff synchronizes.
 *
 * The referenced program must outlive the context.
 */
class ExecutionContext
{
  public:
    explicit ExecutionContext(const BytecodeProgram &prog);
    ~ExecutionContext();

    ExecutionContext(const ExecutionContext &) = delete;
    ExecutionContext &operator=(const ExecutionContext &) = delete;

    /**
     * Serve one request: reset all per-run state, bind @p dram /
     * @p args, and run the program to quiescence. The policy, thread
     * count, and whether the context is fresh or reused are observable
     * only through stats (Kahn-network determinism). @p num_threads
     * is the worker count for Policy::parallel (0 defers to
     * Engine::defaultNumThreads(); ignored by the worklist). The run
     * is capped at Engine::defaultMaxRounds working rounds.
     * @throws std::runtime_error on machine-model violations,
     * livelock, or missing arguments (the context remains reusable:
     * the next run() starts from a full reset, but poisoned() reports
     * the failure so servers can discard it).
     */
    ExecStats run(lang::DramImage &dram,
                  const std::vector<int32_t> &args,
                  dataflow::Engine::Policy policy =
                      dataflow::Engine::Policy::worklist,
                  int num_threads = 0);

    /** Record every link's value summary (ExecStats::linkValues) on
     * the runs that follow. Off by default: per-link token counts are
     * always recorded, but only the abstract-interpretation soundness
     * check reads the summary, and it costs every data push.
     * Setup-only: must not be called during run(). */
    void setValueWatch(bool on);

    /** Requests served to completion (successful run() calls). */
    uint64_t runsServed() const;

    /** True after a run() threw: state was left mid-request. run()
     * self-heals via the full reset, but serving uses this to retire
     * the context instead of reusing it. */
    bool poisoned() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace graph
} // namespace revet

#endif // REVET_GRAPH_BYTECODE_HH
