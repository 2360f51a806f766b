/**
 * @file
 * Reference interpreter for analyzed Revet programs.
 *
 * Executes the AST directly against a DramImage. Thread semantics follow
 * Section IV: foreach spawns child threads with a read-only view of
 * parent scalars (any sequential order is a valid schedule because
 * threads are unordered and only communicate through memory adapters and
 * atomics); fork(n) continues the current thread n ways. The interpreter
 * is the golden model every compiled-dataflow test compares against, and
 * its RunStats double as the workload characterization used by the
 * baseline performance models.
 */

#ifndef REVET_INTERP_INTERP_HH
#define REVET_INTERP_INTERP_HH

#include <cstdint>
#include <string>

#include "lang/ast.hh"
#include "lang/dram_image.hh"

namespace revet
{
namespace interp
{

/** Dynamic execution counts gathered during a run. */
struct RunStats
{
    uint64_t foreachThreads = 0; ///< threads spawned by foreach
    uint64_t forkThreads = 0;    ///< additional threads from fork
    uint64_t whileIterations = 0;
    uint64_t dramReads = 0;      ///< element reads (direct + iterator)
    uint64_t dramWrites = 0;
    uint64_t dramReadBytes = 0;
    uint64_t dramWriteBytes = 0;
    uint64_t sramReads = 0;
    uint64_t sramWrites = 0;
    uint64_t iteratorRefills = 0; ///< tile-boundary fetches/flushes
    uint64_t aluOps = 0;          ///< evaluated arithmetic nodes
    uint64_t peakLiveThreads = 0;
};

/**
 * Run @p program's main with @p args against @p dram.
 *
 * @throws std::runtime_error on dynamic errors (e.g. runaway loops past
 * @p max_steps).
 */
RunStats run(const lang::Program &program, lang::DramImage &dram,
             const std::vector<int32_t> &args,
             uint64_t max_steps = 1ull << 34);

} // namespace interp
} // namespace revet

#endif // REVET_INTERP_INTERP_HH
