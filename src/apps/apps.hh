/**
 * @file
 * The eight Table III evaluation applications.
 *
 * Each App bundles: the Revet source program, a synthetic dataset
 * generator (sized by a scale parameter), one native C++ reference
 * kernel for the program's outer foreach (the only host
 * implementation of the app: verify() checks every DRAM region
 * against it, and Table V's CPU column times it), the byte-accounting
 * rule used for GB/s (input+output bytes, matching the paper's
 * methodology), and the paper's reported numbers for EXPERIMENTS.md
 * comparisons.
 */

#ifndef REVET_APPS_APPS_HH
#define REVET_APPS_APPS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lang/dram_image.hh"

namespace revet
{
namespace apps
{

/** Workload characterization for the analytic GPU baseline model. */
struct GpuProfile
{
    double bytesPerThread = 16;   ///< DRAM bytes touched per thread
    double instrPerThread = 32;   ///< dynamic instructions per thread
    double uniqueLinesPerThread = 1; ///< L1 lines touched (tag checks)
    bool coalesced = true;        ///< neighboring threads share lines
    int kernelsPerBatch = 1;      ///< multi-kernel launches (kD-tree)
    double launchesPerItem = 0;   ///< per-item kernel relaunch overhead
    double threadsPerScale = 1;   ///< GPU threads per app scale unit
    /** Warp-serialization multiplier, calibrated so the model
     * reproduces the paper's V100 measurements (Table V): uniform
     * inner loops diverge little, data-dependent parsing, probing and
     * matching serialize heavily. */
    double divergence = 8;
};

struct PaperNumbers
{
    int lines = 0;          ///< Table III LoC
    double revetGBs = 0;    ///< Table V Revet throughput
    double gpuGBs = 0;      ///< Table V V100 throughput
    double cpuGBs = 0;      ///< Table V Xeon throughput
    double idealDram = 1;   ///< Table V "D" speedup
    double idealSramNet = 1; ///< Table V "SN" speedup
    double idealAll = 1;    ///< Table V "SND" speedup
    double hbmReadPct = 0;  ///< Table IV HBM2 read %
    double hbmWritePct = 0; ///< Table IV HBM2 write %
};

struct App
{
    std::string name;
    std::string description;  ///< Table III "Description"
    std::string dataset;      ///< Table III "Per-Thread Dataset"
    std::string keyFeatures;  ///< Table III "Key Features"
    std::string source;       ///< Revet program text

    /** Fill DRAM inputs for `scale` work items; returns main() args. */
    std::function<std::vector<int32_t>(lang::DramImage &, int scale)>
        generate;
    /**
     * Compute threads [lo, hi) of main()'s outer foreach natively:
     * read the inputs and write the outputs of @p dram through raw
     * region pointers, given the args generate() returned (args[0] is
     * the foreach count). Threads write disjoint output ranges, so
     * disjoint [lo, hi) chunks may run concurrently on one image.
     */
    std::function<void(lang::DramImage &, const std::vector<int32_t> &args,
                       uint64_t lo, uint64_t hi)>
        reference;
    /** Bytes of useful input+output data processed at `scale`. */
    std::function<uint64_t(int scale)> accountedBytes;

    /** Fraction of DRAM traffic that is random single-burst access. */
    double randomAccessFraction = 0.0;
    /** Burst-granularity overfetch on sequential traffic (32 B bursts
     * vs small per-thread records). */
    double dramOverfetch = 1.0;
    /** Default replicate factor used by the program (resource model). */
    int replicateFactor = 1;
    /** Scale Table V's CPU column times reference() at: smaller for
     * apps with long per-thread work, so each timing stays short. */
    int cpuScale = 1 << 20;

    GpuProfile gpu;
    PaperNumbers paper;

    /** Source line count (Table III "Lines"). */
    int sourceLines() const;

    /**
     * Check @p dram after a run at @p scale: regenerate the inputs on
     * a copy, run reference() over every thread, and compare every
     * region byte for byte (inputs must be unchanged, outputs must
     * equal the reference). Returns "" or the first difference.
     */
    std::string verify(lang::DramImage &dram, int scale) const;
};

/** All eight applications, in the paper's Table III order. */
const std::vector<App> &allApps();

/** Look up by name; throws std::out_of_range. */
const App &findApp(const std::string &name);

} // namespace apps
} // namespace revet

#endif // REVET_APPS_APPS_HH
