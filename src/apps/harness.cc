#include "apps/harness.hh"

namespace revet
{
namespace apps
{

AppRun
runApp(const App &app, int scale, const CompileOptions &copts,
       const graph::ResourceOptions &ropts,
       const sim::MachineConfig &machine, bool aurochs_mode)
{
    AppRun out;
    // The optimizer's block-fusion budget and the resource/perf
    // analysis must describe the same machine.
    CompileOptions co = copts;
    co.graphOpt.machine = machine;
    // Through the artifact cache: the suites run the same app at many
    // scales and under repeated fixtures, and only (source, options)
    // changes the artifact — re-lowering per run was pure waste (the
    // compile-count test in tests/core/test_serve.cc pins this).
    auto art = ArtifactCache::global().get(app.source, co);

    lang::DramImage dram(art->hir());
    auto args = app.generate(dram, scale);
    out.stats = art->execute(dram, args);
    out.verifyError = app.verify(dram, scale);
    out.verified = out.verifyError.empty();
    out.accountedBytes = app.accountedBytes(scale);

    graph::Dfg dfg = art->dfg(); // copy: link analysis annotates widths
    graph::ResourceOptions ro = ropts;
    // The canonical graph-level toggles live in CompileOptions; plumb
    // them through so the layers cannot drift.
    ro.toggles = copts.graph;
    if (ro.replicateOverride == 0)
        ro.replicateOverride = app.replicateFactor;
    out.resources = graph::analyzeResources(dfg, machine, ro);

    sim::PerfOptions po;
    po.randomAccessFraction = app.randomAccessFraction;
    po.dramOverfetch = app.dramOverfetch;
    po.aurochsMode = aurochs_mode;
    out.perf = sim::modelPerformance(dfg, out.stats, out.resources,
                                     machine, out.accountedBytes, po);
    sim::PerfOptions poD = po;
    poD.idealDram = true;
    out.perfD = sim::modelPerformance(dfg, out.stats, out.resources,
                                      machine, out.accountedBytes, poD);
    sim::PerfOptions poSN = po;
    poSN.idealSramNet = true;
    out.perfSN = sim::modelPerformance(dfg, out.stats, out.resources,
                                       machine, out.accountedBytes, poSN);
    sim::PerfOptions poSND = poD;
    poSND.idealSramNet = true;
    out.perfSND = sim::modelPerformance(dfg, out.stats, out.resources,
                                        machine, out.accountedBytes,
                                        poSND);
    return out;
}

} // namespace apps
} // namespace revet
