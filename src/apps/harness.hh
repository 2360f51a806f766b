/**
 * @file
 * Evaluation harness: compile an application, execute it functionally
 * (checked by App::verify against the app's reference kernel), map it
 * onto the Table II machine, and model its throughput — everything the
 * table/figure benches need, in one call.
 */

#ifndef REVET_APPS_HARNESS_HH
#define REVET_APPS_HARNESS_HH

#include "apps/apps.hh"
#include "core/revet.hh"
#include "graph/resources.hh"
#include "sim/perf.hh"

namespace revet
{
namespace apps
{

struct AppRun
{
    graph::ResourceReport resources;
    graph::ExecStats stats;
    sim::PerfResult perf;     ///< modeled vRDA throughput
    sim::PerfResult perfD;    ///< ideal DRAM
    sim::PerfResult perfSN;   ///< ideal SRAM + network
    sim::PerfResult perfSND;  ///< ideal everything
    uint64_t accountedBytes = 0;
    bool verified = false;
    std::string verifyError;
};

/** Compile + run + verify + map + model @p app at @p scale. */
AppRun runApp(const App &app, int scale,
              const CompileOptions &copts = {},
              const graph::ResourceOptions &ropts = {},
              const sim::MachineConfig &machine = {},
              bool aurochs_mode = false);

} // namespace apps
} // namespace revet

#endif // REVET_APPS_HARNESS_HH
