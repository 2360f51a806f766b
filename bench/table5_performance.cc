/**
 * @file
 * Reproduces paper Table V: throughput of Revet-on-vRDA vs the V100
 * model and the measured host CPU, plus the ideal-DRAM (D), ideal
 * SRAM/network (SN), and ideal-everything (SND) speedups. The geomean
 * Revet/GPU ratio is the paper's headline 3.8x result; area-adjusted it
 * grows by the 4.3x die-size ratio. The CPU column times each app's
 * native reference kernel (apps::App::reference). Exits non-zero if a
 * Revet run or a CPU kernel fails App::verify.
 */

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "apps/harness.hh"
#include "baselines/baselines.hh"
#include "sim/machine.hh"

int
main()
{
    revet::sim::MachineConfig machine;
    revet::baselines::GpuConfig gpu_cfg;
    std::printf("=== Table V: performance (GB/s) and ideal-model "
                "speedups ===\n");
    std::printf("%-11s | %8s %8s | %8s %6s | %8s %6s | %5s %5s %5s | "
                "paper: %7s %6s\n",
                "App", "Revet", "paper", "V100", "x", "CPU", "x", "D",
                "SN", "SND", "Revet", "GPUx");

    double geo_gpu = 1, geo_cpu = 1;
    int n = 0;
    bool ok = true;
    for (const auto &app : revet::apps::allApps()) {
        auto run = revet::apps::runApp(app, 64);
        if (!run.verified) {
            std::printf("FAIL(%s): Revet run fails verify: %s\n",
                        app.name.c_str(), run.verifyError.c_str());
            ok = false;
        }
        double revet = run.perf.gbPerSec;
        double gpu =
            revet::baselines::gpuThroughputGBs(app, 1u << 20, gpu_cfg);
        double cpu = NAN;
        try {
            cpu = revet::baselines::cpuThroughputGBs(app, app.cpuScale);
        } catch (const std::runtime_error &e) {
            std::printf("FAIL(%s): %s\n", app.name.c_str(), e.what());
            ok = false;
        }
        double d = run.perfD.gbPerSec / revet;
        double sn = run.perfSN.gbPerSec / revet;
        double snd = run.perfSND.gbPerSec / revet;
        geo_gpu *= revet / gpu;
        geo_cpu *= revet / cpu;
        ++n;
        std::printf("%-11s | %8.0f %8.0f | %8.1f %6.2f | %8.2f %6.1f | "
                    "%5.2f %5.2f %5.2f | %7.0f %6.2f\n",
                    app.name.c_str(), revet, app.paper.revetGBs, gpu,
                    revet / gpu, cpu, revet / cpu, d, sn, snd,
                    app.paper.revetGBs,
                    app.paper.revetGBs / app.paper.gpuGBs);
    }
    geo_gpu = std::pow(geo_gpu, 1.0 / n);
    geo_cpu = std::pow(geo_cpu, 1.0 / n);
    std::printf("\ngeomean Revet/GPU: %.2fx (paper: 3.81x)   "
                "Revet/CPU: %.1fx (paper: 13.9x)\n",
                geo_gpu, geo_cpu);
    std::printf("area-adjusted Revet/GPU: %.1fx (paper: >16x, "
                "V100 die %.1fx larger)\n",
                geo_gpu * gpu_cfg.areaMM2 / machine.areaMM2,
                gpu_cfg.areaMM2 / machine.areaMM2);
    std::printf("\nNote: CPU numbers are measured on this host; the "
                "paper's Xeon differs in absolute terms.\n");
    return ok ? 0 : 1;
}
