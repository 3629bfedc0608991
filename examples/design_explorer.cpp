/**
 * @file
 * Design-space explorer: the tool an architect would use to size a
 * PipeLayer deployment for a given network.
 *
 * Usage:
 *   ./build/examples/design_explorer [network] [lambda] [batch]
 *                                    [--stats] [--timeline]
 *
 *   network     one of Mnist-A/B/C, Mnist-0, AlexNet, VGG-A..VGG-E
 *               (default VGG-A)
 *   lambda      granularity scale (default 1.0)
 *   batch       training batch size B (default 64)
 *   --stats        also dump machine-readable stats lines
 *   --timeline     also render the Fig.-6-style pipeline chart
 *   --budget=MM2   ignore lambda; auto-tune the granularity to the
 *                  given area budget (the paper's §5.2 compiler path)
 *   --threads=N    host threads for the functional hot loops
 *                  (overrides PL_THREADS; 1 = serial)
 *
 * Prints the per-layer mapping (G, tiles, arrays, buffer entries),
 * the aggregate array/area budget, and simulated testing/training
 * performance against the GPU baseline.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "arch/granularity.hh"
#include "arch/mapping.hh"
#include "arch/pipeline.hh"
#include "baseline/gpu_model.hh"
#include "common/args.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "reram/params_io.hh"
#include "sim/simulator.hh"
#include "workloads/model_zoo.hh"

int
main(int argc, char **argv)
{
    using namespace pipelayer;

    const ArgParser args(argc, argv);
    args.rejectUnknown({"stats", "timeline", "budget", "device",
                        "threads"});
    if (args.flag("threads")) {
        try {
            setThreadCount(
                parseThreadCount(args.str("threads"), "--threads"));
        } catch (const ConfigError &err) {
            std::cerr << "design_explorer: " << err.what() << "\n";
            return 1;
        }
    }
    const std::string name = args.positional(0, "VGG-A");
    const double lambda =
        args.positionalCount() > 1
            ? std::atof(args.positional(1).c_str())
            : 1.0;
    const int64_t batch =
        args.positionalCount() > 2
            ? std::atoll(args.positional(2).c_str())
            : 64;

    const workloads::NetworkSpec spec = workloads::networkByName(name);
    // --device=FILE loads calibration overrides (see DESIGN.md §5).
    const std::string device_file = args.str("device");
    reram::DeviceParams params = reram::DeviceParams::paperDefault();
    if (!device_file.empty()) {
        try {
            params = reram::loadDeviceParams(device_file);
        } catch (const ConfigError &err) {
            std::cerr << "design_explorer: " << err.what() << "\n";
            return 1;
        }
    }
    // --budget=<mm^2> invokes the §5.2 "optimized by compiler" path:
    // the largest granularity that fits the area budget.
    const double budget = args.number("budget", 0.0);
    const auto g = budget > 0.0
        ? arch::autoTuneGranularity(spec, params, budget,
                                    /*training=*/true, batch)
        : arch::GranularityConfig::balanced(spec).scaled(spec, lambda);
    const arch::NetworkMapping map(spec, g, params, /*training=*/true,
                                   batch);

    std::cout << "=== " << spec.name << " (";
    if (budget > 0.0)
        std::cout << "auto-tuned for " << budget << " mm^2";
    else
        std::cout << "lambda = " << lambda;
    std::cout << ", B = " << batch << ") ===\n\n";

    // ---- Per-layer mapping and cost ---------------------------------
    sim::Simulator layer_sim(spec, params, g);
    const auto layer_report =
        layer_sim.run(sim::Job::training(batch, batch));

    Table layer_table({"stage", "layer", "rows x cols", "G",
                       "steps/cycle", "fwd arrays", "bwd arrays",
                       "buffers", "train latency", "fwd J/img"});
    for (size_t l = 0; l < map.layers().size(); ++l) {
        const auto &m = map.layers()[l];
        const auto &cost = layer_report.per_layer[l];
        layer_table.addRow({
            std::to_string(l),
            m.spec.describe(),
            std::to_string(m.spec.weightRows()) + " x " +
                std::to_string(m.spec.weightCols()),
            std::to_string(m.g),
            std::to_string(m.steps_per_cycle),
            std::to_string(m.forward_arrays),
            std::to_string(m.backward_arrays),
            std::to_string(map.bufferEntriesAt(l)),
            formatTime(cost.training_latency),
            formatEnergy(cost.forward_energy),
        });
    }
    layer_table.print(std::cout);

    std::cout << "\npipeline depth L     : " << map.depth() << "\n";
    std::cout << "morphable subarrays  : " << map.morphableArrays()
              << " (incl. " << map.derivativeArrays()
              << " derivative arrays)\n";
    std::cout << "memory buffer entries: "
              << map.memoryBufferEntries(true) << " (pipelined), "
              << map.memoryBufferEntries(false) << " (non-pipelined)\n";
    std::cout << "area                 : " << map.areaMm2() << " mm^2\n";
    std::cout << "logical cycle time   : " << formatTime(map.cycleTime())
              << " (testing)\n\n";

    // ---- Simulated performance vs GPU ------------------------------
    const baseline::GpuModel gpu;
    const sim::Simulator simulator(spec, params, g);
    Table perf({"phase", "GPU time/img", "PipeLayer time/img", "speedup",
                "GPU J/img", "PipeLayer J/img", "energy saving"});
    for (const bool training : {false, true}) {
        const auto cost =
            training ? gpu.training(spec) : gpu.testing(spec);
        const sim::Job job =
            training ? sim::Job::training(batch, 4 * batch)
                     : sim::Job::testing(4 * batch);
        const auto report = simulator.run(job);
        perf.addRow({training ? "train" : "test",
                     formatTime(cost.time_per_image),
                     formatTime(report.time_per_image),
                     Table::num(cost.time_per_image /
                                    report.time_per_image, 2),
                     formatEnergy(cost.energy_per_image),
                     formatEnergy(report.energy_per_image),
                     Table::num(cost.energy_per_image /
                                    report.energy_per_image, 2)});
        if (args.flag("stats")) {
            std::cout << "\n";
            report.dumpStats(std::cout);
        }
    }
    perf.print(std::cout);

    if (args.flag("timeline")) {
        std::cout << "\npipelined training schedule (Fig. 6 view, "
                     "first cycles):\n\n";
        arch::ScheduleConfig sched;
        sched.pipelined = true;
        sched.training = true;
        sched.batch_size = std::min<int64_t>(batch, 8);
        sched.num_images = std::min<int64_t>(batch, 8);
        arch::PipelineScheduler scheduler(map.depth(), sched);
        std::cout << scheduler.renderTimeline(60);
    }
    return 0;
}
