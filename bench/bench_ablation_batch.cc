/**
 * @file
 * Ablation: batch-size sensitivity of the training pipeline.
 *
 * The paper's Fig. 7(b) analysis implies a batch of B images costs
 * 2L + B + 1 logical cycles, so pipeline utilisation B/(2L+B+1)
 * approaches 1 for large batches and collapses for B = 1 (every
 * input serialised).  This harness sweeps B for a shallow and a deep
 * network and prints measured cycles/image, utilisation and the
 * speedup over non-pipelined execution — quantifying the paper's
 * claim that "the performance gain is due to the fact that B is
 * normally much larger than 1".
 */

#include <iostream>
#include <vector>

#include "arch/granularity.hh"
#include "arch/mapping.hh"
#include "arch/pipeline.hh"
#include "bench/bench_util.hh"
#include "workloads/model_zoo.hh"

int
main(int argc, char **argv)
{
    using namespace pipelayer;

    return bench::Runner::main(
        "ablation_batch", argc, argv, {},
        [](bench::Runner &r) {
        const std::vector<int64_t> batches = {1, 2, 4, 8, 16, 32, 64,
                                              128, 256};
        std::cout << "Ablation: training-pipeline utilisation vs "
                     "batch size B (N = 512 images)\n\n";

        json::Value &res = r.result();
        const reram::DeviceParams params;
        for (const auto &spec :
             {workloads::mnistO(), workloads::vggE()}) {
            std::cout << spec.name << " (L = " << spec.pipelineDepth()
                      << ")\n";
            Table table({"B", "pipelined cycles", "cycles/image",
                         "utilisation", "speedup vs non-pipelined",
                         "formula (N/B)(2L+B+1)"});
            const auto g = arch::GranularityConfig::balanced(spec);
            for (int64_t b : batches) {
                const arch::NetworkMapping map(spec, g, params, true,
                                               b);
                arch::ScheduleConfig config;
                config.training = true;
                config.batch_size = b;
                config.num_images = 512;

                config.pipelined = true;
                const auto piped =
                    arch::PipelineScheduler(map.depth(), config).run();
                config.pipelined = false;
                const auto serial =
                    arch::PipelineScheduler(map.depth(), config).run();

                table.addRow(
                    {std::to_string(b),
                     std::to_string(piped.total_cycles),
                     Table::num(static_cast<double>(
                                    piped.total_cycles) /
                                    512.0,
                                2),
                     Table::num(piped.stage_utilization, 3),
                     Table::num(static_cast<double>(
                                    serial.total_cycles) /
                                    static_cast<double>(
                                        piped.total_cycles),
                                2),
                     std::to_string(
                         arch::PipelineScheduler::
                             analyticTrainingCycles(
                                 spec.pipelineDepth(), 512, b,
                                 true))});
            }
            r.print(table);
            res[spec.name] = table.toJson();
            std::cout << "\n";
        }
        std::cout << "paper reference: within a batch a new input "
                     "enters every cycle; a new batch waits for the "
                     "previous one to drain plus one update cycle\n";
        return 0;
        });
}
