/**
 * @file
 * Reproduces paper §6.6 ("Computation Efficiency Results"):
 *
 *   - area of PipeLayer:            82.6 mm^2
 *   - computational efficiency:     1485 GOPS/s/mm^2
 *   - power efficiency:             142.9 GOPS/s/W
 *     (vs DaDianNao 63.46 GOPS/s/mm^2, 286.4 GOPS/s/W and
 *      ISAAC 479.0 GOPS/s/mm^2, 380.7 GOPS/s/W)
 *
 * The paper reports single aggregate numbers; we print the metrics
 * per network and phase for the default configuration, flagging the
 * calibration anchor (VGG-E training), plus the paper's comparison
 * row.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "workloads/model_zoo.hh"

int
main(int argc, char **argv)
{
    using namespace pipelayer;

    return bench::Runner::main(
        "sec66_efficiency", argc, argv, {},
        [](bench::Runner &r) {
        std::cout << "Section 6.6: computation efficiency (default "
                     "granularity, B = 64)\n\n";
        Table table({"network", "phase", "area mm^2", "GOPS/s",
                     "GOPS/s/mm^2", "GOPS/s/W"});

        for (const bool training : {true, false}) {
            for (const auto &spec : workloads::evaluationNetworks()) {
                const sim::Simulator simulator(spec,
                                               reram::DeviceParams());
                const sim::Job job =
                    training ? sim::Job::training(64, 256)
                             : sim::Job::testing(256);
                const auto rep = simulator.run(job);
                table.addRow({spec.name, training ? "train" : "test",
                              Table::num(rep.area_mm2, 1),
                              Table::num(rep.gops_per_s, 0),
                              Table::num(rep.gops_per_s_per_mm2, 1),
                              Table::num(rep.gops_per_w, 1)});
            }
            table.addSeparator();
        }
        r.print(table);
        r.result()["rows"] = table.toJson();

        std::cout
            << "\ncalibration anchor: VGG-E training -> paper reports "
               "area 82.6 mm^2 and power efficiency 142.9 GOPS/s/W\n"
            << "paper comparison row: PipeLayer 1485 GOPS/s/mm^2 / "
               "142.9 GOPS/s/W; DaDianNao 63.46 / 286.4; ISAAC 479.0 "
               "/ 380.7\n"
            << "note: the paper's single computational-efficiency "
               "number sits between our testing and training values; "
               "it mixes phases (see EXPERIMENTS.md)\n";
        return 0;
        });
}
