/**
 * @file
 * Reproduces paper Figure 17 (speedup vs parallelism granularity) and
 * Table 5 (default per-layer G of the VGG networks).
 *
 * The per-layer default granularity is scaled by
 * λ ∈ {0, 0.25, 0.5, 1, 2, 4, ∞}; λ = 0 forces G = 1 everywhere and
 * λ = ∞ the per-layer maximum.  Paper reference: speedup (testing,
 * vs GPU) increases monotonically with λ.
 */

#include <cmath>
#include <iostream>
#include <vector>

#include "arch/granularity.hh"
#include "baseline/gpu_model.hh"
#include "bench/bench_util.hh"
#include "workloads/model_zoo.hh"

int
main(int argc, char **argv)
{
    using namespace pipelayer;

    return bench::Runner::main(
        "fig17_granularity", argc, argv, {},
        [](bench::Runner &r) {
        // ---- Table 5: default granularity per conv layer ----------
        std::cout << "Table 5: default parallelism granularity G per "
                     "array layer (balanced configuration)\n\n";
        json::Value &res = r.result();
        json::Value defaults = json::Value::object();
        for (const auto &spec : workloads::vggNetworks()) {
            const auto g = arch::GranularityConfig::balanced(spec);
            std::cout << "  " << spec.name << ": " << g.toString()
                      << "\n";
            defaults[spec.name] = json::Value(g.toString());
        }
        res["table5_granularity"] = std::move(defaults);

        // ---- Figure 17: speedup vs lambda --------------------------
        const std::vector<double> lambdas = {0.0, 0.25, 0.5, 1.0, 2.0,
                                             4.0, 1e18};
        std::cout << "\nFigure 17: testing speedup over GPU vs "
                     "granularity scale lambda\n\n";
        std::vector<std::string> header = {"network"};
        for (double l : lambdas) {
            header.push_back(l > 1e9 ? std::string("inf")
                                     : Table::num(l, 2));
        }
        Table table(std::move(header));

        const baseline::GpuModel gpu;
        for (const auto &spec : workloads::vggNetworks()) {
            const double gpu_time = gpu.testing(spec).time_per_image;
            const auto base = arch::GranularityConfig::balanced(spec);
            std::vector<std::string> row = {spec.name};
            for (double lambda : lambdas) {
                const auto g = base.scaled(spec, lambda);
                const sim::Simulator simulator(
                    spec, reram::DeviceParams(), g);
                const auto report =
                    simulator.run(sim::Job::testing(64));
                row.push_back(
                    Table::num(gpu_time / report.time_per_image, 2));
            }
            table.addRow(std::move(row));
        }
        r.print(table);
        res["fig17_rows"] = table.toJson();
        std::cout << "\npaper reference: speedup increases "
                     "monotonically with lambda for every VGG "
                     "network\n";
        return 0;
        });
}
