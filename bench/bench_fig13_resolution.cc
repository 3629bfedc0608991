/**
 * @file
 * Reproduces paper Figure 13: the trade-off between ReRAM cell
 * resolution and application accuracy.
 *
 * Five networks (M-1, M-2, M-3 multilayer perceptrons; M-C, C-4
 * convolutional networks) are trained *at each resolution* with the
 * analog-master update model of quant/qat.hh (forward/backward at
 * the readable N-bit weights, updates accumulating onto the cell
 * conductances, paper §4.4) on the synthetic task (MNIST is not
 * shipped; see DESIGN.md §2).  Test accuracy normalised to the
 * full-precision run is reported for {float, 8..2} bits.
 *
 * Paper reference shape: the MLPs degrade only slightly at low
 * resolution while the CNNs drop sharply, the deep C-4 collapsing to
 * ~0.2 normalised accuracy.  On our synthetic task the same ordering
 * holds but the collapse point shifts to ~2 bit because the class
 * margins are wider than MNIST's (recorded in EXPERIMENTS.md).
 */

#include <iostream>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "quant/qat.hh"
#include "workloads/model_zoo.hh"
#include "workloads/synthetic_data.hh"

int
main(int argc, char **argv)
{
    using namespace pipelayer;

    return bench::Runner::main(
        "fig13_resolution", argc, argv, {},
        [](bench::Runner &r) {
        workloads::SyntheticConfig data_config;
        data_config.noise = 0.5f; // harder task: tighter class margins
        data_config.train_per_class = 50;
        workloads::SyntheticTask task =
            workloads::makeSyntheticTask(data_config);

        const std::vector<int> bit_widths = {0, 8, 7, 6, 5, 4, 3, 2};

        std::cout << "Figure 13: normalised accuracy vs ReRAM cell "
                     "resolution (trained at each resolution)\n";
        std::cout << "synthetic " << task.config.classes
                  << "-class task, " << task.train.size()
                  << " train / " << task.test.size()
                  << " test images\n\n";

        // The 40 (network, resolution) points are independent but for
        // their data order: each starts from task.train as the
        // previous point's epochs shuffled it, with a fresh Rng(99)
        // per point whose draws do not depend on the data.  Replay
        // those start orders serially, then train the points
        // concurrently; each point's nested trainBatch runs inline.
        constexpr int kNets = 5;
        constexpr int64_t kEpochs = 10;
        struct Point
        {
            int net;
            int bits;
            nn::Dataset train; //!< start order
            double accuracy = 0.0;
        };
        std::vector<Point> points;
        nn::Dataset order = task.train;
        for (int ni = 0; ni < kNets; ++ni) {
            for (int bits : bit_widths) {
                points.push_back({ni, bits, order});
                Rng replay(99);
                for (int64_t e = 0; e < kEpochs; ++e)
                    order.shuffle(replay);
            }
        }

        // C-4 trains far longer than the other networks and the zoo
        // lists it last, so walking the points backwards hands the
        // pool the longest first.
        const auto count = static_cast<int64_t>(points.size());
        ThreadPool::global().run(count, [&](int64_t c) {
            Point &p = points[static_cast<size_t>(count - 1 - c)];
            // Fresh identically-initialised network per resolution.
            Rng build_rng(2024);
            auto nets = workloads::studyNetworks(build_rng);
            nn::Network &net = nets[static_cast<size_t>(p.net)].second;

            quant::QatConfig config;
            config.bits = p.bits;
            config.epochs = kEpochs;
            config.batch_size = 10;
            config.learning_rate = net.name() == "C-4" ? 0.05f : 0.1f;
            Rng train_rng(99);
            p.accuracy = quant::trainQuantized(net, p.train, task.test,
                                               config, train_rng)
                             .test_accuracy;
        });

        std::vector<std::string> header = {"network", "float acc"};
        for (size_t i = 1; i < bit_widths.size(); ++i)
            header.push_back(std::to_string(bit_widths[i]) + "-bit");
        Table table(std::move(header));

        const char *const names[] = {"M-1", "M-2", "M-3", "M-C",
                                     "C-4"};
        for (int ni = 0; ni < kNets; ++ni) {
            std::vector<std::string> row = {names[ni]};
            double float_acc = 0.0;
            for (const Point &p : points) {
                if (p.net != ni)
                    continue;
                if (p.bits == 0) {
                    float_acc = p.accuracy;
                    row.push_back(Table::num(float_acc, 3));
                } else {
                    row.push_back(Table::num(
                        float_acc > 0 ? p.accuracy / float_acc : 0.0, 3));
                }
            }
            table.addRow(std::move(row));
        }

        r.print(table);
        r.result()["rows"] = table.toJson();
        std::cout << "\npaper reference shape: MLPs (M-1/2/3) stay "
                     "near 1.0 at low resolution; CNNs drop sharply, "
                     "the deep C-4 collapsing to ~0.2 (here at 2-bit; "
                     "see EXPERIMENTS.md for the shift)\n";
        return 0;
        });
}
