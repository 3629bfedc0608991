/**
 * @file
 * Ablation (extension study): ReRAM device non-idealities.
 *
 * The paper assumes ideal cell programming; real multi-level ReRAM
 * suffers write variation and stuck-at faults, the standard concerns
 * of the follow-on literature.  This harness deploys a trained
 * network onto the functional crossbar model under a sweep of
 * (a) programming-noise sigma and (b) stuck-cell rates, and reports
 * the test accuracy — quantifying how much non-ideality the default
 * 16-bit-over-4-bit-cells weight mapping absorbs.
 */

#include <iostream>
#include <memory>
#include <vector>

#include "bench/bench_util.hh"
#include "common/rng.hh"
#include "core/device.hh"
#include "nn/layers.hh"
#include "nn/trainer.hh"
#include "workloads/synthetic_data.hh"

namespace {

using namespace pipelayer;

/** Small CNN over 1x8x8 inputs with 4 classes. */
nn::Network
makeNet(uint64_t seed)
{
    Rng rng(seed);
    nn::Network net("variation-cnn", {1, 8, 8});
    net.add(std::make_unique<nn::ConvLayer>(1, 4, 3, 1, 1, rng));
    net.add(std::make_unique<nn::ReluLayer>());
    net.add(std::make_unique<nn::MaxPoolLayer>(2));
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(64, 4, rng));
    return net;
}

double
deployedAccuracy(nn::Network &net, const nn::Dataset &test,
                 double noise_sigma, double stuck_rate)
{
    core::PipeLayerConfig config;
    config.training = false;
    config.device.write_noise_sigma = noise_sigma;
    config.device.stuck_at_fault_rate = stuck_rate;
    core::PipeLayerDevice device(config);
    device.Topology_set(net);
    device.Weight_load();
    return device.Test(test).accuracy;
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::Runner::main(
        "ablation_variation", argc, argv, {},
        [](bench::Runner &r) {
        // Train a clean reference network on the host.
        workloads::SyntheticConfig data;
        data.classes = 4;
        data.image_size = 8;
        data.train_per_class = 40;
        data.test_per_class = 15;
        data.noise = 0.25f;
        auto task = workloads::makeSyntheticTask(data);

        nn::Network net = makeNet(11);
        nn::TrainConfig train_config;
        train_config.epochs = 12;
        train_config.batch_size = 8;
        train_config.learning_rate = 0.1f;
        Rng train_rng(5);
        nn::train(net, task.train, train_config, &train_rng);
        const double host_accuracy =
            net.accuracy(task.test.inputs, task.test.labels);
        std::cout << "Ablation: accuracy of a deployed network vs "
                     "device non-idealities\n";
        std::cout << "host float accuracy: " << host_accuracy << "\n\n";
        r.result()["host_accuracy"] = json::Value(host_accuracy);

        std::cout << "(a) programming-noise sigma (fraction of full "
                     "conductance range)\n";
        Table noise_table({"sigma", "deployed accuracy"});
        for (double sigma : {0.0, 0.01, 0.02, 0.05, 0.1, 0.2}) {
            noise_table.addRow(
                {Table::num(sigma, 2),
                 Table::num(deployedAccuracy(net, task.test, sigma,
                                             0.0),
                            3)});
        }
        r.print(noise_table);
        r.result()["write_noise"] = noise_table.toJson();

        std::cout << "\n(b) stuck-at-fault rate (fraction of cells "
                     "frozen at an extreme)\n";
        Table saf_table({"fault rate", "deployed accuracy"});
        for (double rate : {0.0, 0.001, 0.005, 0.01, 0.05, 0.1}) {
            saf_table.addRow(
                {Table::num(rate, 3),
                 Table::num(deployedAccuracy(net, task.test, 0.0,
                                             rate),
                            3)});
        }
        r.print(saf_table);
        r.result()["stuck_at_faults"] = saf_table.toJson();

        std::cout << "\nexpectation: accuracy degrades monotonically; "
                     "stuck cells hurt more than write noise because "
                     "a stuck MSB-slice cell perturbs a weight by up "
                     "to 15/16 of full scale\n";
        return 0;
        });
}
