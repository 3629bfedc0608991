/**
 * @file
 * MNIST-scale end-to-end scenario: the LeNet-style Mnist-0 network
 * of paper Table 3 on a 28x28 synthetic handwriting-like task.
 *
 * Shows the full workflow the paper's intro motivates:
 *  1. train the functional model on the host;
 *  2. deploy the weights onto the accelerator (Weight_load);
 *  3. verify that in-ReRAM inference matches host inference;
 *  4. compare pipelined vs non-pipelined execution and the GPU
 *     baseline for both phases.
 *
 * Run:  ./build/examples/mnist_pipeline
 */

#include <iostream>

#include <cstdio>

#include "baseline/gpu_model.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "core/device.hh"
#include "nn/serialize.hh"
#include "nn/trainer.hh"
#include "workloads/model_zoo.hh"
#include "workloads/synthetic_data.hh"

int
main()
{
    using namespace pipelayer;

    // ---- 1. Host-side training of Mnist-0 --------------------------
    Rng rng(42);
    nn::Network net = workloads::buildMnist0Functional(rng);
    std::cout << "network: " << net.describe() << "\n";
    std::cout << "parameters: " << net.parameterCount() << "\n\n";

    auto task = workloads::makeMnistLikeTask(/*train_per_class=*/20,
                                             /*test_per_class=*/4);
    nn::TrainConfig train_config;
    train_config.epochs = 6;
    train_config.batch_size = 10;
    train_config.learning_rate = 0.1f;
    Rng train_rng(1);
    const auto host = nn::train(net, task.train, train_config, &train_rng);
    std::cout << "host training: loss " << host.epoch_loss.front()
              << " -> " << host.epoch_loss.back() << ", test accuracy "
              << net.accuracy(task.test.inputs, task.test.labels) << "\n";

    // ---- 2./3. Deploy to ReRAM and cross-check ---------------------
    // Persist the trained weights and reload them into a fresh
    // network — the pretrained-weights path of Weight_load (§5.2).
    const std::string weight_path = "/tmp/pipelayer_mnist0.plw";
    nn::saveWeights(net, weight_path);
    Rng fresh_rng(7);
    nn::Network deployed = workloads::buildMnist0Functional(fresh_rng);
    nn::loadWeights(deployed, weight_path);
    std::remove(weight_path.c_str());

    core::PipeLayerConfig config;
    config.training = false; // inference deployment
    core::PipeLayerDevice device(config);
    device.Topology_set(deployed);
    device.Weight_load();

    int agree = 0;
    for (size_t i = 0; i < task.test.size(); ++i) {
        if (device.predict(task.test.inputs[i]) ==
            net.predict(task.test.inputs[i]))
            ++agree;
    }
    std::cout << "in-ReRAM inference agrees with host on " << agree
              << "/" << task.test.size() << " test images\n";
    std::cout << "in-ReRAM test accuracy: "
              << device.Test(task.test).accuracy << "\n\n";

    // ---- 4. Architecture comparison --------------------------------
    const auto spec = workloads::mnistO();
    const baseline::GpuModel gpu;
    Table table({"configuration", "phase", "time/image", "energy/image"});
    for (const bool training : {false, true}) {
        const auto cost =
            training ? gpu.training(spec) : gpu.testing(spec);
        table.addRow({"GPU (GTX 1080 model)", training ? "train" : "test",
                      formatTime(cost.time_per_image),
                      formatEnergy(cost.energy_per_image)});

        sim::Simulator simulator(spec, reram::DeviceParams());
        sim::Job job = training ? sim::Job::training(64, 256)
                                : sim::Job::testing(256);
        for (const bool pipelined : {false, true}) {
            job.pipelined = pipelined;
            const auto report = simulator.run(job);
            table.addRow({pipelined ? "PipeLayer"
                                    : "PipeLayer w/o pipeline",
                          training ? "train" : "test",
                          formatTime(report.time_per_image),
                          formatEnergy(report.energy_per_image)});
        }
        table.addSeparator();
    }
    table.print(std::cout);
    return 0;
}
