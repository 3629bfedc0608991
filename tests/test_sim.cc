/**
 * @file
 * Tests of the timing/energy/area simulator: internal consistency,
 * monotonicity properties and the qualitative relations the paper's
 * evaluation depends on.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "sim/simulator.hh"
#include "workloads/model_zoo.hh"

namespace pipelayer {
namespace sim {
namespace {

Job
testingConfig(int64_t images = 256)
{
    Job c;
    c.phase = Phase::Testing;
    c.pipelined = true;
    c.num_images = images;
    return c;
}

Job
trainingConfig(int64_t images = 256, int64_t batch = 64)
{
    Job c;
    c.phase = Phase::Training;
    c.pipelined = true;
    c.batch_size = batch;
    c.num_images = images;
    return c;
}

TEST(Simulator, ReportIsInternallyConsistent)
{
    Simulator simulator(workloads::mnistO(), reram::DeviceParams());
    const SimReport r = simulator.run(testingConfig());
    EXPECT_GT(r.logical_cycles, 0);
    EXPECT_GT(r.cycle_time, 0.0);
    EXPECT_NEAR(r.total_time, r.logical_cycles * r.cycle_time, 1e-12);
    EXPECT_NEAR(r.time_per_image * r.config.num_images, r.total_time,
                1e-12);
    EXPECT_NEAR(r.throughput * r.time_per_image, 1.0, 1e-9);
    EXPECT_GT(r.energy_per_image, 0.0);
    EXPECT_GT(r.area_mm2, 0.0);
    EXPECT_EQ(r.buffer_violations, 0);
    EXPECT_EQ(r.structural_hazards, 0);
}

TEST(Simulator, TestingEnergyHasNoTrainingComponents)
{
    Simulator simulator(workloads::mnistA(), reram::DeviceParams());
    const SimReport r = simulator.run(testingConfig());
    EXPECT_EQ(r.energy.backward_compute, 0.0);
    EXPECT_EQ(r.energy.derivative_compute, 0.0);
    EXPECT_EQ(r.energy.weight_update, 0.0);
    EXPECT_GT(r.energy.forward_compute, 0.0);
    EXPECT_GT(r.energy.buffer_traffic, 0.0);
}

TEST(Simulator, TrainingCostsMoreThanTesting)
{
    Simulator simulator(workloads::mnistO(), reram::DeviceParams());
    const SimReport test = simulator.run(testingConfig());
    const SimReport train = simulator.run(trainingConfig());
    EXPECT_GT(train.time_per_image, test.time_per_image);
    EXPECT_GT(train.energy_per_image, test.energy_per_image);
}

TEST(Simulator, PipelinedBeatsNonPipelined)
{
    Simulator simulator(workloads::mnistC(), reram::DeviceParams());
    Job piped = trainingConfig();
    Job serial = trainingConfig();
    serial.pipelined = false;
    const SimReport a = simulator.run(piped);
    const SimReport b = simulator.run(serial);
    EXPECT_LT(a.total_time, b.total_time);
}

TEST(Simulator, ThroughputIndependentOfNForLargeN)
{
    Simulator simulator(workloads::mnistB(), reram::DeviceParams());
    const SimReport small = simulator.run(testingConfig(512));
    const SimReport large = simulator.run(testingConfig(4096));
    EXPECT_NEAR(small.throughput / large.throughput, 1.0, 0.02);
}

TEST(Simulator, EnergyScalesLinearlyWithImages)
{
    Simulator simulator(workloads::mnistA(), reram::DeviceParams());
    const SimReport a = simulator.run(trainingConfig(128, 64));
    const SimReport b = simulator.run(trainingConfig(256, 64));
    EXPECT_NEAR(b.energy.total() / a.energy.total(), 2.0, 0.01);
}

TEST(Simulator, GranularityScalesThroughput)
{
    const auto spec = workloads::vggA();
    const reram::DeviceParams params;
    const auto base = arch::GranularityConfig::balanced(spec);

    Simulator coarse(spec, params, base.scaled(spec, 0.25));
    Simulator fine(spec, params, base.scaled(spec, 4.0));
    const SimReport a = coarse.run(testingConfig(64));
    const SimReport b = fine.run(testingConfig(64));
    EXPECT_GT(b.throughput, a.throughput);
    EXPECT_GT(b.area_mm2, a.area_mm2);
}

TEST(Simulator, NaiveGranularityMatchesFig4StepCount)
{
    // Fig. 4: with G = 1 the example layer needs #windows sequential
    // inputs; cycle time = windows x 16-slot MVM latency.
    workloads::NetworkSpec spec;
    spec.name = "fig4";
    spec.layers.push_back(
        workloads::LayerSpec::conv(128, 66, 66, 256, 3));
    const reram::DeviceParams params;
    Simulator simulator(spec, params,
                        arch::GranularityConfig::naive(spec));
    const SimReport r = simulator.run(testingConfig(16));
    EXPECT_NEAR(r.cycle_time, 4096 * params.mvmLatency(), 1e-9);
}

TEST(Simulator, MnistCycleTimeHitsSpikeFloor)
{
    // Balanced G fully replicates MNIST-scale MLP layers, so the
    // logical cycle bottoms out at one 16-slot MVM: the latency floor
    // that caps the paper's MNIST speedups near ~46x.
    Simulator simulator(workloads::mnistA(), reram::DeviceParams());
    const reram::DeviceParams params;
    const SimReport r = simulator.run(testingConfig());
    EXPECT_NEAR(r.cycle_time, params.mvmLatency(), 1e-12);
}

TEST(Simulator, TrainingCyclesMatchPaperFormula)
{
    const auto spec = workloads::vggA(); // L = 11
    Simulator simulator(spec, reram::DeviceParams());
    const SimReport r = simulator.run(trainingConfig(256, 64));
    // (N/B)(2L + B + 1) = 4 * (22 + 64 + 1) = 348.
    EXPECT_EQ(r.logical_cycles, 348);
}

TEST(Simulator, AreaIndependentOfImageCount)
{
    Simulator simulator(workloads::vggB(), reram::DeviceParams());
    const SimReport a = simulator.run(trainingConfig(64, 64));
    const SimReport b = simulator.run(trainingConfig(1024, 64));
    EXPECT_DOUBLE_EQ(a.area_mm2, b.area_mm2);
}

TEST(Simulator, PrintMentionsKeyFields)
{
    Simulator simulator(workloads::mnistA(), reram::DeviceParams());
    const SimReport r = simulator.run(testingConfig());
    std::ostringstream os;
    r.print(os);
    EXPECT_NE(os.str().find("Mnist-A"), std::string::npos);
    EXPECT_NE(os.str().find("throughput"), std::string::npos);
    EXPECT_NE(os.str().find("GOPS"), std::string::npos);
}

TEST(Simulator, EfficiencyMetricsArePositiveAndFinite)
{
    for (const auto &spec : workloads::evaluationNetworks()) {
        Simulator simulator(spec, reram::DeviceParams());
        const SimReport r = simulator.run(testingConfig(64));
        EXPECT_GT(r.gops_per_s, 0.0) << spec.name;
        EXPECT_GT(r.gops_per_s_per_mm2, 0.0) << spec.name;
        EXPECT_GT(r.gops_per_w, 0.0) << spec.name;
        EXPECT_TRUE(std::isfinite(r.gops_per_w)) << spec.name;
    }
}

TEST(Simulator, PerLayerBreakdownIsConsistent)
{
    Simulator simulator(workloads::mnistO(), reram::DeviceParams());
    const SimReport r = simulator.run(trainingConfig(128, 32));
    ASSERT_EQ(static_cast<int64_t>(r.per_layer.size()),
              workloads::mnistO().pipelineDepth());

    // Per-layer forward energies, times N, must sum to the total.
    double fwd = 0.0, bwd = 0.0, deriv = 0.0;
    double worst_latency = 0.0;
    for (const auto &cost : r.per_layer) {
        fwd += cost.forward_energy;
        bwd += cost.backward_energy;
        deriv += cost.derivative_energy;
        worst_latency = std::max(worst_latency, cost.training_latency);
        EXPECT_GE(cost.training_latency, cost.forward_latency);
        EXPECT_GT(cost.arrays, 0);
    }
    const double n = 128.0;
    EXPECT_NEAR(fwd * n, r.energy.forward_compute,
                1e-9 * r.energy.forward_compute);
    EXPECT_NEAR(bwd * n, r.energy.backward_compute,
                1e-9 * r.energy.backward_compute);
    EXPECT_NEAR(deriv * n, r.energy.derivative_compute,
                1e-9 * r.energy.derivative_compute);
    // The slowest stage's training latency is the logical cycle time.
    EXPECT_DOUBLE_EQ(worst_latency, r.cycle_time);
}

TEST(Simulator, TestingBreakdownHasNoTrainingCosts)
{
    Simulator simulator(workloads::mnistB(), reram::DeviceParams());
    const SimReport r = simulator.run(testingConfig(64));
    for (const auto &cost : r.per_layer) {
        EXPECT_EQ(cost.backward_energy, 0.0);
        EXPECT_EQ(cost.derivative_energy, 0.0);
        EXPECT_DOUBLE_EQ(cost.training_latency, cost.forward_latency);
    }
}

TEST(Simulator, EnergyBreakdownComponentsSumToTotal)
{
    Simulator simulator(workloads::mnistO(), reram::DeviceParams());
    const SimReport r = simulator.run(trainingConfig(128, 64));
    const EnergyBreakdown &e = r.energy;
    EXPECT_NEAR(e.total(),
                e.forward_compute + e.backward_compute +
                    e.derivative_compute + e.weight_update +
                    e.buffer_traffic + e.controller,
                1e-12);
    EXPECT_GT(e.controller, 0.0);
}

TEST(Simulator, VariationKnobsDoNotChangeTiming)
{
    // Device non-idealities perturb values, not schedules.
    reram::DeviceParams noisy;
    noisy.write_noise_sigma = 0.2;
    noisy.stuck_at_fault_rate = 0.05;
    Simulator clean(workloads::mnistO(), reram::DeviceParams());
    Simulator dirty(workloads::mnistO(), noisy);
    const SimReport a = clean.run(testingConfig(64));
    const SimReport b = dirty.run(testingConfig(64));
    EXPECT_DOUBLE_EQ(a.total_time, b.total_time);
    EXPECT_EQ(a.logical_cycles, b.logical_cycles);
}

TEST(Simulator, DumpStatsEmitsEveryMetric)
{
    Simulator simulator(workloads::mnistA(), reram::DeviceParams());
    const SimReport r = simulator.run(trainingConfig(64, 32));
    std::ostringstream os;
    r.dumpStats(os);
    const std::string out = os.str();
    for (const char *name :
         {"sim.Mnist-A.logical_cycles", "sim.Mnist-A.throughput_img_s",
          "sim.Mnist-A.energy_per_image_j", "sim.Mnist-A.area_mm2",
          "sim.Mnist-A.gops_per_w", "sim.Mnist-A.energy_update_j"}) {
        EXPECT_NE(out.find(name), std::string::npos) << name;
    }
    // Stats format: a '#' comment per line.
    EXPECT_NE(out.find("# images per second"), std::string::npos);
}

TEST(Simulator, DumpStatsValuesMatchReport)
{
    Simulator simulator(workloads::mnistB(), reram::DeviceParams());
    const SimReport r = simulator.run(testingConfig(128));
    std::ostringstream os;
    r.dumpStats(os);
    std::istringstream is(os.str());
    std::string line;
    bool found_cycles = false, found_area = false;
    while (std::getline(is, line)) {
        std::istringstream fields(line);
        std::string name;
        double value;
        fields >> name >> value;
        if (name == "sim.Mnist-B.logical_cycles") {
            EXPECT_DOUBLE_EQ(value,
                             static_cast<double>(r.logical_cycles));
            found_cycles = true;
        } else if (name == "sim.Mnist-B.area_mm2") {
            EXPECT_NEAR(value, r.area_mm2, 1e-6 * r.area_mm2);
            found_area = true;
        }
    }
    EXPECT_TRUE(found_cycles);
    EXPECT_TRUE(found_area);
}

TEST(Simulator, TrainingCycleTimeDominatedByDerivativeWrites)
{
    // For a wide conv network, the serialized d-writes exceed the
    // forward MVM time — the mechanism behind lower training
    // speedups (EXPERIMENTS.md).
    const auto spec = workloads::vggA();
    Simulator simulator(spec, reram::DeviceParams());
    const SimReport test = simulator.run(testingConfig(64));
    const SimReport train = simulator.run(trainingConfig(64, 64));
    EXPECT_GT(train.cycle_time, 3.0 * test.cycle_time);
}

} // namespace
} // namespace sim
} // namespace pipelayer
