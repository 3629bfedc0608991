/**
 * @file
 * Determinism and equivalence tests for the multi-chip scale-out
 * layer (DESIGN.md §9): a 1-chip arch::Cluster must be byte-identical
 * to the bare single-chip machinery (including the committed Fig. 6
 * golden trace), a multi-chip run must be byte-identical at any
 * PL_THREADS, uneven shards must be rejected with a typed
 * ConfigError, and core::ClusterTrainer must preserve the training
 * semantics (1-chip bit-exact to PipelinedTrainer, C-chip weight
 * averaging tracking sequential batch SGD).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/cluster.hh"
#include "arch/granularity.hh"
#include "arch/mapping.hh"
#include "arch/pipeline.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/trace.hh"
#include "support/cluster_trainer.hh"
#include "core/pipelined_trainer.hh"
#include "nn/layers.hh"
#include "sim/job.hh"
#include "sim/simulator.hh"
#include "workloads/layer_spec.hh"
#include "workloads/model_zoo.hh"

namespace pipelayer {
namespace {

/** Restores the worker-thread count on scope exit. */
class ScopedThreads
{
  public:
    ScopedThreads() : saved_(threadCount()) {}
    ~ScopedThreads() { setThreadCount(saved_); }

  private:
    int64_t saved_;
};

/** The bench_fig6_timeline network: 3 x innerProduct(32, 32). */
workloads::NetworkSpec
fig6Spec()
{
    workloads::NetworkSpec spec;
    spec.name = "fig3-chain";
    for (int64_t i = 0; i < 3; ++i)
        spec.layers.push_back(workloads::LayerSpec::innerProduct(32, 32));
    return spec;
}

/** The bench_fig6_timeline schedule: pipelined training, B=6, N=12. */
arch::ScheduleConfig
fig6Schedule()
{
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 6;
    config.num_images = 12;
    return config;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** TraceRecorder::writeFile's exact byte stream, in memory. */
std::string
traceBytes(const trace::TraceRecorder &recorder)
{
    std::ostringstream os;
    recorder.toJson().write(os, /*indent=*/1);
    os << "\n";
    return os.str();
}

// ---------------------------------------------------------------------
// arch::Cluster
// ---------------------------------------------------------------------

TEST(Cluster, OneChipTraceMatchesFig6GoldenAtAnyThreads)
{
    // The acceptance bar: a 1-chip cluster's trace byte-compares
    // clean against the committed single-chip golden, at one worker
    // thread and at four.
    ScopedThreads restore;
    const std::string golden = readFile(
        std::string(PL_SOURCE_DIR) +
        "/tests/goldens/fig6_timeline.trace.json");
    ASSERT_FALSE(golden.empty());

    const workloads::NetworkSpec spec = fig6Spec();
    const reram::DeviceParams params;
    const auto g = arch::GranularityConfig::naive(spec);
    const arch::NetworkMapping map(spec, g, params, true, 6);

    for (int64_t threads : {int64_t{1}, int64_t{4}}) {
        setThreadCount(threads);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        trace::TraceRecorder recorder("pipelayer-fig6");
        arch::Cluster cluster(map.depth(), fig6Schedule(), /*num_chips=*/1,
                              arch::InterconnectConfig{}, /*payload=*/0,
                              /*cycle_time_s=*/0.0);
        cluster.setTrace(&recorder);
        const arch::ClusterStats stats = cluster.run();
        EXPECT_EQ(stats.num_chips, 1);
        EXPECT_EQ(stats.aggregation_rounds, 0);
        EXPECT_EQ(stats.total_cycles, stats.chip_cycles);
        EXPECT_EQ(traceBytes(recorder), golden);
    }
}

TEST(Cluster, OneChipStatsMatchDirectScheduler)
{
    ScopedThreads restore;
    const workloads::NetworkSpec spec = fig6Spec();
    const reram::DeviceParams params;
    const auto g = arch::GranularityConfig::naive(spec);
    const arch::NetworkMapping map(spec, g, params, true, 6);
    const arch::ScheduleConfig config = fig6Schedule();

    arch::PipelineScheduler direct(map.depth(), config);
    const std::string want = direct.run().toJson().dump();

    for (int64_t threads : {int64_t{1}, int64_t{4}}) {
        setThreadCount(threads);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        arch::Cluster cluster(map.depth(), config, 1,
                              arch::InterconnectConfig{}, 0, 0.0);
        const arch::ClusterStats stats = cluster.run();
        ASSERT_EQ(stats.per_chip.size(), 1u);
        EXPECT_EQ(stats.per_chip[0].toJson().dump(), want);
        EXPECT_EQ(stats.chip_cycles, stats.per_chip[0].total_cycles);
    }
}

TEST(Cluster, BadInputsRejectedWithConfigError)
{
    const arch::ScheduleConfig config = fig6Schedule(); // B=6, N=12
    const arch::InterconnectConfig link;
    EXPECT_NO_THROW(arch::Cluster(3, config, 1, link, 0, 0.0));

    // A pipeline needs at least one stage, and a cluster one chip.
    EXPECT_THROW(arch::Cluster(0, config, 1, link, 0, 0.0), ConfigError);
    EXPECT_THROW(arch::Cluster(3, config, 0, link, 0, 0.0), ConfigError);

    arch::InterconnectConfig slowlink;
    slowlink.link_bytes_per_s = 0.0;
    EXPECT_THROW(slowlink.validate(), ConfigError);
    EXPECT_THROW(arch::Cluster(3, config, 2, slowlink, 0, 1.0),
                 ConfigError);

    EXPECT_THROW(arch::Cluster(3, config, 1, link, -1, 0.0), ConfigError);
    // Aggregation seconds need a cycle time to become cycles.
    EXPECT_THROW(arch::Cluster(3, config, 2, link, 0, 0.0), ConfigError);
}

TEST(Cluster, RoundCostFollowsTopologyFormulas)
{
    arch::InterconnectConfig cfg; // ring defaults
    const arch::InterconnectCost ring =
        arch::aggregationRoundCost(cfg, 4, 1000);
    // 2(C-1) * C * ceil(W/C) = 6 * 4 * 250.
    EXPECT_EQ(ring.wire_bytes, 6000);
    EXPECT_DOUBLE_EQ(ring.energy_j,
                     6000.0 * cfg.link_energy_per_byte_j);

    cfg.topology = arch::Topology::ParameterServer;
    const arch::InterconnectCost ps =
        arch::aggregationRoundCost(cfg, 4, 1000);
    EXPECT_EQ(ps.wire_bytes, 2 * 4 * 1000);

    // 1 chip or an empty payload costs nothing.
    EXPECT_EQ(arch::aggregationRoundCost(cfg, 1, 1000).wire_bytes, 0);
    EXPECT_EQ(arch::aggregationRoundCost(cfg, 4, 0).wire_bytes, 0);
}

// ---------------------------------------------------------------------
// sim::Simulator::runCluster
// ---------------------------------------------------------------------

sim::Job
mnistClusterJob(int64_t chips)
{
    sim::Job job;
    job.network = "Mnist-A";
    job.phase = sim::Phase::Training;
    job.pipelined = true;
    job.batch_size = 64;
    job.num_images = 256;
    job.num_chips = chips;
    return job;
}

TEST(SimCluster, OneChipReportMatchesSingleChipRun)
{
    ScopedThreads restore;
    const workloads::NetworkSpec spec =
        workloads::networkByName("Mnist-A");
    const reram::DeviceParams params;
    const sim::Simulator simulator(spec, params);

    const sim::Job job = mnistClusterJob(1);
    const std::string want = simulator.run(job).toJson().dump();
    for (int64_t threads : {int64_t{1}, int64_t{4}}) {
        setThreadCount(threads);
        SCOPED_TRACE("threads=" + std::to_string(threads));
        const sim::ClusterReport rep = simulator.runCluster(job);
        ASSERT_EQ(rep.chips.size(), 1u);
        EXPECT_EQ(rep.chips[0].toJson().dump(), want);
        EXPECT_EQ(rep.total_cycles, rep.sched.chip_cycles);
        EXPECT_EQ(rep.sched.aggregation_cycles, 0);
    }
}

TEST(SimCluster, FourChipReportAndTraceByteIdenticalAcrossThreads)
{
    ScopedThreads restore;
    const workloads::NetworkSpec spec =
        workloads::networkByName("Mnist-A");
    const reram::DeviceParams params;
    const sim::Simulator simulator(spec, params);
    const sim::Job job = mnistClusterJob(4);

    std::string report[2];
    std::string trace[2];
    int i = 0;
    for (int64_t threads : {int64_t{1}, int64_t{4}}) {
        setThreadCount(threads);
        trace::TraceRecorder recorder("pipelayer-cluster");
        const sim::ClusterReport rep =
            simulator.runCluster(job, &recorder);
        EXPECT_EQ(rep.config.num_chips, 4);
        ASSERT_EQ(rep.chips.size(), 4u);
        EXPECT_GT(rep.sched.aggregation_rounds, 0);
        EXPECT_GT(rep.sched.wire_bytes, 0);
        report[i] = rep.toJson().dump();
        trace[i] = traceBytes(recorder);
        ++i;
    }
    EXPECT_EQ(report[0], report[1]);
    EXPECT_EQ(trace[0], trace[1]);

    // Sharding must actually shrink the schedule: 4 chips beat 1
    // even with the aggregation cycles stacked on top.
    setThreadCount(1);
    const sim::ClusterReport one =
        simulator.runCluster(mnistClusterJob(1));
    const sim::ClusterReport four = simulator.runCluster(job);
    EXPECT_LT(four.total_cycles, one.total_cycles);
}

TEST(SimCluster, UnevenJobShardRejected)
{
    const workloads::NetworkSpec spec =
        workloads::networkByName("Mnist-A");
    const reram::DeviceParams params;
    const sim::Simulator simulator(spec, params);

    sim::Job job = mnistClusterJob(3); // 3 does not divide 64
    EXPECT_THROW(simulator.runCluster(job), ConfigError);
    job.num_chips = 0;
    EXPECT_THROW(simulator.runCluster(job), ConfigError);

    // The fig6 shape, B = 6 and N = 12, on 4 chips and on 0.
    sim::Job fig6 = sim::Job::training(6, 12);
    fig6.num_chips = 4;
    EXPECT_THROW(fig6.validate(), ConfigError);
    fig6.num_chips = 0;
    EXPECT_THROW(fig6.validate(), ConfigError);

    // Batch divides but the image volume does not: chips would fall
    // out of lock-step on the last batch.  (Testing, so the training
    // rule B | N is not what rejects it.)
    sim::Job uneven = sim::Job::testing(7);
    uneven.batch_size = 2;
    uneven.num_chips = 2;
    EXPECT_THROW(uneven.validate(), ConfigError);
    EXPECT_THROW(simulator.runCluster(uneven), ConfigError);

    // An even shard halves both volume knobs.
    sim::Job even = sim::Job::training(8, 16);
    even.num_chips = 2;
    EXPECT_NO_THROW(even.validate());
    const sim::Job s = even.shard();
    EXPECT_EQ(s.batch_size, 4);
    EXPECT_EQ(s.num_images, 8);
    EXPECT_EQ(s.num_chips, 1);
}

TEST(SimCluster, SingleChipEntryPointsRejectMultiChipJobs)
{
    // A 4-chip job priced by run() would be one chip running the
    // full volume while reporting num_chips = 4; it names runCluster.
    const sim::Simulator simulator(workloads::networkByName("Mnist-A"),
                                   reram::DeviceParams());
    const sim::Job job = mnistClusterJob(4); // B = 64, N = 256
    try {
        simulator.run(job);
        ADD_FAILURE() << "run() accepted a 4-chip job";
    } catch (const ConfigError &err) {
        EXPECT_NE(std::string(err.what()).find("runCluster"),
                  std::string::npos)
            << err.what();
    }
    EXPECT_THROW(simulator.price(job, arch::ScheduleStats()),
                 ConfigError);
    EXPECT_EQ(simulator.runCluster(job).total_cycles, 89);
}

// ---------------------------------------------------------------------
// core::ClusterTrainer
// ---------------------------------------------------------------------

nn::Network
mlp(uint64_t seed, nn::LossKind loss = nn::LossKind::Softmax)
{
    Rng rng(seed);
    nn::Network net("cluster-mlp", {1, 8, 8}, loss);
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(64, 24, rng));
    net.add(std::make_unique<nn::SigmoidLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(24, 4, rng));
    return net;
}

std::pair<std::vector<Tensor>, std::vector<int64_t>>
makeBatch(int64_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Tensor> inputs;
    std::vector<int64_t> labels;
    for (int64_t i = 0; i < n; ++i) {
        Tensor x({1, 8, 8});
        for (int64_t j = 0; j < x.numel(); ++j)
            x.at(j) = static_cast<float>(rng.uniform());
        inputs.push_back(std::move(x));
        labels.push_back(static_cast<int64_t>(rng.uniformInt(4)));
    }
    return {std::move(inputs), std::move(labels)};
}

/** All parameter tensors of @p net flattened into one byte buffer. */
std::vector<float>
snapshotWeights(nn::Network &net)
{
    std::vector<float> out;
    for (size_t l = 0; l < net.numLayers(); ++l) {
        for (Tensor *p : net.layer(l).parameters())
            out.insert(out.end(), p->data(), p->data() + p->numel());
    }
    return out;
}

double
maxParamDiff(nn::Network &a, nn::Network &b)
{
    const std::vector<float> wa = snapshotWeights(a);
    const std::vector<float> wb = snapshotWeights(b);
    EXPECT_EQ(wa.size(), wb.size());
    double worst = 0.0;
    for (size_t i = 0; i < wa.size(); ++i)
        worst = std::max(worst,
                         static_cast<double>(std::fabs(wa[i] - wb[i])));
    return worst;
}

TEST(ClusterTrainer, OneChipBitExactToPipelinedTrainer)
{
    nn::Network solo = mlp(21);
    nn::Network clustered = mlp(21);
    auto [inputs, labels] = makeBatch(12, 22);

    core::PipelinedTrainer trainer(solo);
    const auto want = trainer.trainBatch(inputs, labels, 0.2f);
    core::ClusterTrainer cluster(clustered);
    EXPECT_EQ(cluster.numChips(), 1);
    const auto got = cluster.trainBatch(inputs, labels, 0.2f);

    EXPECT_EQ(got.num_chips, 1);
    EXPECT_EQ(got.logical_cycles, want.logical_cycles);
    EXPECT_DOUBLE_EQ(got.mean_loss, want.mean_loss);
    const std::vector<float> ws = snapshotWeights(solo);
    const std::vector<float> wc = snapshotWeights(clustered);
    ASSERT_EQ(ws.size(), wc.size());
    EXPECT_EQ(0, std::memcmp(ws.data(), wc.data(),
                             ws.size() * sizeof(float)));
}

TEST(ClusterTrainer, TwoChipsDeterministicAcrossThreads)
{
    ScopedThreads restore;
    auto [inputs, labels] = makeBatch(16, 31);

    std::vector<float> weights[2];
    double loss[2] = {0.0, 0.0};
    int i = 0;
    for (int64_t threads : {int64_t{1}, int64_t{4}}) {
        setThreadCount(threads);
        nn::Network master = mlp(30);
        std::vector<nn::Network> replicas;
        replicas.push_back(mlp(99)); // overwritten by the broadcast
        core::ClusterTrainer cluster(master, std::move(replicas));
        EXPECT_EQ(cluster.numChips(), 2);
        const auto result = cluster.trainBatch(inputs, labels, 0.25f);
        EXPECT_EQ(result.num_chips, 2);
        ASSERT_EQ(result.per_chip.size(), 2u);
        weights[i] = snapshotWeights(master);
        loss[i] = result.mean_loss;
        ++i;
    }
    ASSERT_EQ(weights[0].size(), weights[1].size());
    EXPECT_EQ(0, std::memcmp(weights[0].data(), weights[1].data(),
                             weights[0].size() * sizeof(float)));
    EXPECT_DOUBLE_EQ(loss[0], loss[1]);
}

TEST(ClusterTrainer, WeightAverageTracksSequentialSgd)
{
    // mean_c(w - lr*grad_c) = w - lr*mean_c(grad_c): the 2-chip
    // weight average must land where sequential batch SGD lands, up
    // to float accumulation noise.
    nn::Network clustered = mlp(41);
    nn::Network serial = mlp(41);
    auto [inputs, labels] = makeBatch(16, 42);

    std::vector<nn::Network> replicas;
    replicas.push_back(mlp(41));
    core::ClusterTrainer cluster(clustered, std::move(replicas));
    cluster.trainBatch(inputs, labels, 0.3f);
    serial.trainBatch(inputs, labels, 0.3f);
    EXPECT_LT(maxParamDiff(clustered, serial), 1e-4);
}

TEST(ClusterTrainer, UnevenBatchAndTopologyMismatchRejected)
{
    nn::Network master = mlp(51);
    std::vector<nn::Network> replicas;
    replicas.push_back(mlp(52));
    core::ClusterTrainer cluster(master, std::move(replicas));
    auto [inputs, labels] = makeBatch(7, 53); // 7 % 2 != 0
    EXPECT_THROW(cluster.trainBatch(inputs, labels, 0.1f),
                 ConfigError);

    // Replicas must share the master's topology.
    nn::Network other = mlp(54);
    std::vector<nn::Network> wrong;
    {
        Rng rng(55);
        nn::Network small("small", {1, 8, 8});
        small.add(std::make_unique<nn::FlattenLayer>());
        small.add(std::make_unique<nn::InnerProductLayer>(64, 4, rng));
        wrong.push_back(std::move(small));
    }
    EXPECT_THROW(core::ClusterTrainer(other, std::move(wrong)),
                 ConfigError);

    // ... and its loss kind, which seeds every chip's output error.
    nn::Network softmax_master = mlp(56);
    std::vector<nn::Network> l2_replica;
    l2_replica.push_back(mlp(57, nn::LossKind::L2));
    EXPECT_THROW(
        core::ClusterTrainer(softmax_master, std::move(l2_replica)),
        ConfigError);
}

} // namespace
} // namespace pipelayer
