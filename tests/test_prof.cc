/**
 * @file
 * Tests of the host-side profiler (common/prof.hh): histogram
 * binning, scope aggregation, the on/off gate, thread-pool
 * utilization, and the determinism contract — site call counts are a
 * function of the executed workload only, identical at any
 * PL_THREADS setting (PR: host-side profiler + benchmark regression
 * harness).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/parallel.hh"
#include "common/prof.hh"
#include "common/rng.hh"
#include "core/pipelined_trainer.hh"
#include "nn/layers.hh"
#include "reram/crossbar.hh"
#include "sim/simulator.hh"
#include "support/one_window.hh"
#include "tensor/ops.hh"
#include "workloads/layer_spec.hh"

namespace pipelayer {
namespace {

// ---------------------------------------------------------------------
// Histogram binning
// ---------------------------------------------------------------------

TEST(ProfBucket, ZeroDurationGetsBucketZero)
{
    EXPECT_EQ(prof::bucketFor(0), 0);
}

TEST(ProfBucket, ExactPowersOfTwoStartNewBuckets)
{
    // Bucket b covers [2^(b-1), 2^b): a power of two is the first
    // duration of its bucket, and one less is the last of the
    // previous one.
    EXPECT_EQ(prof::bucketFor(1), 1);
    EXPECT_EQ(prof::bucketFor(2), 2);
    EXPECT_EQ(prof::bucketFor(3), 2);
    EXPECT_EQ(prof::bucketFor(4), 3);
    EXPECT_EQ(prof::bucketFor(7), 3);
    EXPECT_EQ(prof::bucketFor(8), 4);
    for (int k = 1; k < 37; ++k) {
        EXPECT_EQ(prof::bucketFor(uint64_t{1} << k), k + 1) << k;
        EXPECT_EQ(prof::bucketFor((uint64_t{1} << k) - 1), k) << k;
    }
}

TEST(ProfBucket, HugeDurationsLandInOverflowBucket)
{
    const int last = prof::kHistBuckets - 1;
    EXPECT_EQ(prof::bucketFor((uint64_t{1} << 38) - 1), last - 1);
    EXPECT_EQ(prof::bucketFor(uint64_t{1} << 38), last);
    EXPECT_EQ(prof::bucketFor(uint64_t{1} << 50), last);
    EXPECT_EQ(prof::bucketFor(UINT64_MAX), last);
}

// ---------------------------------------------------------------------
// Scope recording + gating
// ---------------------------------------------------------------------

/** Enables profiling for one test; restores off + clean counters. */
class ProfTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        prof::setEnabled(true);
        prof::reset();
    }

    void TearDown() override
    {
        prof::setEnabled(false);
        prof::reset();
    }
};

void
hitSite(int times)
{
    for (int i = 0; i < times; ++i) {
        PL_PROF_SCOPE("test.prof_site");
    }
}

TEST_F(ProfTest, ScopedTimerAggregatesCallsAndHistogram)
{
    hitSite(100);
    const prof::Report report = prof::snapshot();
    const prof::SiteReport *site = report.find("test.prof_site");
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->calls, 100u);
    EXPECT_LE(site->min_ns, site->max_ns);
    EXPECT_GE(site->total_ns, site->max_ns);

    uint64_t hist_total = 0;
    for (uint64_t count : site->hist)
        hist_total += count;
    EXPECT_EQ(hist_total, site->calls);
}

TEST_F(ProfTest, DisabledScopesRecordNothing)
{
    prof::setEnabled(false);
    hitSite(50);
    const prof::Report report = prof::snapshot();
    const prof::SiteReport *site = report.find("test.prof_site");
    // The site stays interned (the static initialiser ran), but no
    // execution was recorded.
    if (site != nullptr) {
        EXPECT_EQ(site->calls, 0u);
    }
}

TEST_F(ProfTest, ResetClearsCountsButKeepsSitesInterned)
{
    hitSite(10);
    prof::reset();
    const prof::Report report = prof::snapshot();
    const prof::SiteReport *site = report.find("test.prof_site");
    ASSERT_NE(site, nullptr);
    EXPECT_EQ(site->calls, 0u);
    EXPECT_EQ(site->total_ns, 0u);
}

TEST_F(ProfTest, ReportJsonMatchesDocumentedSchema)
{
    hitSite(17);
    const json::Value v = prof::snapshot().toJson();
    EXPECT_EQ(v.at("profile_version").asInt(), 1);
    ASSERT_TRUE(v.find("sites"));
    ASSERT_TRUE(v.find("pool"));
    for (const char *key : {"jobs", "chunks", "queue_wait_ns", "workers",
                            "wall_ns", "threads", "efficiency"})
        EXPECT_TRUE(v.at("pool").find(key)) << key;

    bool found = false;
    const json::Value &sites = v.at("sites");
    for (size_t i = 0; i < sites.size(); ++i) {
        const json::Value &s = sites.at(i);
        if (s.at("name").asString() != "test.prof_site")
            continue;
        found = true;
        EXPECT_EQ(s.at("calls").asInt(), 17);
        // Histograms serialise as sparse [bucket, count] pairs whose
        // counts sum to the call count (tools/json_lint checks the
        // same invariant on emitted files).
        int64_t hist_total = 0;
        const json::Value &hist = s.at("hist");
        for (size_t b = 0; b < hist.size(); ++b) {
            ASSERT_EQ(hist.at(b).size(), 2u);
            hist_total += hist.at(b).at(size_t{1}).asInt();
        }
        EXPECT_EQ(hist_total, 17);
    }
    EXPECT_TRUE(found);

    // The report round-trips through the writer/parser.
    EXPECT_TRUE(json::parse(v.dump(1)) == v);
}

// ---------------------------------------------------------------------
// Thread-pool utilization
// ---------------------------------------------------------------------

TEST_F(ProfTest, PoolUtilizationCoversAllChunks)
{
    const int64_t saved = threadCount();
    setThreadCount(4);
    std::vector<double> out(1 << 12);
    auto fill = [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i)
            out[static_cast<size_t>(i)] = 0.5 * static_cast<double>(i);
    };
    // Below the work floor: inline, no job.
    parallel_for(0, static_cast<int64_t>(out.size()), 1, fill);
    EXPECT_EQ(prof::snapshot().pool.jobs, 0u);
    // Above it: one job of one chunk per thread.
    parallel_for(0, static_cast<int64_t>(out.size()), kMinChunkWork,
                 fill);
    setThreadCount(saved);

    const prof::Report report = prof::snapshot();
    EXPECT_EQ(report.pool.jobs, 1u);
    EXPECT_EQ(report.pool.chunks, 4u);
    ASSERT_FALSE(report.pool.workers.empty());
    uint64_t worker_chunks = 0;
    for (const auto &w : report.pool.workers) {
        EXPECT_GE(w.slot, 0);
        EXPECT_LT(w.slot, prof::kMaxPoolSlots);
        worker_chunks += w.chunks;
    }
    EXPECT_EQ(worker_chunks, report.pool.chunks);

    // Efficiency = busy ÷ (wall × threads), in the JSON too.
    EXPECT_GT(report.pool.wall_ns, 0u);
    EXPECT_EQ(report.pool.threads, saved);
    const json::Value pool = report.toJson().at("pool");
    const double efficiency = pool.at("efficiency").asNumber();
    EXPECT_TRUE(std::isfinite(efficiency));
    EXPECT_GT(efficiency, 0.0);
    EXPECT_EQ(efficiency, report.pool.efficiency);
    EXPECT_EQ(pool.at("threads").asInt(), saved);
}

// ---------------------------------------------------------------------
// Count determinism across thread counts
// ---------------------------------------------------------------------

nn::Network
profMlp(uint64_t seed)
{
    Rng rng(seed);
    nn::Network net("prof-mlp", {1, 8, 8});
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(64, 24, rng));
    net.add(std::make_unique<nn::SigmoidLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(24, 4, rng));
    return net;
}

/** A batch of @p n random 1x8x8 images with labels in [0, 4). */
std::pair<std::vector<Tensor>, std::vector<int64_t>>
randomBatch(int64_t n, Rng &rng)
{
    std::vector<Tensor> inputs;
    std::vector<int64_t> labels;
    for (int64_t i = 0; i < n; ++i) {
        Tensor t({1, 8, 8});
        for (int64_t j = 0; j < t.numel(); ++j)
            t.at(j) = static_cast<float>(rng.uniform());
        inputs.push_back(std::move(t));
        labels.push_back(static_cast<int64_t>(rng.uniformInt(4)));
    }
    return {std::move(inputs), std::move(labels)};
}

TEST_F(ProfTest, TrainBatchPostsOneJobPerMinibatch)
{
    // The minibatch's images are the pool job; every tensor op inside
    // an image runs inline on its worker.  A kernel call below the
    // work floor posts nothing either.
    Rng rng(40);
    auto [inputs, labels] = randomBatch(10, rng);
    const int64_t saved = threadCount();
    for (const int64_t threads : {int64_t{4}, int64_t{1}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setThreadCount(threads);
        nn::Network net = profMlp(41);
        prof::reset();
        net.trainBatch(inputs, labels, 0.05f);
        const prof::Report report = prof::snapshot();
        EXPECT_EQ(report.pool.jobs, threads == 1 ? 0u : 1u);
        EXPECT_EQ(report.pool.chunks, threads == 1 ? 0u : 4u);

        prof::reset();
        const Tensor w = Tensor::randn({64, 64}, rng);
        const Tensor x = Tensor::randn({64}, rng);
        (void)ops::matVec(w, x);
        EXPECT_EQ(prof::snapshot().pool.jobs, 0u);
    }
    setThreadCount(saved);
}

/**
 * One fixed workload touching every instrumented hot path: direct
 * tensor ops, a crossbar matVec with spike coding, a pipelined
 * training batch, and an analytical simulator run.
 */
void
runProfWorkload()
{
    Rng rng(99);
    Tensor input({3, 12, 12}), kernel({4, 3, 3, 3}), bias({4});
    for (int64_t i = 0; i < input.numel(); ++i)
        input.at(i) = static_cast<float>(rng.uniform());
    for (int64_t i = 0; i < kernel.numel(); ++i)
        kernel.at(i) = static_cast<float>(rng.uniform());

    const Tensor fwd = ops::conv2d(input, kernel, bias, 1, 1);
    const Tensor back = ops::conv2dBackwardInput(fwd, kernel, 1);
    (void)back;
    const Tensor grad = ops::conv2dBackwardKernel(input, fwd, 3, 3, 1);
    (void)grad;

    Tensor w({6, 5}), x({5}), y({6});
    for (int64_t i = 0; i < w.numel(); ++i)
        w.at(i) = static_cast<float>(rng.uniform());
    const Tensor mv = ops::matVec(w, x);
    const Tensor mvt = ops::matVecT(w, y);
    const Tensor op = ops::outer(x, y);
    (void)mv;
    (void)mvt;
    (void)op;

    const reram::DeviceParams params;
    reram::CrossbarArray array(params);
    array.programCell(0, 0, 3);
    reram::matVecCodesOnce(array, {1, 2, 3}, params.data_bits);

    nn::Network net = profMlp(5);
    core::PipelinedTrainer trainer(net);
    std::vector<Tensor> inputs;
    std::vector<int64_t> labels;
    for (int64_t i = 0; i < 6; ++i) {
        Tensor t({1, 8, 8});
        for (int64_t j = 0; j < t.numel(); ++j)
            t.at(j) = static_cast<float>(rng.uniform());
        inputs.push_back(std::move(t));
        labels.push_back(static_cast<int64_t>(rng.uniformInt(4)));
    }
    trainer.trainBatch(inputs, labels, 0.05f);

    workloads::NetworkSpec spec;
    spec.name = "prof-chain";
    for (int i = 0; i < 3; ++i)
        spec.layers.push_back(workloads::LayerSpec::innerProduct(32, 32));
    const sim::Simulator simulator(spec, reram::DeviceParams());
    simulator.run(sim::Job::training(8, 16));
}

/** Per-site call counts of the workload at @p threads threads. */
std::map<std::string, uint64_t>
workloadCounts(int64_t threads)
{
    const int64_t saved = threadCount();
    setThreadCount(threads);
    prof::reset();
    runProfWorkload();
    const prof::Report report = prof::snapshot();
    setThreadCount(saved);

    std::map<std::string, uint64_t> counts;
    for (const auto &site : report.sites)
        counts[site.name] = site.calls;
    return counts;
}

TEST_F(ProfTest, CallCountsAreIdenticalAcrossThreadCounts)
{
    const auto serial = workloadCounts(1);
    const auto parallel = workloadCounts(4);
    EXPECT_EQ(serial, parallel);

    // Every instrumented hot path of the ISSUE appears with a
    // nonzero count — missing instrumentation fails here, not in a
    // code review.
    for (const char *site :
         {"tensor.conv2d_fwd", "tensor.conv2d_bwd_input",
          "tensor.conv2d_bwd_kernel", "tensor.im2col", "tensor.matvec",
          "tensor.matvect", "tensor.outer", "reram.crossbar_matvec",
          "reram.spike_encode", "trainer.cycle",
          "trainer.cycle_compute", "trainer.cycle_commit", "sim.run"}) {
        const auto it = serial.find(site);
        ASSERT_NE(it, serial.end()) << site;
        EXPECT_GT(it->second, 0u) << site;
    }
}

} // namespace
} // namespace pipelayer
