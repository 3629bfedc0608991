/**
 * @file
 * Tests of the serving subsystem: arrival-trace generation and
 * replay, the Job description / execution split, and the
 * admission/coalescing/backpressure policy of sim::ServingSim —
 * including the determinism contract (byte-identical reports across
 * worker-thread counts) that lets CI gate serving latency metrics.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/isa.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "sim/arrival.hh"
#include "sim/job.hh"
#include "sim/serving.hh"
#include "workloads/model_zoo.hh"

namespace pipelayer {
namespace sim {
namespace {

// ---------------------------------------------------------------------
// ArrivalTrace

TEST(ArrivalTrace, FixedReproducesBackToBackAndSpacedSchedules)
{
    const ArrivalTrace dense = ArrivalTrace::fixed(4, 1);
    EXPECT_EQ(dense.cycles(), (std::vector<int64_t>{0, 1, 2, 3}));
    const ArrivalTrace spaced = ArrivalTrace::fixed(4, 16);
    EXPECT_EQ(spaced.cycles(), (std::vector<int64_t>{0, 16, 32, 48}));
}

TEST(ArrivalTrace, GeneratorsAreSeedDeterministic)
{
    EXPECT_EQ(ArrivalTrace::poisson(256, 0.25, 7),
              ArrivalTrace::poisson(256, 0.25, 7));
    EXPECT_NE(ArrivalTrace::poisson(256, 0.25, 7),
              ArrivalTrace::poisson(256, 0.25, 8));
    EXPECT_EQ(ArrivalTrace::uniform(256, 1, 9, 7),
              ArrivalTrace::uniform(256, 1, 9, 7));
    EXPECT_EQ(ArrivalTrace::bursty(256, 8, 12, 7),
              ArrivalTrace::bursty(256, 8, 12, 7));
}

TEST(ArrivalTrace, TracesValidateAndBurstsShareCycles)
{
    for (const ArrivalTrace &t :
         {ArrivalTrace::poisson(512, 0.5, 1),
          ArrivalTrace::uniform(512, 0, 7, 1),
          ArrivalTrace::bursty(512, 16, 24, 1)}) {
        EXPECT_NO_THROW(t.validate());
        EXPECT_EQ(t.size(), 512);
        EXPECT_EQ(t.cycles().front(), 0);
    }
    // A burst is same-cycle arrivals by construction.
    const ArrivalTrace bursts = ArrivalTrace::bursty(32, 4, 10, 1);
    EXPECT_EQ(bursts.cycles()[0], bursts.cycles()[3]);
    EXPECT_LT(bursts.cycles()[3], bursts.cycles()[4]);
}

TEST(ArrivalTrace, JsonRoundTripsEveryKind)
{
    for (const ArrivalTrace &t :
         {ArrivalTrace::fixed(64, 3),
          ArrivalTrace::poisson(64, 0.125, 11),
          ArrivalTrace::uniform(64, 2, 5, 11),
          ArrivalTrace::bursty(64, 8, 6, 11),
          ArrivalTrace::replay({0, 0, 3, 9, 9, 40})}) {
        const ArrivalTrace back = ArrivalTrace::fromJson(t.toJson());
        EXPECT_EQ(back, t) << t.describe();
        EXPECT_EQ(back.toJson().dump(), t.toJson().dump())
            << t.describe();
    }
}

/** @p parse must throw a ConfigError whose message names @p field. */
template <typename Parse>
void
expectConfigErrorNaming(Parse parse, const std::string &field)
{
    try {
        parse();
        ADD_FAILURE() << "accepted; expected a ConfigError naming "
                      << field;
    } catch (const ConfigError &err) {
        EXPECT_NE(std::string(err.what()).find(field), std::string::npos)
            << err.what();
    }
}

TEST(ArrivalTrace, RejectsBadDescriptions)
{
    EXPECT_THROW(ArrivalTrace::fixed(-1, 1), ConfigError);
    EXPECT_THROW(ArrivalTrace::fixed(4, 0), ConfigError);
    EXPECT_THROW(ArrivalTrace::poisson(4, 0.0, 1), ConfigError);
    EXPECT_THROW(ArrivalTrace::uniform(4, 5, 2, 1), ConfigError);
    EXPECT_THROW(ArrivalTrace::bursty(4, 0, 8, 1), ConfigError);
    EXPECT_THROW(ArrivalTrace::bursty(4, 2, 0, 1), ConfigError);
    EXPECT_THROW(ArrivalTrace::replay({3, 1}), ConfigError);
    EXPECT_THROW(ArrivalTrace::replay({-1, 2}), ConfigError);
    EXPECT_THROW(ArrivalTrace::fromJson(json::parse("{}")), ConfigError);
    EXPECT_THROW(
        ArrivalTrace::fromJson(json::parse("{\"kind\": \"laplace\"}")),
        ConfigError);
    // Integer fields are exact: nothing is rounded or wrapped.
    expectConfigErrorNaming(
        [] {
            ArrivalTrace::fromJson(json::parse(
                R"({"kind": "replay", "cycles": [0, 2.5]})"));
        },
        "replay cycle 1");
    expectConfigErrorNaming(
        [] {
            ArrivalTrace::fromJson(json::parse(
                R"({"kind": "replay", "cycles": [1e300]})"));
        },
        "replay cycle 0");
    expectConfigErrorNaming(
        [] {
            ArrivalTrace::fromJson(json::parse(
                R"({"kind": "fixed", "num_requests": 3.5, "interval": 2})"));
        },
        "'num_requests'");
}

// ---------------------------------------------------------------------
// Job: the description / execution split

TEST(Job, JsonSchemaIsPinned)
{
    // The wire schema is a compatibility contract (docs/serving.md,
    // tools/json_lint): changing it is an API break and must be a
    // deliberate, versioned decision — hence a golden-string test.
    Job job;
    job.network = "Mnist-A";
    job.num_images = 256;
    EXPECT_EQ(job.toJson().dump(),
              "{\"job_version\":1,\"network\":\"Mnist-A\","
              "\"phase\":\"testing\",\"pipelined\":true,"
              "\"batch_size\":64,\"num_images\":256}");

    job.arrivals = ArrivalTrace::fixed(256, 4);
    EXPECT_EQ(job.toJson().dump(),
              "{\"job_version\":1,\"network\":\"Mnist-A\","
              "\"phase\":\"testing\",\"pipelined\":true,"
              "\"batch_size\":64,\"num_images\":256,"
              "\"arrivals\":{\"arrival_trace_version\":1,"
              "\"kind\":\"fixed\",\"num_requests\":256,"
              "\"interval\":4}}");
}

TEST(Job, JsonRoundTrips)
{
    Job job;
    job.network = "Mnist-B";
    job.phase = Phase::Training;
    job.batch_size = 32;
    job.num_images = 128;
    const Job back = Job::fromJson(job.toJson());
    EXPECT_EQ(back.toJson().dump(), job.toJson().dump());

    Job serving;
    serving.arrivals = ArrivalTrace::poisson(64, 0.5, 3);
    serving.num_images = 64;
    const Job sback = Job::fromJson(serving.toJson());
    EXPECT_EQ(sback.toJson().dump(), serving.toJson().dump());
}

TEST(Job, NumImagesImpliedByArrivals)
{
    const Job job = Job::fromJson(json::parse(
        "{\"phase\": \"testing\", \"arrivals\": {\"kind\": \"fixed\", "
        "\"num_requests\": 40, \"interval\": 2}}"));
    EXPECT_EQ(job.num_images, 40);
    EXPECT_EQ(job.arrivals.size(), 40);
}

TEST(Job, RejectsBadDescriptions)
{
    EXPECT_THROW(Job::fromJson(json::parse("{}")), ConfigError);
    EXPECT_THROW(
        Job::fromJson(json::parse("{\"phase\": \"predicting\", "
                                  "\"num_images\": 4}")),
        ConfigError);
    EXPECT_THROW(Job::fromJson(json::parse("{\"phase\": \"testing\"}")),
                 ConfigError);
    expectConfigErrorNaming(
        [] {
            Job::fromJson(json::parse(
                R"({"phase": "testing", "batch_size": 2.5, )"
                R"("num_images": 4})"));
        },
        "'batch_size'");

    // Arrival traces are a serving (pipelined testing) description.
    Job job;
    job.num_images = 8;
    job.arrivals = ArrivalTrace::fixed(8, 2);
    EXPECT_NO_THROW(job.validate());
    job.phase = Phase::Training;
    job.batch_size = 8;
    EXPECT_THROW(job.validate(), ConfigError);
    job.phase = Phase::Testing;
    job.pipelined = false;
    EXPECT_THROW(job.validate(), ConfigError);
    job.pipelined = true;
    job.num_images = 9; // one arrival per image
    EXPECT_THROW(job.validate(), ConfigError);
}

TEST(Job, NetworkNameMustMatchSimulator)
{
    const Simulator simulator(workloads::mnistA(),
                              reram::DeviceParams());
    Job job;
    job.num_images = 4;
    job.network = "Mnist-A";
    EXPECT_NO_THROW(simulator.run(job));
    job.network = "VGG-A";
    EXPECT_THROW(simulator.run(job), ConfigError);
}

// ---------------------------------------------------------------------
// ServingSim: admission, coalescing, backpressure

ServingSim
mnistServing()
{
    return ServingSim(workloads::mnistA(), reram::DeviceParams());
}

TEST(ServingConfig, Validates)
{
    ServingConfig config;
    EXPECT_NO_THROW(config.validate());
    config.queue_capacity = 0;
    EXPECT_THROW(config.validate(), ConfigError);
    config.queue_capacity = 1;
    config.max_batch = -1;
    EXPECT_THROW(config.validate(), ConfigError);
    config.max_batch = 0;
    config.max_wait_cycles = -1;
    EXPECT_THROW(config.validate(), ConfigError);
}

TEST(ServingSim, FullBatchLaunchesWithoutWaitingForDeadline)
{
    // max_batch same-cycle arrivals fill a batch instantly: entries
    // serialise from the arrival cycle, one per cycle, no deadline
    // wait paid.
    const ServingSim serving = mnistServing();
    ServingConfig config;
    config.max_batch = 4;
    config.max_wait_cycles = 100;
    const ServingReport rep =
        serving.run(ArrivalTrace::replay({5, 5, 5, 5}), config);
    EXPECT_EQ(rep.admitted_count, 4);
    EXPECT_EQ(rep.shed_count, 0);
    EXPECT_EQ(rep.batch_count, 1);
    EXPECT_EQ(rep.deadline_batches, 0);
    for (int64_t i = 0; i < 4; ++i) {
        const CompletionRecord &rec =
            rep.completions[static_cast<size_t>(i)];
        EXPECT_EQ(rec.entry_cycle, 5 + i);
        EXPECT_EQ(rec.completion_cycle, 5 + i + serving.depth());
        EXPECT_EQ(rec.batch_size, 4);
    }
}

TEST(ServingSim, DeadlineForcesPartialBatch)
{
    // A lone request cannot fill a batch; the max-wait deadline
    // bounds its latency at max_wait + depth instead of forever.
    const ServingSim serving = mnistServing();
    ServingConfig config;
    config.max_batch = 8;
    config.max_wait_cycles = 12;
    const ServingReport rep =
        serving.run(ArrivalTrace::replay({0}), config);
    EXPECT_EQ(rep.admitted_count, 1);
    EXPECT_EQ(rep.batch_count, 1);
    EXPECT_EQ(rep.deadline_batches, 1);
    EXPECT_EQ(rep.completions[0].entry_cycle, 12);
    EXPECT_EQ(rep.completions[0].latency_cycles,
              12 + serving.depth());
    EXPECT_EQ(rep.p50_latency_cycles, 12 + serving.depth());
    EXPECT_EQ(rep.p99_latency_cycles, 12 + serving.depth());
}

TEST(ServingSim, ShedsAtCapacityPreservingArrivalOrder)
{
    // Six same-cycle arrivals against a 3-deep queue: the first three
    // (in arrival order) are admitted, the rest shed and counted.
    const ServingSim serving = mnistServing();
    ServingConfig config;
    config.queue_capacity = 3;
    config.max_batch = 3;
    config.max_wait_cycles = 4;
    const ServingReport rep =
        serving.run(ArrivalTrace::replay({0, 0, 0, 0, 0, 0}), config);
    EXPECT_EQ(rep.arrival_count, 6);
    EXPECT_EQ(rep.admitted_count, 3);
    EXPECT_EQ(rep.shed_count, 3);
    EXPECT_EQ(rep.admitted_count + rep.shed_count, rep.arrival_count);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_TRUE(rep.completions[i].admitted) << i;
    for (size_t i = 3; i < 6; ++i)
        EXPECT_FALSE(rep.completions[i].admitted) << i;
    // Admitted entries keep arrival order.
    EXPECT_LT(rep.completions[0].entry_cycle,
              rep.completions[1].entry_cycle);
    EXPECT_LT(rep.completions[1].entry_cycle,
              rep.completions[2].entry_cycle);
    EXPECT_EQ(rep.peak_queue_depth, 3);
}

TEST(ServingSim, BatchSizeNeverExceedsMax)
{
    const ServingSim serving = mnistServing();
    ServingConfig config;
    config.max_batch = 6;
    config.max_wait_cycles = 16;
    const ServingReport rep =
        serving.run(ArrivalTrace::bursty(512, 32, 8, 3), config);
    int64_t covered = 0;
    for (const auto &bucket : rep.batch_size_hist) {
        EXPECT_GE(bucket.first, 1);
        EXPECT_LE(bucket.first, 6);
        covered += bucket.first * bucket.second;
    }
    EXPECT_EQ(covered, rep.admitted_count);
    for (const CompletionRecord &rec : rep.completions) {
        if (rec.admitted)
            EXPECT_LE(rec.batch_size, 6);
    }
}

TEST(ServingSim, AdmittedEntriesProduceHazardFreeSchedule)
{
    // Entry cycles are strictly increasing by construction, so the
    // executed schedule sees no structural hazards: overload shows up
    // as shed requests instead.
    const ServingSim serving = mnistServing();
    ServingConfig config;
    config.queue_capacity = 16;
    const ServingReport rep =
        serving.run(ArrivalTrace::poisson(1024, 2.0, 9), config);
    EXPECT_GT(rep.shed_count, 0); // 2 req/cycle is overload
    EXPECT_EQ(rep.sched.structural_hazards, 0);
    EXPECT_EQ(rep.execution.structural_hazards, 0);
    EXPECT_EQ(rep.execution.logical_cycles, rep.sched.total_cycles);
}

TEST(ServingSim, ReportIsByteIdenticalAcrossThreadCounts)
{
    // The whole serving report — policy metrics and the embedded
    // execution report — is logical-cycle arithmetic; PL_THREADS must
    // not be observable in it (the property CI's serving smoke and
    // bench_compare gate rely on).
    const ServingSim serving = mnistServing();
    const ArrivalTrace trace = ArrivalTrace::poisson(2048, 0.4, 21);
    const ServingConfig config;
    const int64_t saved = threadCount();
    setThreadCount(1);
    const std::string t1 = serving.run(trace, config).toJson().dump();
    setThreadCount(4);
    const std::string t4 = serving.run(trace, config).toJson().dump();
    setThreadCount(saved);
    EXPECT_EQ(t1, t4);
}

TEST(ServingSim, EmptyTraceProducesEmptyReport)
{
    const ServingSim serving = mnistServing();
    const ServingReport rep =
        serving.run(ArrivalTrace::replay({}), ServingConfig());
    EXPECT_EQ(rep.arrival_count, 0);
    EXPECT_EQ(rep.admitted_count, 0);
    EXPECT_EQ(rep.shed_count, 0);
    EXPECT_EQ(rep.batch_count, 0);
    EXPECT_EQ(rep.p50_latency_cycles, 0);
}

// ---------------------------------------------------------------------
// Pinned bytes of the sim layer: FNV-1a-64 hashes of every artifact a
// serve, a cluster run and a single-chip run produce, so a change that
// is the same at every thread count (which a t1-vs-t4 cmp cannot see)
// still fails here.

/** FNV-1a-64 of @p bytes. */
uint64_t
fnv1a(const std::string &bytes)
{
    uint64_t h = 14695981039346656037ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
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

/** Runs @p body at one worker thread and at four, then restores. */
template <typename Body>
void
atOneAndFourThreads(Body body)
{
    const int64_t saved = threadCount();
    for (const int64_t threads : {int64_t{1}, int64_t{4}}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        setThreadCount(threads);
        body();
    }
    setThreadCount(saved);
}

/** The four artifact hashes of one pl_serve-shaped run. */
struct ServeHashes
{
    uint64_t summary;
    uint64_t completions;
    uint64_t trace;
    uint64_t metrics;
};

/**
 * Serve the committed canned trace on @p network the way pl_serve
 * and CI's serving smoke do (default ServingConfig, a recorder and a
 * 64-cycle sampler attached) and compare every artifact's hash.  The
 * metrics trailer records the dispatched SIMD level, the one
 * host-dependent entry, so the run is pinned to the scalar target.
 */
void
expectServePinned(const std::string &network, const ServeHashes &want)
{
    std::ifstream in(std::string(PL_SOURCE_DIR) +
                     "/bench/traces/serving_arrivals.json");
    ASSERT_TRUE(in.good());
    std::ostringstream text;
    text << in.rdbuf();
    const ArrivalTrace trace =
        ArrivalTrace::fromJson(json::parse(text.str()));
    const ServingSim serving(workloads::networkByName(network),
                             reram::DeviceParams());
    const isa::Target saved_isa = isa::active();
    ASSERT_TRUE(isa::setActive(isa::Target::Scalar));
    atOneAndFourThreads([&] {
        trace::TraceRecorder recorder("pl_serve " + network);
        metrics::Sampler sampler(64);
        const ServingReport report =
            serving.run(trace, ServingConfig(), &recorder, &sampler);
        std::string completions;
        for (const CompletionRecord &rec : report.completions)
            completions += rec.toJson().dump() + "\n";
        std::ostringstream metrics;
        sampler.write(metrics);
        const ServeHashes got = {fnv1a(report.toJson().dump()),
                                 fnv1a(completions),
                                 fnv1a(traceBytes(recorder)),
                                 fnv1a(metrics.str())};
        EXPECT_EQ(got.summary, want.summary) << std::hex << got.summary;
        EXPECT_EQ(got.completions, want.completions)
            << std::hex << got.completions;
        EXPECT_EQ(got.trace, want.trace) << std::hex << got.trace;
        EXPECT_EQ(got.metrics, want.metrics) << std::hex << got.metrics;
    });
    isa::setActive(saved_isa);
}

TEST(SimLayerPinned, ServeMnistA)
{
    expectServePinned("Mnist-A",
                      {0x4921ef23a59684f7ull, 0x5828ae5df8e3714cull,
                       0x40f74b838903c7a3ull, 0xa55b88b30d42f5ddull});
}

TEST(SimLayerPinned, ServeVggA)
{
    expectServePinned("VGG-A",
                      {0xd7d6c3f3ee190e65ull, 0xb832c5f73ccaeef8ull,
                       0xbc0ef65fa0e5bb8bull, 0x87c0cfdacb1f1f09ull});
}

TEST(SimLayerPinned, FourChipTrainingCluster)
{
    const Simulator simulator(workloads::mnistA(), reram::DeviceParams());
    Job job;
    job.network = "Mnist-A";
    job.phase = Phase::Training;
    job.batch_size = 64;
    job.num_images = 256;
    job.num_chips = 4;
    atOneAndFourThreads([&] {
        trace::TraceRecorder recorder("pipelayer-cluster");
        const ClusterReport rep = simulator.runCluster(job, &recorder);
        const uint64_t report = fnv1a(rep.toJson().dump());
        const uint64_t trace = fnv1a(traceBytes(recorder));
        EXPECT_EQ(report, 0x1edb5796e1e5cd1eull) << std::hex << report;
        EXPECT_EQ(trace, 0xa9cc9daca8f06c46ull) << std::hex << trace;
    });
}

TEST(SimLayerPinned, MnistBRunReports)
{
    const Simulator simulator(workloads::mnistB(), reram::DeviceParams());
    atOneAndFourThreads([&] {
        for (const bool training : {false, true}) {
            SCOPED_TRACE(training ? "training" : "testing");
            Job job;
            job.phase = training ? Phase::Training : Phase::Testing;
            job.batch_size = 32;
            job.num_images = 64;
            const uint64_t got = fnv1a(simulator.run(job).toJson().dump());
            EXPECT_EQ(got, training ? 0x62b17f67fbaef6d9ull
                                    : 0x789488c9b83997deull)
                << std::hex << got;
        }
    });
}

TEST(SimLayerPinned, MnistBStatsDumps)
{
    // The `name value # desc` lines of design_explorer --stats.
    const Simulator simulator(workloads::mnistB(), reram::DeviceParams());
    atOneAndFourThreads([&] {
        for (const bool training : {false, true}) {
            SCOPED_TRACE(training ? "training" : "testing");
            Job job;
            job.phase = training ? Phase::Training : Phase::Testing;
            job.batch_size = 32;
            job.num_images = 64;
            std::ostringstream os;
            simulator.run(job).dumpStats(os);
            const uint64_t got = fnv1a(os.str());
            EXPECT_EQ(got, training ? 0x1dcbf6686c8cbfd9ull
                                    : 0x1801bfe50ba992b0ull)
                << std::hex << got;
        }
    });
}

} // namespace
} // namespace sim
} // namespace pipelayer
