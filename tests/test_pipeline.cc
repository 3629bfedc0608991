/**
 * @file
 * Property tests of the pipeline scheduler against the paper's
 * closed-form latency and buffer-sizing results (Fig. 7, Table 2,
 * §3.3).  The scheduler *executes* the schedule against circular
 * buffers, so these tests prove (not assume) the formulas.
 */

#include <gtest/gtest.h>

#include <memory>

#include "arch/granularity.hh"
#include "arch/mapping.hh"
#include "arch/pipeline.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "nn/layers.hh"
#include "sim/arrival.hh"
#include "support/schedule_reference.hh"
#include "workloads/layer_spec.hh"
#include "workloads/model_zoo.hh"

namespace pipelayer {
namespace arch {
namespace {

using workloads::LayerSpec;
using workloads::NetworkSpec;

/** A synthetic all-IP network of a given pipeline depth. */
NetworkSpec
chainOfDepth(int64_t depth)
{
    NetworkSpec spec;
    spec.name = "chain" + std::to_string(depth);
    int64_t width = 32;
    for (int64_t i = 0; i < depth; ++i)
        spec.layers.push_back(LayerSpec::innerProduct(width, width));
    spec.validate();
    return spec;
}

NetworkMapping
mappingFor(const NetworkSpec &spec, bool training, int64_t batch)
{
    static reram::DeviceParams params;
    return NetworkMapping(spec, GranularityConfig::naive(spec), params,
                          training, batch);
}

struct SweepPoint
{
    int64_t depth;
    int64_t images;
    int64_t batch;
};

class ScheduleSweep : public ::testing::TestWithParam<SweepPoint>
{
};

TEST_P(ScheduleSweep, PipelinedTrainingMatchesClosedForm)
{
    const auto [depth, images, batch] = GetParam();
    const NetworkSpec spec = chainOfDepth(depth);
    const NetworkMapping map = mappingFor(spec, true, batch);

    ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = batch;
    config.num_images = images;
    PipelineScheduler scheduler(map.depth(), config);
    const ScheduleStats stats = scheduler.run();

    EXPECT_EQ(stats.total_cycles,
              PipelineScheduler::analyticTrainingCycles(depth, images,
                                                        batch, true));
    // When B divides N this is the paper's (N/B)(2L + B + 1).
    if (images % batch == 0) {
        EXPECT_EQ(stats.total_cycles,
                  (images / batch) * (2 * depth + batch + 1));
    }
    EXPECT_EQ(stats.structural_hazards, 0);
    EXPECT_EQ(stats.buffer_violations, 0);
    EXPECT_EQ(stats.forward_ops, images * depth);
    EXPECT_EQ(stats.error_ops, images * depth); // seed + (L-1) backs
    EXPECT_EQ(stats.derivative_ops, images * depth);
    EXPECT_EQ(stats.update_cycles, (images + batch - 1) / batch);
}

TEST_P(ScheduleSweep, NonPipelinedTrainingMatchesClosedForm)
{
    const auto [depth, images, batch] = GetParam();
    const NetworkSpec spec = chainOfDepth(depth);
    const NetworkMapping map = mappingFor(spec, true, batch);

    ScheduleConfig config;
    config.pipelined = false;
    config.training = true;
    config.batch_size = batch;
    config.num_images = images;
    PipelineScheduler scheduler(map.depth(), config);
    const ScheduleStats stats = scheduler.run();

    EXPECT_EQ(stats.total_cycles,
              PipelineScheduler::analyticTrainingCycles(depth, images,
                                                        batch, false));
    if (images % batch == 0) {
        // Paper Fig. 7(a): (2L+1)N + N/B.
        EXPECT_EQ(stats.total_cycles,
                  (2 * depth + 1) * images + images / batch);
    }
    EXPECT_EQ(stats.structural_hazards, 0);
    EXPECT_EQ(stats.buffer_violations, 0);
}

TEST_P(ScheduleSweep, PipelinedTestingMatchesClosedForm)
{
    const auto [depth, images, batch] = GetParam();
    (void)batch;
    const NetworkSpec spec = chainOfDepth(depth);
    const NetworkMapping map = mappingFor(spec, false, 1);

    ScheduleConfig config;
    config.pipelined = true;
    config.training = false;
    config.num_images = images;
    PipelineScheduler scheduler(map.depth(), config);
    const ScheduleStats stats = scheduler.run();

    EXPECT_EQ(stats.total_cycles, images + depth - 1);
    EXPECT_EQ(stats.structural_hazards, 0);
    EXPECT_EQ(stats.buffer_violations, 0);
    EXPECT_EQ(stats.forward_ops, images * depth);
    EXPECT_EQ(stats.error_ops, 0);
}

TEST_P(ScheduleSweep, NonPipelinedTestingMatchesClosedForm)
{
    const auto [depth, images, batch] = GetParam();
    (void)batch;
    const NetworkSpec spec = chainOfDepth(depth);
    const NetworkMapping map = mappingFor(spec, false, 1);

    ScheduleConfig config;
    config.pipelined = false;
    config.training = false;
    config.num_images = images;
    PipelineScheduler scheduler(map.depth(), config);
    const ScheduleStats stats = scheduler.run();
    EXPECT_EQ(stats.total_cycles, images * depth);
    EXPECT_EQ(stats.buffer_violations, 0);
}

INSTANTIATE_TEST_SUITE_P(
    DepthImagesBatch, ScheduleSweep,
    ::testing::Values(SweepPoint{1, 8, 4}, SweepPoint{2, 16, 4},
                      SweepPoint{3, 24, 8}, SweepPoint{3, 30, 8},
                      SweepPoint{4, 64, 16}, SweepPoint{5, 65, 16},
                      SweepPoint{7, 128, 64}, SweepPoint{11, 128, 64},
                      SweepPoint{19, 256, 64}));

TEST(Schedule, PaperFig3Example)
{
    // The 3-layer example of Fig. 3: one input takes 2L + 1 = 7
    // logical cycles (T1..T7), plus one update cycle for a batch of 1.
    const NetworkSpec spec = chainOfDepth(3);
    const NetworkMapping map = mappingFor(spec, true, 1);
    ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 1;
    config.num_images = 1;
    PipelineScheduler scheduler(map.depth(), config);
    EXPECT_EQ(scheduler.run().total_cycles, 8);
}

TEST(Schedule, BufferSizingIsTight)
{
    // With one entry fewer than the paper's 2(L-l)+1, the pipelined
    // schedule must overwrite live data: the sizing is exact, not
    // conservative.
    const NetworkSpec spec = chainOfDepth(4);
    const NetworkMapping map = mappingFor(spec, true, 16);
    ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 16;
    config.num_images = 32;

    PipelineScheduler exact(map.depth(), config, /*buffer_slack=*/0);
    EXPECT_EQ(exact.run().buffer_violations, 0);

    PipelineScheduler tight(map.depth(), config, /*buffer_slack=*/-1);
    EXPECT_GT(tight.run().buffer_violations, 0);
}

TEST(Schedule, ExtraSlackNeverHurts)
{
    const NetworkSpec spec = chainOfDepth(5);
    const NetworkMapping map = mappingFor(spec, true, 8);
    ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 8;
    config.num_images = 24;
    PipelineScheduler slack(map.depth(), config, /*buffer_slack=*/3);
    EXPECT_EQ(slack.run().buffer_violations, 0);
}

TEST(Schedule, PipelinedBeatsNonPipelined)
{
    const NetworkSpec spec = chainOfDepth(6);
    const NetworkMapping map = mappingFor(spec, true, 32);
    ScheduleConfig config;
    config.training = true;
    config.batch_size = 32;
    config.num_images = 128;

    config.pipelined = true;
    const int64_t piped =
        PipelineScheduler(map.depth(), config).run().total_cycles;
    config.pipelined = false;
    const int64_t serial =
        PipelineScheduler(map.depth(), config).run().total_cycles;
    EXPECT_LT(piped, serial);
    // Speedup approaches (2L+1) for large batches.
    EXPECT_GT(static_cast<double>(serial) / static_cast<double>(piped),
              3.0);
}

TEST(Schedule, UtilizationImprovesWithBatchSize)
{
    // Larger batches amortise the fill/drain overhead (paper §3.3:
    // "the performance gain is due to the fact that B is normally
    // much larger than 1").
    const NetworkSpec spec = chainOfDepth(5);
    const NetworkMapping map_small = mappingFor(spec, true, 4);
    const NetworkMapping map_large = mappingFor(spec, true, 64);

    ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.num_images = 128;

    config.batch_size = 4;
    const auto small = PipelineScheduler(map_small.depth(), config).run();
    config.batch_size = 64;
    const auto large = PipelineScheduler(map_large.depth(), config).run();
    EXPECT_LT(large.total_cycles, small.total_cycles);
    EXPECT_GT(large.stage_utilization, small.stage_utilization);
}

TEST(Schedule, PeakBufferUsageMatchesFormula)
{
    // In steady state, the d_l buffer really holds 2(L-l)+1 live
    // entries — the paper's sizing is achieved, not just respected.
    const int64_t depth = 4;
    const NetworkSpec spec = chainOfDepth(depth);
    const NetworkMapping map = mappingFor(spec, true, 32);
    ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 32;
    config.num_images = 64;
    const auto stats = PipelineScheduler(map.depth(), config).run();
    ASSERT_EQ(stats.peak_buffer_entries.size(),
              static_cast<size_t>(depth + 1));
    for (int64_t j = 0; j <= depth; ++j) {
        EXPECT_EQ(stats.peak_buffer_entries[static_cast<size_t>(j)],
                  2 * (depth - j) + 1)
            << "buffer d" << j;
    }
}

/** Full field-by-field equality of two ScheduleStats. */
void
expectStatsEqual(const ScheduleStats &a, const ScheduleStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.total_cycles, b.total_cycles) << what;
    EXPECT_EQ(a.forward_ops, b.forward_ops) << what;
    EXPECT_EQ(a.error_ops, b.error_ops) << what;
    EXPECT_EQ(a.derivative_ops, b.derivative_ops) << what;
    EXPECT_EQ(a.update_cycles, b.update_cycles) << what;
    EXPECT_EQ(a.stage_utilization, b.stage_utilization) << what;
    EXPECT_EQ(a.structural_hazards, b.structural_hazards) << what;
    EXPECT_EQ(a.buffer_violations, b.buffer_violations) << what;
    EXPECT_EQ(a.peak_buffer_entries, b.peak_buffer_entries) << what;
    EXPECT_EQ(a.per_stage_ops, b.per_stage_ops) << what;
}

struct EquivalencePoint
{
    int64_t depth;
    int64_t images;
    int64_t batch;
};

class EventCoreSweep : public ::testing::TestWithParam<EquivalencePoint>
{
};

TEST_P(EventCoreSweep, MatchesReferenceAndClosedForms)
{
    // The busy-cycle run() must agree with the dense reference walk
    // *exactly* — every stat, including violations under tight
    // buffers — and with the Table-2 closed forms, across all four
    // (pipelined x training) modes and partial batches (B does not
    // divide N at e.g. N=7, B=3).
    const auto [depth, images, batch] = GetParam();
    const NetworkSpec spec = chainOfDepth(depth);

    for (const bool training : {true, false}) {
        const NetworkMapping map = mappingFor(spec, training, batch);
        for (const bool pipelined : {true, false}) {
            for (const int64_t slack : {int64_t{0}, int64_t{-1}}) {
                ScheduleConfig config;
                config.pipelined = pipelined;
                config.training = training;
                config.batch_size = batch;
                config.num_images = images;
                const std::string what =
                    "depth=" + std::to_string(depth) +
                    " N=" + std::to_string(images) +
                    " B=" + std::to_string(batch) +
                    " pipelined=" + std::to_string(pipelined) +
                    " training=" + std::to_string(training) +
                    " slack=" + std::to_string(slack);

                PipelineScheduler event(map.depth(), config, slack);
                const ScheduleStats from_events = event.run();
                const int64_t event_iters = event.lastRunCycleIters();

                PipelineScheduler dense(map.depth(), config, slack);
                const ScheduleStats from_walk = dense.runReference();
                expectStatsEqual(from_events, from_walk, what);

                // The event core never iterates more than the dense
                // horizon walk (and both dispatch every event).
                EXPECT_LE(event_iters, dense.lastRunCycleIters())
                    << what;
                EXPECT_EQ(event.lastRunEvents(),
                          dense.lastRunEvents())
                    << what;

                const int64_t analytic = training
                    ? PipelineScheduler::analyticTrainingCycles(
                          depth, images, batch, pipelined)
                    : PipelineScheduler::analyticTestingCycles(
                          depth, images, pipelined);
                EXPECT_EQ(from_events.total_cycles, analytic) << what;
            }
        }
    }
}

std::vector<EquivalencePoint>
equivalenceSweep()
{
    std::vector<EquivalencePoint> points;
    for (const int64_t depth : {1, 2, 3, 5})
        for (const int64_t images : {0, 1, 7, 64})
            for (const int64_t batch : {1, 3, 64})
                points.push_back({depth, images, batch});
    return points;
}

INSTANTIATE_TEST_SUITE_P(Table2, EventCoreSweep,
                         ::testing::ValuesIn(equivalenceSweep()));

/**
 * The op-stream sweep's 576 schedules with their labels: L in
 * {1, 2, 3, 5}, N in {0, 1, 2, 7, 16, 33}, B in {1, 3, 16}, training
 * or testing, pipelined or not, and for pipelined testing five
 * arrival shapes: none (back to back), every 3 cycles, same-cycle
 * bursts of 4, seeded random gaps of 0-6 cycles and every 64 cycles
 * from cycle 100.
 */
struct OpStreamCase
{
    std::string what;
    int64_t depth;
    ScheduleConfig config;
};

std::vector<OpStreamCase>
opStreamGrid()
{
    std::vector<OpStreamCase> grid;
    for (const int64_t depth : {1, 2, 3, 5}) {
        for (const int64_t images : {0, 1, 2, 7, 16, 33}) {
            std::vector<std::vector<int64_t>> arrivals(5);
            Rng rng(0x5eedULL + static_cast<uint64_t>(images));
            int64_t random_cycle = 0;
            for (int64_t i = 0; i < images; ++i) {
                arrivals[1].push_back(3 * i);
                arrivals[2].push_back((i / 4) * 6);
                random_cycle += static_cast<int64_t>(rng.uniformInt(7));
                arrivals[3].push_back(random_cycle);
                arrivals[4].push_back(100 + 64 * i);
            }
            for (const int64_t batch : {1, 3, 16}) {
                for (const bool training : {true, false}) {
                    for (const bool pipelined : {true, false}) {
                        const size_t shapes =
                            !training && pipelined ? arrivals.size() : 1;
                        for (size_t shape = 0; shape < shapes; ++shape) {
                            ScheduleConfig config;
                            config.training = training;
                            config.pipelined = pipelined;
                            config.batch_size = batch;
                            config.num_images = images;
                            config.arrival_cycles = arrivals[shape];
                            grid.push_back(
                                {"L=" + std::to_string(depth) +
                                     " N=" + std::to_string(images) +
                                     " B=" + std::to_string(batch) +
                                     " training=" +
                                     std::to_string(training) +
                                     " pipelined=" +
                                     std::to_string(pipelined) +
                                     " arrivals=" + std::to_string(shape),
                                 depth, std::move(config)});
                        }
                    }
                }
            }
        }
    }
    return grid;
}

TEST(Schedule, OpStreamMatchesImageByImageOracle)
{
    // run() hands its executor the image-by-image emission sorted by
    // cycle (arch::referenceSchedule), op for op, on every schedule
    // shape, and the dense walk agrees on every stat.
    using Op = PipelineScheduler::Op;
    const auto grid = opStreamGrid();
    ASSERT_EQ(grid.size(), 576u);
    for (const auto &[what, depth, config] : grid) {
        const std::vector<Op> expected = referenceSchedule(depth, config);

        std::vector<Op> seen;
        bool cycles_match = true;
        PipelineScheduler scheduler(depth, config);
        const ScheduleStats stats =
            scheduler.run([&](int64_t cycle, std::span<const Op> ops) {
                for (const Op &op : ops) {
                    cycles_match &= op.cycle == cycle;
                    seen.push_back(op);
                }
            });
        EXPECT_TRUE(cycles_match) << what;
        ASSERT_EQ(seen.size(), expected.size()) << what;
        for (size_t i = 0; i < seen.size(); ++i) {
            const Op &a = seen[i];
            const Op &b = expected[i];
            ASSERT_TRUE(a.kind == b.kind && a.image == b.image &&
                        a.stage == b.stage && a.cycle == b.cycle)
                << what << " op " << i;
        }
        EXPECT_EQ(scheduler.lastRunEvents(),
                  static_cast<int64_t>(expected.size()))
            << what;

        PipelineScheduler dense(depth, config);
        expectStatsEqual(stats, dense.runReference(), what);
    }
}

TEST(ScheduleConfigValidate, RejectsNonPositiveBatch)
{
    // batch = min(B, N - image) with B <= 0 never advanced the batch
    // loop: buildSchedule used to hang forever.  The ctor validates
    // first and throws a typed error instead.
    const NetworkSpec spec = chainOfDepth(2);
    const NetworkMapping map = mappingFor(spec, true, 1);
    ScheduleConfig config;
    config.batch_size = 0;
    EXPECT_THROW(config.validate(), ConfigError);
    EXPECT_THROW(PipelineScheduler(map.depth(), config), ConfigError);
    config.batch_size = -4;
    EXPECT_THROW(PipelineScheduler(map.depth(), config), ConfigError);
}

TEST(ScheduleConfigValidate, RejectsNegativeImages)
{
    const NetworkSpec spec = chainOfDepth(2);
    const NetworkMapping map = mappingFor(spec, true, 1);
    ScheduleConfig config;
    config.num_images = -1;
    EXPECT_THROW(config.validate(), ConfigError);
    EXPECT_THROW(PipelineScheduler(map.depth(), config), ConfigError);
}

TEST(ScheduleConfigValidate, RejectsNonPositiveDepth)
{
    const ScheduleConfig config;
    EXPECT_THROW(PipelineScheduler(0, config), ConfigError);
    EXPECT_THROW(PipelineScheduler(-3, config), ConfigError);
}

TEST(ScheduleConfigValidate, AcceptsEmptySchedule)
{
    ScheduleConfig config;
    config.num_images = 0;
    EXPECT_NO_THROW(config.validate());
}

TEST(ScheduleConfigValidate, RejectsBadArrivalCycles)
{
    ScheduleConfig config;
    config.pipelined = true;
    config.training = false;
    config.num_images = 3;

    // One arrival per image, non-negative and non-decreasing.
    config.arrival_cycles = {0, 4};
    EXPECT_THROW(config.validate(), ConfigError);
    config.arrival_cycles = {-1, 4, 8};
    EXPECT_THROW(config.validate(), ConfigError);
    config.arrival_cycles = {0, 8, 4};
    EXPECT_THROW(config.validate(), ConfigError);

    // Same-cycle arrivals are legal: measured overload, not an error.
    config.arrival_cycles = {0, 4, 4};
    EXPECT_NO_THROW(config.validate());

    // Arrival traces are the serving shape: pipelined testing only.
    config.arrival_cycles = {0, 4, 8};
    EXPECT_NO_THROW(config.validate());
    config.training = true;
    config.batch_size = 1;
    EXPECT_THROW(config.validate(), ConfigError);
    config.training = false;
    config.pipelined = false;
    EXPECT_THROW(config.validate(), ConfigError);
}

TEST(Schedule, ServingArrivalsMatchReferenceWalk)
{
    // A fixed arrival trace stretches the pipelined testing schedule
    // without changing any per-image op; the event core and the
    // dense reference walk must still agree exactly, and the span
    // generalises N + L - 1 to (N - 1) * interval + L.
    const int64_t depth = 3;
    const NetworkSpec spec = chainOfDepth(depth);
    const NetworkMapping map = mappingFor(spec, false, 1);
    for (const int64_t interval : {int64_t{1}, int64_t{5}}) {
        ScheduleConfig config;
        config.pipelined = true;
        config.training = false;
        config.num_images = 40;
        config.arrival_cycles =
            sim::ArrivalTrace::fixed(40, interval).cycles();

        PipelineScheduler event(map.depth(), config);
        const ScheduleStats from_events = event.run();
        PipelineScheduler dense(map.depth(), config);
        const ScheduleStats from_walk = dense.runReference();
        const std::string what =
            "interval=" + std::to_string(interval);
        expectStatsEqual(from_events, from_walk, what);
        EXPECT_EQ(from_events.total_cycles,
                  (40 - 1) * interval + depth)
            << what;
        EXPECT_LE(event.lastRunCycleIters(),
                  dense.lastRunCycleIters())
            << what;
        EXPECT_EQ(event.lastRunEvents(), dense.lastRunEvents())
            << what;
    }
}

TEST(Schedule, SameCycleArrivalsAreHazardsInImageOrder)
{
    // Images 0-2 enter together, then 3-4: each stage's forward unit
    // is claimed three times in one cycle (two hazards) and later
    // twice (one), so 3L hazards in all, and the buffers still hold
    // every image.  Within a cycle the ops run in emission order,
    // which is ascending image.
    for (const int64_t depth : {int64_t{1}, int64_t{3}}) {
        ScheduleConfig config;
        config.pipelined = true;
        config.training = false;
        config.num_images = 5;
        config.arrival_cycles = {0, 0, 0, 5, 5};
        const std::string what = "depth=" + std::to_string(depth);

        using Op = PipelineScheduler::Op;
        PipelineScheduler sorted(depth, config);
        bool ascending = true;
        const ScheduleStats stats =
            sorted.run([&ascending](int64_t, std::span<const Op> ops) {
                for (size_t i = 1; i < ops.size(); ++i)
                    ascending &= ops[i - 1].image <= ops[i].image;
            });
        EXPECT_TRUE(ascending) << what;
        EXPECT_EQ(stats.structural_hazards, 3 * depth) << what;
        EXPECT_EQ(stats.buffer_violations, 0) << what;

        PipelineScheduler dense(depth, config);
        expectStatsEqual(stats, dense.runReference(), what);
    }
}

TEST(AnalyticForms, ZeroImagesIsZeroCycles)
{
    // N + L - 1 would give depth - 1 cycles for an empty testing
    // schedule; both closed forms special-case N = 0.
    for (const int64_t depth : {1, 3, 5}) {
        for (const bool pipelined : {true, false}) {
            EXPECT_EQ(PipelineScheduler::analyticTestingCycles(
                          depth, 0, pipelined),
                      0);
            EXPECT_EQ(PipelineScheduler::analyticTrainingCycles(
                          depth, 0, 8, pipelined),
                      0);
        }
    }
}

TEST(AnalyticForms, RejectBadArguments)
{
    // The closed form used to divide by zero via ceilDiv(n, 0).
    EXPECT_THROW(PipelineScheduler::analyticTrainingCycles(3, 8, 0, true),
                 ConfigError);
    EXPECT_THROW(
        PipelineScheduler::analyticTrainingCycles(3, 8, -1, false),
        ConfigError);
    EXPECT_THROW(PipelineScheduler::analyticTrainingCycles(3, -1, 8, true),
                 ConfigError);
    EXPECT_THROW(PipelineScheduler::analyticTestingCycles(3, -1, true),
                 ConfigError);
}

TEST(Schedule, EmptyScheduleRunsToZeroCycles)
{
    // N = 0 is a legal (if degenerate) schedule: no ops, no cycles,
    // zero utilization — and no division-by-zero NaN.
    const int64_t depth = 3;
    const NetworkSpec spec = chainOfDepth(depth);
    for (const bool training : {true, false}) {
        const NetworkMapping map = mappingFor(spec, training, 1);
        for (const bool pipelined : {true, false}) {
            ScheduleConfig config;
            config.pipelined = pipelined;
            config.training = training;
            config.num_images = 0;
            PipelineScheduler scheduler(map.depth(), config);
            const ScheduleStats stats = scheduler.run();
            EXPECT_EQ(stats.total_cycles, 0);
            EXPECT_EQ(stats.forward_ops, 0);
            EXPECT_EQ(stats.error_ops, 0);
            EXPECT_EQ(stats.derivative_ops, 0);
            EXPECT_EQ(stats.update_cycles, 0);
            EXPECT_EQ(stats.stage_utilization, 0.0);
            EXPECT_EQ(stats.structural_hazards, 0);
            EXPECT_EQ(stats.buffer_violations, 0);
            ASSERT_EQ(stats.peak_buffer_entries.size(),
                      static_cast<size_t>(depth + 1));
            for (const int64_t peak : stats.peak_buffer_entries)
                EXPECT_EQ(peak, 0);
            EXPECT_EQ(scheduler.lastRunCycleIters(), 0);
            EXPECT_EQ(scheduler.lastRunEvents(), 0);
        }
    }
}

TEST(Schedule, EventCoreSkipsIdleCycles)
{
    // A non-pipelined testing schedule is mostly idle between images;
    // the event core visits only the busy cycles while the reference
    // walks the whole horizon.
    const NetworkSpec spec = chainOfDepth(3);
    const NetworkMapping map = mappingFor(spec, false, 1);
    ScheduleConfig config;
    config.pipelined = true;
    config.training = false;
    config.num_images = 1000;
    PipelineScheduler scheduler(map.depth(), config);
    const ScheduleStats stats = scheduler.run();
    EXPECT_EQ(stats.total_cycles, 1000 + 3 - 1);
    // Busy cycles only: images enter at t0 = i (cycle i), compute in
    // cycles 1..N+L-1; cycle 0 carries only image 0's input write.
    EXPECT_EQ(scheduler.lastRunCycleIters(), 1000 + 3);
    // input writes + L forwards per image.
    EXPECT_EQ(scheduler.lastRunEvents(), 1000 * (3 + 1));

    // Serving arrivals leave real gaps: with interval 16 each image
    // touches only 4 cycles (input write + 3 forwards) out of every
    // 16, so the busy-cycle count stays 4N while the horizon — and
    // the dense walk — grows to ~16N.
    config.arrival_cycles = sim::ArrivalTrace::fixed(1000, 16).cycles();
    PipelineScheduler serving(map.depth(), config);
    const ScheduleStats serving_stats = serving.run();
    EXPECT_EQ(serving_stats.total_cycles, (1000 - 1) * 16 + 3);
    EXPECT_EQ(serving.lastRunCycleIters(), 1000 * 4);
    EXPECT_EQ(serving.lastRunEvents(), 1000 * 4);

    PipelineScheduler reference(map.depth(), config);
    const ScheduleStats walk_stats = reference.runReference();
    EXPECT_EQ(walk_stats.total_cycles, serving_stats.total_cycles);
    EXPECT_GE(reference.lastRunCycleIters(), (1000 - 1) * 16);
}

TEST(Schedule, RealNetworksScheduleCleanly)
{
    for (const auto &spec : workloads::evaluationNetworks()) {
        const NetworkMapping map = mappingFor(spec, true, 16);
        ScheduleConfig config;
        config.pipelined = true;
        config.training = true;
        config.batch_size = 16;
        config.num_images = 32;
        const auto stats = PipelineScheduler(map.depth(), config).run();
        EXPECT_EQ(stats.buffer_violations, 0) << spec.name;
        EXPECT_EQ(stats.structural_hazards, 0) << spec.name;
    }
}

} // namespace
} // namespace arch
} // namespace pipelayer
