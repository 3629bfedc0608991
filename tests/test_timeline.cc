/**
 * @file
 * Tests of the Fig.-6-style pipeline timeline renderer.
 */

#include <gtest/gtest.h>

#include <string>

#include "arch/granularity.hh"
#include "arch/mapping.hh"
#include "arch/pipeline.hh"
#include "workloads/layer_spec.hh"

namespace pipelayer {
namespace {

workloads::NetworkSpec
chain(int64_t depth)
{
    workloads::NetworkSpec spec;
    spec.name = "chain";
    for (int64_t i = 0; i < depth; ++i)
        spec.layers.push_back(workloads::LayerSpec::innerProduct(8, 8));
    return spec;
}

arch::NetworkMapping
mapFor(const workloads::NetworkSpec &spec, int64_t batch)
{
    static reram::DeviceParams params;
    return arch::NetworkMapping(
        spec, arch::GranularityConfig::naive(spec), params, true, batch);
}

TEST(Timeline, TrainingChartHasAllUnitRows)
{
    const auto spec = chain(3);
    const auto map = mapFor(spec, 4);
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 4;
    config.num_images = 4;
    arch::PipelineScheduler scheduler(map.depth(), config);
    const std::string chart = scheduler.renderTimeline();

    // Forward stages, error seed, error-backward units, derivative
    // units and the update row must all appear.
    EXPECT_NE(chart.find("A1 "), std::string::npos);
    EXPECT_NE(chart.find("A3 "), std::string::npos);
    EXPECT_NE(chart.find("ErrL"), std::string::npos);
    EXPECT_NE(chart.find("A22"), std::string::npos);
    EXPECT_NE(chart.find("dW1"), std::string::npos);
    EXPECT_NE(chart.find("Upd"), std::string::npos);
}

TEST(Timeline, TestingChartOmitsBackwardRows)
{
    const auto spec = chain(3);
    const auto map = mapFor(spec, 1);
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = false;
    config.num_images = 4;
    arch::PipelineScheduler scheduler(map.depth(), config);
    const std::string chart = scheduler.renderTimeline();
    EXPECT_NE(chart.find("A1"), std::string::npos);
    EXPECT_EQ(chart.find("ErrL"), std::string::npos);
    EXPECT_EQ(chart.find("Upd"), std::string::npos);
}

TEST(Timeline, Fig3SingleImageOccupiesExpectedCycles)
{
    // One image through L = 3: forward at A_l in cycle l, ∂W1 in
    // cycle 2L+1 = 7 — the exact Fig. 3 timing.
    const auto spec = chain(3);
    const auto map = mapFor(spec, 1);
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 1;
    config.num_images = 1;
    arch::PipelineScheduler scheduler(map.depth(), config);
    const std::string chart = scheduler.renderTimeline();

    std::istringstream is(chart);
    std::string line;
    std::getline(is, line); // header
    std::getline(is, line); // A1 row
    ASSERT_GE(line.size(), 6u);
    // Image 0 occupies A1 at cycle 1 (first column after the label).
    const size_t first_col = line.find_first_of("0");
    EXPECT_NE(first_col, std::string::npos);
}

TEST(Timeline, ClipsLongSchedules)
{
    const auto spec = chain(2);
    const auto map = mapFor(spec, 8);
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 8;
    config.num_images = 64;
    arch::PipelineScheduler scheduler(map.depth(), config);
    const std::string chart = scheduler.renderTimeline(10);
    EXPECT_NE(chart.find("clipped"), std::string::npos);
}

TEST(Timeline, PipelinedChartShowsOverlap)
{
    // In the pipelined chart, stage A1 hosts a different image every
    // cycle within a batch: cells "012345..." appear consecutively.
    const auto spec = chain(2);
    const auto map = mapFor(spec, 6);
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 6;
    config.num_images = 6;
    arch::PipelineScheduler scheduler(map.depth(), config);
    const std::string chart = scheduler.renderTimeline();
    EXPECT_NE(chart.find("012345"), std::string::npos);
}

} // namespace
} // namespace pipelayer
