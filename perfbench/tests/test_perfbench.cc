/**
 * @file
 * The benchmark's own tests: step statistics, span self time, and
 * that a wrong step output is counted as failed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "harness.hh"
#include "reram/params.hh"
#include "sim/arrival.hh"
#include "workloads.hh"
#include "workloads/model_zoo.hh"

using namespace perfbench;
using namespace pipelayer;

namespace {

constexpr int64_t kMs = 1000000;

TEST(StepStats, ThroughputComesFromTheMedianStep)
{
    // One slow outlier moves the mean, not the median.
    const StepStats s = summarize({10 * kMs, 30 * kMs, 20 * kMs, 900 * kMs});
    EXPECT_EQ(s.samples, 4);
    EXPECT_DOUBLE_EQ(s.p50_ms, 20.0); // nearest rank 2 of 4
    EXPECT_DOUBLE_EQ(s.mean_ms, 240.0);
    EXPECT_DOUBLE_EQ(throughputFromMedians({10 * kMs, 30 * kMs, 20 * kMs,
                                            900 * kMs},
                                           {true, true, true, true},
                                           {16.0, 16.0, 16.0, 16.0}),
                     800.0);
}

TEST(StepStats, ThroughputOfMixedCallsUsesEachKindsMedian)
{
    // Steps of 10 ms (one item each) with one 100 ms auxiliary call
    // of 4 items between every three; outliers of either kind do not
    // count.
    const std::vector<int64_t> ns = {100 * kMs, 10 * kMs, 10 * kMs,
                                     900 * kMs, 100 * kMs, 10 * kMs,
                                     10 * kMs,  10 * kMs,  100 * kMs};
    const std::vector<bool> main = {false, true, true, true, false,
                                    true,  true, true, false};
    std::vector<double> items;
    for (bool m : main)
        items.push_back(m ? 1.0 : 4.0);
    // 18 items over 3 * 100 + 6 * 10 ms.
    EXPECT_DOUBLE_EQ(throughputFromMedians(ns, main, items), 50.0);
}

TEST(StepStats, P90LeavesTenSamplesBeyondItAtOneHundred)
{
    std::vector<int64_t> ns;
    for (int64_t k = 100; k >= 1; --k)
        ns.push_back(k * kMs);
    const StepStats s = summarize(ns);
    EXPECT_EQ(s.samples, 100);
    EXPECT_DOUBLE_EQ(s.p50_ms, 50.0);
    EXPECT_DOUBLE_EQ(s.p90_ms, 90.0);
    EXPECT_EQ(s.beyond_p90, 10);

    ns.resize(50); // 100..51 ms
    EXPECT_EQ(summarize(ns).beyond_p90, 5);
}

TEST(StepStats, RescalingToTheNominalSpeedUsesTheMedianReference)
{
    const auto nominal = static_cast<uint64_t>(kNominalReferenceNs);
    // A host running at half speed: the reference took twice as long
    // (one outlier aside), so a 40 ms step counts as 20 ms.
    EXPECT_DOUBLE_EQ(
        rescaleToNominal(40 * kMs, {2 * nominal, 9 * nominal, 2 * nominal}),
        20.0 * kMs);
    EXPECT_DOUBLE_EQ(rescaleToNominal(40 * kMs, {nominal}), 40.0 * kMs);
}

TEST(StepStats, MedianOfSetups)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

Span
makeSpan(const std::string &name, int64_t parent, uint64_t start,
         uint64_t end, std::map<std::string, uint64_t> sites)
{
    Span s;
    s.name = name;
    s.parent = parent;
    s.step = 0;
    s.start_ns = start;
    s.end_ns = end;
    s.site_ns = std::move(sites);
    return s;
}

TEST(Spans, SelfTimeSubtractsChildrenAndCoveredSitesOnce)
{
    std::vector<Span> spans = {
        makeSpan("step", -1, 0, 200, {{"a", 70}, {"b", 5}}),
        makeSpan("layer", 0, 0, 100, {{"a", 50}, {"b", 5}}),
        makeSpan("inner", 1, 10, 40, {{"a", 20}}),
        makeSpan("layer", 0, 120, 150, {}),
    };
    // layer #1: 100 - child 30 - (50 - 20 of "a" inside the child) = 40;
    // layer #3 has nothing to take away: 30.
    EXPECT_EQ(totalSelfNs(spans, "layer", {"a"}), 70u);
    EXPECT_EQ(totalSelfNs(spans, "layer", {"a", "b"}), 65u);
    // step: 200 - children (100 + 30) - "a" outside them (70 - 50) = 50.
    EXPECT_EQ(totalSelfNs(spans, "step", {"a"}), 50u);
    // A cover bigger than the span clamps at zero.
    spans[2].site_ns["a"] = 500;
    EXPECT_EQ(totalSelfNs(spans, "inner", {"a"}), 0u);

    int64_t calls = 0;
    EXPECT_EQ(totalNs(spans, "layer", 0, 0, &calls), 130u);
    EXPECT_EQ(calls, 2);
    EXPECT_EQ(totalNs(spans, "layer", 1, 9), 0u);
}

TEST(Spans, TracerNestsSpansAndStampsSteps)
{
    Tracer tracer;
    EXPECT_EQ(tracer.open("off"), -1); // disabled: nothing recorded
    tracer.setEnabled(true);
    tracer.setStep(-1);
    {
        ScopedSpan setup(tracer, "setup");
    }
    tracer.setStep(7);
    {
        ScopedSpan outer(tracer, "outer");
        ScopedSpan inner(tracer, "inner");
    }
    const std::vector<Span> &spans = tracer.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].step, -1);
    EXPECT_EQ(spans[1].parent, -1);
    EXPECT_EQ(spans[2].parent, 1);
    EXPECT_EQ(spans[2].step, 7);
    EXPECT_LE(spans[1].start_ns, spans[2].start_ns);
    EXPECT_GE(spans[1].end_ns, spans[2].end_ns);
    EXPECT_EQ(tracer.toJson().at("spans").size(), 3u);
}

sim::ServingReport
serveSmallTrace()
{
    const sim::ServingSim serving(workloads::networkByName("Mnist-A"),
                                  reram::DeviceParams());
    // An overload: a queue of 4 must shed part of a 64-request burst.
    sim::ServingConfig config;
    config.queue_capacity = 4;
    return serving.run(sim::ArrivalTrace::bursty(64, 16, 40, 5), config);
}

std::string
emit(const sim::ServingReport &report)
{
    std::string out;
    for (const sim::CompletionRecord &rec : report.completions)
        out += rec.toJson().dump() + "\n";
    return out + report.toJson().dump() + "\n";
}

TEST(Checks, DoctoredServingReportFails)
{
    const sim::ServingReport good = serveSmallTrace();
    ASSERT_GT(good.shed_count, 0);
    EXPECT_EQ(checkServing(good), "");

    sim::ServingReport bad = good;
    bad.shed_count -= 1;
    EXPECT_NE(checkServing(bad), "");

    bad = good;
    bad.sched.structural_hazards = 1;
    EXPECT_NE(checkServing(bad), "");

    bad = good;
    bad.p95_latency_cycles = bad.p99_latency_cycles + 1;
    EXPECT_NE(checkServing(bad), "");

    bad = good;
    for (sim::CompletionRecord &rec : bad.completions) {
        if (rec.admitted) {
            rec.latency_cycles += 1;
            break;
        }
    }
    EXPECT_NE(checkServing(bad), "");
}

TEST(Checks, EmittedNdjsonMustParseBackToTheSameIds)
{
    const sim::ServingReport report = serveSmallTrace();
    const std::string good = emit(report);
    EXPECT_EQ(checkEmitted(good, report), "");

    sim::ServingReport other = report;
    other.completions[3].id = 99;
    EXPECT_NE(checkEmitted(emit(other), report), "");
    EXPECT_NE(checkEmitted(good.substr(0, good.size() / 2), report), "");
    EXPECT_NE(checkEmitted("{\"id\": 0,\n" + good, report), "");
}

TEST(Checks, NanLossOrImpossibleAccuracyFails)
{
    EXPECT_EQ(checkTraining(0.7, 0.25), "");
    EXPECT_NE(checkTraining(std::numeric_limits<double>::quiet_NaN(), 0.5),
              "");
    EXPECT_NE(checkTraining(INFINITY, 0.5), "");
    EXPECT_NE(checkTraining(0.7, 1.5), "");
    EXPECT_NE(checkTraining(0.7, -0.1), "");
}

/** A workload whose third step returns a wrong answer. */
class DoctoredWorkload final : public Workload
{
  public:
    const char *name() const override { return "doctored"; }
    int64_t threads() const override { return 1; }
    double items(int64_t) const override { return 1.0; }
    std::vector<std::string> bypassedLayers() const override { return {}; }
    void setup(uint64_t, Tracer &) override { ++setups; }
    void step(int64_t i, Tracer &) override { loss_ = i == 2 ? NAN : 0.5; }
    std::string verify(int64_t) override { return checkTraining(loss_, 0.5); }

    int setups = 0;

  private:
    double loss_ = 0.0;
};

TEST(Harness, AWrongStepIsCountedAsFailed)
{
    DoctoredWorkload w;
    RunOptions opt;
    opt.seconds = 0.01;
    const Result r = runUntraced(w, opt);
    EXPECT_EQ(w.setups, opt.setups);
    EXPECT_FALSE(r.correct);
    EXPECT_EQ(r.failed, 1);
    EXPECT_GE(r.attempted, opt.warmup + 1);
    const json::Value out = r.toJson();
    EXPECT_FALSE(out.at("correct").asBool());
    EXPECT_EQ(out.at("failed").asInt(), 1);
    std::set<std::string> names;
    for (const auto &[name, metric] : out.at("metrics").members()) {
        names.insert(name);
        EXPECT_TRUE(metric.at("value").isNumber());
        EXPECT_TRUE(metric.at("unit").isString());
    }
    EXPECT_EQ(names, (std::set<std::string>{"throughput", "step_p50_ms",
                                            "setup_s", "peak_rss_mb"}));
}

TEST(Harness, LayerMetricNamesAreUnique)
{
    std::set<std::string> names;
    for (const auto &[name, unit] : layerMetricUnits()) {
        EXPECT_TRUE(names.insert(name).second) << name;
        EXPECT_FALSE(unit.empty());
    }
    EXPECT_LE(names.size(), 128u);
}

} // namespace
