/**
 * @file
 * Tests of the serving telemetry stack (docs/observability.md,
 * "Serving telemetry"): the metrics::Sampler window arithmetic and
 * NDJSON schema, the request-lifecycle trace vocabulary emitted by
 * sim::ServingSim (async spans, flow arrows, counter tracks), the
 * byte-determinism contract CI relies on, and the pl_report
 * parse/table/diff logic with its bench_compare-style exit codes.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/parallel.hh"
#include "common/trace.hh"
#include "reram/params.hh"
#include "sim/arrival.hh"
#include "sim/serving.hh"
#include "tools/pl_report_lib.hh"
#include "workloads/model_zoo.hh"

namespace pipelayer {
namespace {

// ---------------------------------------------------------------------
// metrics::percentile

TEST(Percentile, MatchesNearestRankRule)
{
    EXPECT_EQ(metrics::percentile({}, 50), 0);
    EXPECT_EQ(metrics::percentile({7}, 50), 7);
    EXPECT_EQ(metrics::percentile({7}, 99), 7);
    std::vector<int64_t> ladder;
    for (int64_t i = 1; i <= 100; ++i)
        ladder.push_back(i);
    EXPECT_EQ(metrics::percentile(ladder, 50), 50);
    EXPECT_EQ(metrics::percentile(ladder, 95), 95);
    EXPECT_EQ(metrics::percentile(ladder, 99), 99);
    EXPECT_EQ(metrics::percentile({1, 2, 3}, 50), 2);
    EXPECT_EQ(metrics::percentile({1, 2, 3}, 95), 3);
    EXPECT_EQ(metrics::percentile({3, 5}, 50), 3);
    EXPECT_EQ(metrics::percentile({3, 5}, 95), 5);
}

// ---------------------------------------------------------------------
// metrics::Sampler

TEST(Sampler, RejectsNonPositiveInterval)
{
    EXPECT_THROW(metrics::Sampler(0), ConfigError);
    EXPECT_THROW(metrics::Sampler(-4), ConfigError);
    EXPECT_NO_THROW(metrics::Sampler(1));
}

TEST(Sampler, DuplicateChannelNamePanicsAcrossKinds)
{
    metrics::Sampler sampler(8);
    sampler.counter("shared");
    EXPECT_DEATH(sampler.counter("shared"), "registered twice");
    EXPECT_DEATH(sampler.gauge("shared"), "registered twice");
    EXPECT_DEATH(sampler.distribution("shared"), "registered twice");
}

TEST(Sampler, SchemaGolden)
{
    // Pins the NDJSON record shape the whole toolchain agrees on
    // (json_lint checks it, pl_report parses it): member order,
    // delta/total counters, distribution summary fields, trailer.
    metrics::Sampler sampler(4);
    const int c = sampler.counter("c");
    const int g = sampler.gauge("g");
    const int d = sampler.distribution("d");
    sampler.add(c, 0);
    sampler.add(c, 1);
    sampler.set(g, 2, 7);
    sampler.observe(d, 1, 5);
    sampler.observe(d, 6, 3);
    sampler.finish(8);

    ASSERT_EQ(sampler.records().size(), 3u); // 2 windows + trailer
    EXPECT_EQ(sampler.records()[0].dump(),
              "{\"metrics_version\":1,\"cycle\":0,\"end_cycle\":4,"
              "\"interval\":4,"
              "\"counters\":{\"c\":{\"delta\":2,\"total\":2}},"
              "\"gauges\":{\"g\":7},"
              "\"distributions\":{\"d\":{\"count\":1,\"min\":5,"
              "\"max\":5,\"sum\":5,\"p50\":5,\"p95\":5,\"p99\":5}}}");
    EXPECT_EQ(sampler.records()[1].dump(),
              "{\"metrics_version\":1,\"cycle\":4,\"end_cycle\":8,"
              "\"interval\":4,"
              "\"counters\":{\"c\":{\"delta\":0,\"total\":2}},"
              "\"gauges\":{\"g\":7},"
              "\"distributions\":{\"d\":{\"count\":1,\"min\":3,"
              "\"max\":3,\"sum\":3,\"p50\":3,\"p95\":3,\"p99\":3}}}");
    EXPECT_EQ(sampler.trailer().dump(),
              "{\"metrics_version\":1,\"trailer\":true,\"interval\":4,"
              "\"windows\":2,\"end_cycle\":8,"
              "\"totals\":{\"c\":2},"
              "\"distributions\":{\"d\":{\"count\":2,\"min\":3,"
              "\"max\":5,\"sum\":8,\"p50\":3,\"p95\":5,\"p99\":5}}}");
}

TEST(Sampler, IntervalOneGivesOneWindowPerCycle)
{
    metrics::Sampler sampler(1);
    const int c = sampler.counter("c");
    sampler.add(c, 0);
    sampler.add(c, 2);
    sampler.finish(3);
    ASSERT_EQ(sampler.records().size(), 4u); // 3 windows + trailer
    const auto delta = [&](size_t w) {
        return sampler.records()[w].at("counters").at("c").at("delta")
            .asInt();
    };
    EXPECT_EQ(delta(0), 1);
    EXPECT_EQ(delta(1), 0);
    EXPECT_EQ(delta(2), 1);
    EXPECT_EQ(sampler.trailer().at("totals").at("c").asInt(), 2);
}

TEST(Sampler, IntervalLargerThanHorizonGivesOnePartialWindow)
{
    metrics::Sampler sampler(1000);
    const int c = sampler.counter("c");
    sampler.add(c, 5);
    sampler.finish(10);
    ASSERT_EQ(sampler.records().size(), 2u);
    EXPECT_EQ(sampler.records()[0].at("cycle").asInt(), 0);
    EXPECT_EQ(sampler.records()[0].at("end_cycle").asInt(), 10);
    EXPECT_EQ(sampler.trailer().at("windows").asInt(), 1);
    EXPECT_EQ(sampler.trailer().at("end_cycle").asInt(), 10);
}

TEST(Sampler, EmptyRunEmitsOnlyTheTrailer)
{
    metrics::Sampler sampler(64);
    sampler.counter("c");
    sampler.finish(0);
    ASSERT_EQ(sampler.records().size(), 1u);
    EXPECT_EQ(sampler.trailer().at("windows").asInt(), 0);
    EXPECT_EQ(sampler.trailer().at("end_cycle").asInt(), 0);
    EXPECT_EQ(sampler.trailer().at("totals").at("c").asInt(), 0);
}

TEST(Sampler, HorizonStretchesOverLateObservations)
{
    // finish(end) covers observations past end: the serving policy
    // hands the scheduler's total_cycles, but completions can land at
    // exactly that cycle.
    metrics::Sampler sampler(4);
    const int d = sampler.distribution("d");
    sampler.observe(d, 9, 1);
    sampler.finish(2);
    EXPECT_EQ(sampler.trailer().at("windows").asInt(), 3);
    EXPECT_EQ(sampler.trailer().at("end_cycle").asInt(), 10);
    EXPECT_EQ(sampler.records()[2].at("distributions").at("d")
                  .at("count").asInt(), 1);
}

TEST(Sampler, GaugeCarriesForwardAcrossIdleWindows)
{
    metrics::Sampler sampler(2);
    const int g = sampler.gauge("g");
    sampler.set(g, 3, 5);
    sampler.finish(8);
    ASSERT_EQ(sampler.records().size(), 5u);
    const auto value = [&](size_t w) {
        return sampler.records()[w].at("gauges").at("g").asInt();
    };
    EXPECT_EQ(value(0), 0); // nothing set yet
    EXPECT_EQ(value(1), 5);
    EXPECT_EQ(value(2), 5); // carried forward
    EXPECT_EQ(value(3), 5);
}

TEST(Sampler, FeedingAfterFinishPanics)
{
    metrics::Sampler sampler(4);
    const int c = sampler.counter("c");
    sampler.finish(4);
    EXPECT_DEATH(sampler.add(c, 0), "after finish");
}

TEST(Sampler, AttachedStatsSnapshotIntoTrailer)
{
    metrics::Sampler plain(4);
    plain.finish(4);
    EXPECT_EQ(plain.trailer().find("stats"), nullptr);

    metrics::Sampler sampler(4);
    json::Value stats = json::Value::object();
    stats["g.answer"] = 42;
    stats["g.half"] = 0.5;
    sampler.attachStats(stats);
    sampler.finish(4);
    EXPECT_EQ(sampler.trailer().at("stats"), stats);
    EXPECT_EQ(sampler.trailer().at("stats").dump(),
              "{\"g.answer\":42,\"g.half\":0.5}");
}

// ---------------------------------------------------------------------
// Serving integration: the channels ServingSim feeds and the trace
// vocabulary it emits.

sim::ServingSim
mnistServing()
{
    return sim::ServingSim(workloads::mnistA(), reram::DeviceParams());
}

TEST(ServingTelemetry, TrailerPercentilesMatchServingReport)
{
    // The sampler computes whole-run percentiles with the same
    // nearest-rank rule as the report, over the same completions —
    // they must agree exactly, which is what lets pl_report gate the
    // trailer against the bench_compare-gated report metrics.
    const sim::ServingSim serving = mnistServing();
    const sim::ArrivalTrace trace =
        sim::ArrivalTrace::poisson(512, 0.5, 17);
    const sim::ServingConfig config;
    metrics::Sampler sampler(64);
    const sim::ServingReport rep =
        serving.run(trace, config, nullptr, &sampler);

    const json::Value &latency =
        sampler.trailer().at("distributions").at(
            "serving.latency_cycles");
    EXPECT_EQ(latency.at("p50").asInt(), rep.p50_latency_cycles);
    EXPECT_EQ(latency.at("p95").asInt(), rep.p95_latency_cycles);
    EXPECT_EQ(latency.at("p99").asInt(), rep.p99_latency_cycles);
    EXPECT_EQ(latency.at("max").asInt(), rep.max_latency_cycles);
    EXPECT_EQ(latency.at("count").asInt(), rep.admitted_count);

    const json::Value &totals = sampler.trailer().at("totals");
    EXPECT_EQ(totals.at("serving.arrivals").asInt(), rep.arrival_count);
    EXPECT_EQ(totals.at("serving.admitted").asInt(), rep.admitted_count);
    EXPECT_EQ(totals.at("serving.shed").asInt(), rep.shed_count);
    EXPECT_EQ(totals.at("serving.launches").asInt(), rep.batch_count);

    // The trailer snapshots the summary's counts, so the stream is
    // self-reconciling (json_lint cross-checks these pairs).
    const json::Value &stats = sampler.trailer().at("stats");
    EXPECT_EQ(stats.at("serving.arrival_count").asNumber(),
              static_cast<double>(rep.arrival_count));
}

TEST(ServingTelemetry, WindowCountersAccumulateToTheTrailerTotals)
{
    const sim::ServingSim serving = mnistServing();
    metrics::Sampler sampler(32);
    serving.run(sim::ArrivalTrace::poisson(256, 0.5, 3),
                sim::ServingConfig(), nullptr, &sampler);
    int64_t sum = 0;
    for (size_t w = 0; w + 1 < sampler.records().size(); ++w) {
        const json::Value &c = sampler.records()[w].at("counters").at(
            "serving.completions");
        sum += c.at("delta").asInt();
        EXPECT_EQ(c.at("total").asInt(), sum);
    }
    EXPECT_EQ(sum, sampler.trailer().at("totals")
                       .at("serving.completions").asInt());
}

TEST(ServingTelemetry, StreamAndTraceAreByteIdenticalAcrossThreads)
{
    // Both artifacts are logical-cycle arithmetic; PL_THREADS must
    // not be observable in either byte (CI cmp-compares the files
    // pl_serve and bench_serving write at threads 1 and 4).
    const sim::ServingSim serving = mnistServing();
    const sim::ArrivalTrace trace =
        sim::ArrivalTrace::poisson(1024, 0.4, 21);
    const sim::ServingConfig config;
    const auto render = [&] {
        trace::TraceRecorder recorder("test");
        metrics::Sampler sampler(64);
        serving.run(trace, config, &recorder, &sampler);
        std::ostringstream metrics_os;
        sampler.write(metrics_os);
        return metrics_os.str() + recorder.toJson().dump();
    };
    const int64_t saved = threadCount();
    setThreadCount(1);
    const std::string t1 = render();
    setThreadCount(4);
    const std::string t4 = render();
    setThreadCount(saved);
    EXPECT_EQ(t1, t4);
}

TEST(ServingTelemetry, TraceCarriesTheRequestLifecycleVocabulary)
{
    const sim::ServingSim serving = mnistServing();
    trace::TraceRecorder recorder("test");
    sim::ServingConfig config;
    config.queue_capacity = 8; // force sheds at 2 req/cycle
    const sim::ServingReport rep =
        serving.run(sim::ArrivalTrace::poisson(256, 2.0, 9), config,
                    &recorder, nullptr);
    ASSERT_GT(rep.shed_count, 0);

    // All async spans closed, all flows paired: toJson() asserts.
    EXPECT_EQ(recorder.openAsyncCount(), 0);
    const json::Value doc = recorder.toJson();
    int64_t begins = 0, ends = 0, instants = 0, starts = 0,
            finishes = 0, counter_points = 0;
    for (const auto &event : doc.at("traceEvents").elements()) {
        const std::string ph = event.at("ph").asString();
        begins += ph == "b";
        ends += ph == "e";
        instants += ph == "n";
        starts += ph == "s";
        finishes += ph == "f";
        counter_points += ph == "C";
    }
    // One span per request plus nested queued/exec per admit.
    EXPECT_EQ(begins, rep.arrival_count + 2 * rep.admitted_count);
    EXPECT_EQ(ends, begins);                  // balanced
    EXPECT_EQ(instants, rep.arrival_count);   // admitted/shed markers
    EXPECT_EQ(starts, rep.admitted_count);    // one flow per admit
    EXPECT_EQ(finishes, starts);
    EXPECT_GT(counter_points, 0);

    // The three counter tracks exist even when a series never fires,
    // and the shed running total is monotone by construction.
    for (const char *name : {"serving.queue_depth", "serving.in_flight",
                             "serving.shed_total"}) {
        EXPECT_FALSE(recorder.counterSeries(name).empty()) << name;
    }
    const auto sheds = recorder.counterSeries("serving.shed_total");
    int64_t prev = -1;
    for (const auto &point : sheds) {
        EXPECT_GE(point.second, prev);
        prev = point.second;
    }
    EXPECT_EQ(prev, rep.shed_count);
}

TEST(ServingTelemetry, UnbalancedSpansAndFlowsDieAtSerialisation)
{
    {
        trace::TraceRecorder recorder("test");
        recorder.asyncBegin("req0", "request", 0, 0);
        EXPECT_DEATH(recorder.toJson(), "open async span");
    }
    {
        trace::TraceRecorder recorder("test");
        const int64_t track = recorder.addTrack("t");
        recorder.complete(track, "slice", "cat", 0, 4);
        recorder.flowStart("flow", "req", 0, track, 1);
        EXPECT_DEATH(recorder.toJson(), "exactly one of each");
    }
    {
        // A flow endpoint with no enclosing slice on its track.
        trace::TraceRecorder recorder("test");
        const int64_t track = recorder.addTrack("t");
        recorder.complete(track, "slice", "cat", 0, 4);
        recorder.flowStart("flow", "req", 0, track, 1);
        recorder.flowFinish("flow", "req", 0, track, 99);
        EXPECT_DEATH(recorder.toJson(), "no enclosing slice");
    }
}

// ---------------------------------------------------------------------
// pl_report: parse, table, diff, exit codes.

/** A serving metrics stream rendered to NDJSON text. */
std::string
servingStream(double rate, uint64_t seed, int64_t interval = 64)
{
    const sim::ServingSim serving = mnistServing();
    metrics::Sampler sampler(interval);
    serving.run(sim::ArrivalTrace::poisson(256, rate, seed),
                sim::ServingConfig(), nullptr, &sampler);
    std::ostringstream os;
    sampler.write(os);
    return os.str();
}

TEST(PlReport, ParseMetricsRoundTripsAndValidates)
{
    const std::string text = servingStream(0.5, 11);
    const report::MetricsStream stream = report::parseMetrics(text);
    EXPECT_GT(stream.windows.size(), 1u);
    EXPECT_EQ(stream.interval(), 64);
    EXPECT_EQ(stream.trailer.at("windows").asInt(),
              static_cast<int64_t>(stream.windows.size()));

    // No trailer: the stream was truncated.
    const size_t last_line = text.rfind('\n', text.size() - 2);
    EXPECT_THROW(report::parseMetrics(text.substr(0, last_line + 1)),
                 ConfigError);
    // Garbage line.
    EXPECT_THROW(report::parseMetrics("not json\n"), ConfigError);
    // Wrong version.
    EXPECT_THROW(report::parseMetrics("{\"metrics_version\":2}\n"),
                 ConfigError);
    // Non-monotone window cycles.
    const report::MetricsStream two = report::parseMetrics(text);
    std::ostringstream shuffled;
    shuffled << two.windows[1].dump() << "\n"
             << two.windows[0].dump() << "\n"
             << two.trailer.dump() << "\n";
    EXPECT_THROW(report::parseMetrics(shuffled.str()), ConfigError);
}

TEST(PlReport, RenderTableShowsWindowsAndTotals)
{
    const report::MetricsStream stream =
        report::parseMetrics(servingStream(0.5, 11));
    const std::string table = report::renderTable(stream);
    EXPECT_NE(table.find("cycle"), std::string::npos);
    EXPECT_NE(table.find("p99"), std::string::npos);
    EXPECT_NE(table.find("total"), std::string::npos);
    // One row per window, plus header/separator/totals.
    const size_t rows =
        static_cast<size_t>(std::count(table.begin(), table.end(),
                                       '\n'));
    EXPECT_GE(rows, stream.windows.size() + 2);
}

TEST(PlReport, SelfDiffPassesAndRegressionFlagsTheWindow)
{
    const report::MetricsStream base =
        report::parseMetrics(servingStream(0.5, 11));
    const report::DiffResult self = report::diffStreams(base, base);
    EXPECT_TRUE(self.errors.empty());
    EXPECT_FALSE(self.deltas.empty());
    EXPECT_EQ(self.exitCode(1.5), report::kPass);

    // Inflate one window's p99 in a copy: exactly that (window,
    // series) pair regresses and the exit code flips.
    report::MetricsStream worse = base;
    worse.windows[1]["distributions"]["serving.latency_cycles"]
        ["p99"] = int64_t{999999};
    const report::DiffResult diff = report::diffStreams(base, worse);
    EXPECT_TRUE(diff.errors.empty());
    const auto regs = diff.regressions(1.5);
    ASSERT_EQ(regs.size(), 1u);
    EXPECT_EQ(regs[0].path, "distributions.serving.latency_cycles.p99");
    EXPECT_EQ(regs[0].cycle, base.windows[1].at("cycle").asInt());
    EXPECT_EQ(regs[0].current, 999999.0);
    EXPECT_EQ(diff.exitCode(1.5), report::kRegression);
    const json::Value doc = diff.toJson(1.5);
    EXPECT_EQ(doc.at("report_version").asInt(), 1);
    EXPECT_EQ(doc.at("regressions").size(), 1u);
}

TEST(PlReport, ThroughputRegressionIsDirectional)
{
    // completions is higher-is-better: halving it regresses, doubling
    // it does not.
    const report::MetricsStream base =
        report::parseMetrics(servingStream(0.5, 11));
    report::MetricsStream worse = base;
    for (json::Value &rec : worse.windows) {
        json::Value &c =
            rec["counters"]["serving.completions"]["delta"];
        c = c.asInt() / 4;
    }
    const report::DiffResult diff = report::diffStreams(base, worse);
    bool saw_completions = false;
    for (const report::WindowDelta &d : diff.regressions(1.5)) {
        EXPECT_EQ(d.path, "counters.serving.completions.delta");
        EXPECT_FALSE(d.lower_is_better);
        saw_completions = true;
    }
    EXPECT_TRUE(saw_completions);
}

TEST(PlReport, StructuralMismatchesAreErrorsNotRegressions)
{
    const report::MetricsStream base =
        report::parseMetrics(servingStream(0.5, 11));
    // Interval mismatch.
    const report::MetricsStream other =
        report::parseMetrics(servingStream(0.5, 11, 32));
    const report::DiffResult diff = report::diffStreams(base, other);
    EXPECT_FALSE(diff.errors.empty());
    EXPECT_EQ(diff.exitCode(1.5), report::kError);
    // Horizon divergence: drop the last window (and fix the trailer
    // count so parseMetrics accepts the stream).
    report::MetricsStream shorter = base;
    shorter.windows.pop_back();
    const report::DiffResult missing =
        report::diffStreams(base, shorter);
    EXPECT_FALSE(missing.errors.empty());
    EXPECT_EQ(missing.exitCode(1.5), report::kError);
}

TEST(PlReport, RunReportsBadPathsAsExitError)
{
    std::ostringstream os, err;
    EXPECT_EQ(report::run({"/nonexistent/metrics.ndjson"}, {}, 1.5, "",
                          os, err),
              report::kError);
    EXPECT_NE(err.str().find("cannot open"), std::string::npos);
    EXPECT_EQ(report::run({}, {}, 1.5, "", os, err), report::kError);
    EXPECT_EQ(report::run({"a", "b"}, {"only-one"}, 1.5, "", os, err),
              report::kError);
    EXPECT_EQ(report::run({"a", "b"}, {}, 0.5, "", os, err),
              report::kError);
}

} // namespace
} // namespace pipelayer
