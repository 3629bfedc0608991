/**
 * @file
 * Tests of the observability layer: the JSON writer/parser, the
 * Chrome-trace recorder and the validated reporting API.
 *
 * The determinism tests assert that a stats dump, a trace and the
 * trainer's work counters are byte-identical at any worker thread
 * count, because every counter is committed from serial code or from
 * deterministic values.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "arch/granularity.hh"
#include "arch/mapping.hh"
#include "arch/pipeline.hh"
#include "common/arena.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "common/trace.hh"
#include "core/pipelined_trainer.hh"
#include "nn/layers.hh"
#include "sim/simulator.hh"
#include "workloads/layer_spec.hh"

namespace pipelayer {
namespace {

// ---------------------------------------------------------------------
// JSON value model + writer + parser
// ---------------------------------------------------------------------

TEST(Json, EscapesControlAndQuoteCharacters)
{
    // escape() returns the quoted JSON string literal.
    EXPECT_EQ(json::Value::escape("plain"), "\"plain\"");
    EXPECT_EQ(json::Value::escape("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(json::Value::escape("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(json::Value::escape("a\nb\tc"), "\"a\\nb\\tc\"");
    EXPECT_EQ(json::Value::escape(std::string("a\x01z")),
              "\"a\\u0001z\"");
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    json::Value v = json::Value::object();
    v["zeta"] = json::Value(1);
    v["alpha"] = json::Value(2);
    v["mid"] = json::Value(3);
    const auto &members = v.members();
    ASSERT_EQ(members.size(), 3u);
    EXPECT_EQ(members[0].first, "zeta");
    EXPECT_EQ(members[1].first, "alpha");
    EXPECT_EQ(members[2].first, "mid");
}

TEST(Json, RoundTripsThroughDumpAndParse)
{
    json::Value v = json::Value::object();
    v["name"] = json::Value("pipelayer \"quoted\"\n");
    v["count"] = json::Value(int64_t{1234567890123});
    v["ratio"] = json::Value(0.1);
    v["neg"] = json::Value(-2.5e-8);
    v["yes"] = json::Value(true);
    v["no"] = json::Value(false);
    v["nothing"] = json::Value();
    json::Value arr = json::Value::array();
    for (int i = 0; i < 4; ++i)
        arr.push(json::Value(i));
    v["seq"] = std::move(arr);

    for (int indent : {-1, 0, 1, 2}) {
        const json::Value back = json::parse(v.dump(indent));
        EXPECT_TRUE(back == v) << "indent " << indent;
    }
}

TEST(Json, NumbersSurviveRoundTripExactly)
{
    for (double x : {0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e-300, 1e300,
                     3.141592653589793, 42.45, 1485.0}) {
        const json::Value v(x);
        const json::Value back = json::parse(v.dump());
        EXPECT_EQ(back.asNumber(), x) << v.dump();
    }
}

TEST(Json, AsIntIsExact)
{
    EXPECT_EQ(json::parse("17").asInt(), 17);
    EXPECT_EQ(json::parse("-9223372036854775808").asInt(),
              std::numeric_limits<int64_t>::min());
    for (const char *text :
         {"2.7", "-0.5", "1e300", "9223372036854775808"}) {
        try {
            json::parse(text).asInt("'field'");
            ADD_FAILURE() << text << " accepted";
        } catch (const ConfigError &err) {
            EXPECT_NE(std::string(err.what()).find("'field'"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_THROW(json::parse(""), json::ParseError);
    EXPECT_THROW(json::parse("{"), json::ParseError);
    EXPECT_THROW(json::parse("[1,]"), json::ParseError);
    EXPECT_THROW(json::parse("{\"a\":1,}"), json::ParseError);
    EXPECT_THROW(json::parse("\"unterminated"), json::ParseError);
    EXPECT_THROW(json::parse("tru"), json::ParseError);
    EXPECT_THROW(json::parse("1 2"), json::ParseError);
}

TEST(Json, ParsesUnicodeEscapes)
{
    const json::Value v = json::parse("\"a\\u00e9b\"");
    EXPECT_EQ(v.asString(), "a\xc3\xa9"
                            "b");
}

TEST(Json, TableRendersCsvAndJson)
{
    Table t({"name", "value"});
    t.addRow({"plain", "1"});
    t.addSeparator();
    t.addRow({"with,comma", "q\"uote"});
    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(),
              "name,value\nplain,1\n\"with,comma\",\"q\"\"uote\"\n");

    const json::Value rows = t.toJson();
    ASSERT_EQ(rows.size(), 2u); // separator dropped
    EXPECT_EQ(rows.at(size_t{0}).at("name").asString(), "plain");
    EXPECT_EQ(rows.at(size_t{1}).at("value").asString(), "q\"uote");
}

// ---------------------------------------------------------------------
// SimReport toJson schema + Job validation
// ---------------------------------------------------------------------

workloads::NetworkSpec
chainSpec(int64_t depth)
{
    workloads::NetworkSpec spec;
    spec.name = "obs-chain";
    for (int64_t i = 0; i < depth; ++i)
        spec.layers.push_back(workloads::LayerSpec::innerProduct(32, 32));
    return spec;
}

TEST(SimReportJson, MatchesDocumentedSchema)
{
    const sim::Simulator simulator(chainSpec(3), reram::DeviceParams());
    const sim::SimReport report =
        simulator.run(sim::Job::training(8, 32));
    const json::Value v = report.toJson();

    // The top-level member list is the documented schema
    // (docs/observability.md); a change here is a breaking change for
    // BENCH_*.json consumers and must update the doc.
    std::vector<std::string> keys;
    for (const auto &kv : v.members())
        keys.push_back(kv.first);
    const std::vector<std::string> expected = {
        "network", "config", "logical_cycles", "cycle_time_s",
        "total_time_s", "time_per_image_s", "throughput_img_s",
        "energy", "energy_per_image_j", "area_mm2", "morphable_arrays",
        "memory_buffer_entries", "ops_per_image", "gops_per_s",
        "gops_per_s_per_mm2", "gops_per_w", "buffer_violations",
        "structural_hazards", "per_layer"};
    EXPECT_EQ(keys, expected);

    EXPECT_EQ(v.at("network").asString(), "obs-chain");
    EXPECT_EQ(v.at("config").at("phase").asString(), "training");
    EXPECT_EQ(v.at("config").at("batch_size").asInt(), 8);
    EXPECT_EQ(v.at("logical_cycles").asInt(), report.logical_cycles);
    EXPECT_DOUBLE_EQ(v.at("energy").at("total_j").asNumber(),
                     report.energy.total());
    ASSERT_EQ(v.at("per_layer").size(), 3u);
    const json::Value &layer0 = v.at("per_layer").at(size_t{0});
    EXPECT_DOUBLE_EQ(layer0.at("forward_energy_j").asNumber(),
                     report.per_layer[0].forward_energy);

    // And the whole report round-trips through the writer.
    EXPECT_TRUE(json::parse(v.dump(1)) == v);
}

TEST(JobValidation, ThrowsTypedErrorsInsteadOfAsserting)
{
    sim::Job bad;
    bad.batch_size = 0;
    EXPECT_THROW(bad.validate(), ConfigError);

    bad = sim::Job();
    bad.num_images = -4;
    EXPECT_THROW(bad.validate(), ConfigError);

    bad = sim::Job();
    bad.phase = sim::Phase::Training;
    bad.batch_size = 64;
    bad.num_images = 100; // not a multiple of 64
    EXPECT_THROW(bad.validate(), ConfigError);

    // Testing phase has no divisibility requirement.
    sim::Job ok = sim::Job::testing(100);
    ok.batch_size = 64;
    EXPECT_NO_THROW(ok.validate());

    EXPECT_THROW(sim::Job::training(64, 100), ConfigError);
    EXPECT_NO_THROW(sim::Job::training(64, 128));

    const sim::Simulator simulator(chainSpec(2), reram::DeviceParams());
    sim::Job job;
    job.phase = sim::Phase::Training;
    job.batch_size = 3;
    job.num_images = 10;
    EXPECT_THROW(simulator.run(job), ConfigError);
}

// ---------------------------------------------------------------------
// Trace recorder
// ---------------------------------------------------------------------

TEST(TraceRecorder, EmitsValidNestedChromeTrace)
{
    trace::TraceRecorder rec("unit-test");
    const int64_t t0 = rec.addTrack("outer");
    rec.begin(t0, "span", "cat", 0);
    rec.begin(t0, "inner", "cat", 1);
    rec.end(t0, 3);   // inner: [1, 3)
    rec.end(t0, 5);   // outer: [0, 5)
    rec.complete(t0, "tail", "cat", 5, 2);

    const json::Value doc = json::parse(rec.toJson().dump(1));
    const json::Value &events = doc.at("traceEvents");
    int64_t x_events = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        if (events.at(i).at("ph").asString() == "X")
            ++x_events;
    }
    EXPECT_EQ(x_events, 3);
    EXPECT_EQ(rec.lastCycle(), 7);
}

TEST(PipelineSchedulerTrace, CycleCountMatchesPaperFormula)
{
    const int64_t depth = 3, batch = 4, images = 8;
    const auto spec = chainSpec(depth);
    const reram::DeviceParams params;
    const auto g = arch::GranularityConfig::naive(spec);
    const arch::NetworkMapping map(spec, g, params, true, batch);
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = batch;
    config.num_images = images;
    arch::PipelineScheduler scheduler(map.depth(), config);
    trace::TraceRecorder rec("sched");
    scheduler.setTrace(&rec);
    const arch::ScheduleStats stats = scheduler.run();

    EXPECT_EQ(stats.total_cycles,
              arch::PipelineScheduler::analyticTrainingCycles(
                  depth, images, batch, true));
    EXPECT_EQ(rec.lastCycle(), stats.total_cycles);
    // One track per unit row: L forward, 1 seed, L-1 error-back,
    // L derivative, 1 update.
    EXPECT_EQ(rec.trackCount(), 3 * depth + 1);
    // The trace parses as JSON.
    EXPECT_NO_THROW(json::parse(rec.toJson().dump()));
}

// ---------------------------------------------------------------------
// PipelinedTrainer: counters, trace, determinism across threads
// ---------------------------------------------------------------------

nn::Network
trainerMlp(uint64_t seed)
{
    Rng rng(seed);
    nn::Network net("obs-mlp", {1, 8, 8});
    net.add(std::make_unique<nn::FlattenLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(64, 24, rng));
    net.add(std::make_unique<nn::SigmoidLayer>());
    net.add(std::make_unique<nn::InnerProductLayer>(24, 4, rng));
    return net;
}

std::pair<std::vector<Tensor>, std::vector<int64_t>>
trainerBatch(int64_t n, uint64_t seed)
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

TEST(TrainerObservability, TraceSpansLogicalCyclesExactly)
{
    nn::Network net = trainerMlp(7);
    core::PipelinedTrainer trainer(net);
    trace::TraceRecorder rec("trainer");
    trainer.setTrace(&rec);
    const auto [inputs, labels] = trainerBatch(6, 21);
    const auto result = trainer.trainBatch(inputs, labels, 0.05f);

    EXPECT_EQ(result.logical_cycles, 2 * trainer.depth() + 6 + 1);
    EXPECT_EQ(rec.lastCycle(), result.logical_cycles);
    // The scheduler's Fig. 6 rows: L forward, 1 seed, L-1
    // error-back, L derivative, 1 update.
    EXPECT_EQ(rec.trackCount(), 3 * trainer.depth() + 1);

    // Work accounting: L forwards + 1 seed + L backward pairs per
    // image, all committed through phase 2.
    const int64_t L = trainer.depth();
    EXPECT_EQ(result.forward_ops, 6 * L);
    EXPECT_EQ(result.error_seeds, 6);
    EXPECT_EQ(result.backward_ops, 6 * L);
    EXPECT_EQ(result.commits,
              result.forward_ops + result.error_seeds +
                  result.backward_ops);

    // A second batch appends; the trace keeps growing monotonically.
    const auto result2 = trainer.trainBatch(inputs, labels, 0.05f);
    EXPECT_EQ(rec.lastCycle(),
              result.logical_cycles + result2.logical_cycles);

    const json::Value doc = json::parse(rec.toJson().dump(1));
    EXPECT_GT(doc.at("traceEvents").size(), 0u);

    const json::Value rj = result.toJson();
    EXPECT_EQ(rj.at("logical_cycles").asInt(), result.logical_cycles);
    EXPECT_EQ(rj.at("commits").asInt(), result.commits);
}

TEST(TrainerObservability, TraceIsTheSchedulerTrace)
{
    nn::Network net = trainerMlp(9);
    core::PipelinedTrainer trainer(net);
    trace::TraceRecorder rec("fig6");
    trainer.setTrace(&rec);
    const auto [inputs, labels] = trainerBatch(5, 23);
    const auto first = trainer.trainBatch(inputs, labels, 0.05f);

    // One batch: byte-identical to a bare scheduler of the same shape.
    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 5;
    config.num_images = 5;
    arch::PipelineScheduler scheduler(trainer.depth(), config);
    trace::TraceRecorder want("fig6");
    scheduler.setTrace(&want);
    const arch::ScheduleStats stats = scheduler.run();
    EXPECT_EQ(rec.toJson().dump(), want.toJson().dump());
    EXPECT_EQ(first.logical_cycles, stats.total_cycles);

    // A second batch (of another size) appends on the same rows.
    const auto [more, more_labels] = trainerBatch(3, 29);
    const auto second = trainer.trainBatch(more, more_labels, 0.05f);
    EXPECT_EQ(rec.lastCycle(),
              first.logical_cycles + second.logical_cycles);
    EXPECT_EQ(rec.trackCount(), 3 * trainer.depth() + 1);
}

/**
 * Two pipelined batches at @p threads threads: their summed work
 * counters and the arena high-water mark after them, as JSON text.
 */
std::string
trainerTotals(int64_t threads)
{
    const int64_t saved = threadCount();
    setThreadCount(threads);
    nn::Network net = trainerMlp(13);
    core::PipelinedTrainer trainer(net);
    const auto [inputs, labels] = trainerBatch(8, 31);
    core::PipelinedBatchResult total;
    for (int batch = 0; batch < 2; ++batch) {
        const auto r = trainer.trainBatch(inputs, labels, 0.1f);
        total.mean_loss += r.mean_loss;
        total.logical_cycles += r.logical_cycles;
        total.peak_buffer_entries =
            std::max(total.peak_buffer_entries, r.peak_buffer_entries);
        total.forward_ops += r.forward_ops;
        total.error_seeds += r.error_seeds;
        total.backward_ops += r.backward_ops;
        total.commits += r.commits;
    }
    EXPECT_EQ(total.error_seeds, 16);
    EXPECT_EQ(total.commits, total.forward_ops + total.error_seeds +
                                 total.backward_ops);
    json::Value v = total.toJson();
    v["arena_peak_bytes"] = static_cast<int64_t>(arena::peakBytes());
    setThreadCount(saved);
    return v.dump();
}

TEST(Determinism, TrainerBatchTotalsAreIdenticalAcrossThreadCounts)
{
    EXPECT_EQ(trainerTotals(1), trainerTotals(4));
}

/** SimReport stats dump at @p threads threads. */
std::string
simStatsDump(int64_t threads)
{
    const int64_t saved = threadCount();
    setThreadCount(threads);
    const sim::Simulator simulator(chainSpec(4), reram::DeviceParams());
    const sim::SimReport report =
        simulator.run(sim::Job::training(8, 32));
    std::ostringstream os;
    report.dumpStats(os);
    setThreadCount(saved);
    return os.str();
}

TEST(Determinism, SimStatsDumpIsByteIdenticalAcrossThreadCounts)
{
    const std::string serial = simStatsDump(1);
    const std::string parallel = simStatsDump(4);
    EXPECT_EQ(serial, parallel);
    // Hierarchical per-layer names are present (ISSUE example).
    EXPECT_NE(serial.find("sim.obs-chain.layer3.forward_energy_j"),
              std::string::npos);
}

} // namespace
} // namespace pipelayer
