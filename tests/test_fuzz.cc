/**
 * @file
 * Randomised property tests.  For a family of randomly generated (but
 * valid) CNNs, the whole stack must hold its invariants — spec
 * extraction validates, the mapping is consistent, the schedule
 * executes hazard-free at the paper's buffer sizing, and pipelined
 * training equals sequential training.  And every mutant of a valid
 * device-parameter file, job or arrival trace either parses or is
 * rejected with a typed ConfigError or json::ParseError.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "arch/granularity.hh"
#include "arch/mapping.hh"
#include "arch/pipeline.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "core/pipelined_trainer.hh"
#include "nn/layers.hh"
#include "nn/network.hh"
#include "reram/params_io.hh"
#include "sim/arrival.hh"
#include "sim/job.hh"
#include "sim/serving.hh"
#include "tools/bench_compare_lib.hh"
#include "tools/pl_report_lib.hh"
#include "workloads/model_zoo.hh"

namespace pipelayer {
namespace {

/** Build a random valid CNN over 1x12x12 inputs, 4 classes. */
nn::Network
randomNetwork(uint64_t seed)
{
    Rng rng(seed);
    nn::Network net("fuzz-" + std::to_string(seed), {1, 12, 12});
    int64_t c = 1, h = 12;

    const int64_t conv_blocks = 1 + static_cast<int64_t>(
        rng.uniformInt(3)); // 1..3
    for (int64_t b = 0; b < conv_blocks; ++b) {
        const int64_t out_c = 2 + static_cast<int64_t>(
            rng.uniformInt(5)); // 2..6
        // Alternate 3x3/pad-1 (shape-preserving) and 3x3/valid.
        const bool padded = rng.uniform() < 0.5 || h < 6;
        const int64_t pad = padded ? 1 : 0;
        if (!padded && h - 2 < 2)
            break;
        net.add(std::make_unique<nn::ConvLayer>(c, out_c, 3, 1, pad,
                                                rng));
        c = out_c;
        h = padded ? h : h - 2;
        if (rng.uniform() < 0.7)
            net.add(std::make_unique<nn::ReluLayer>());
        else
            net.add(std::make_unique<nn::SigmoidLayer>());
        if (h % 2 == 0 && h >= 4 && rng.uniform() < 0.6) {
            if (rng.uniform() < 0.5)
                net.add(std::make_unique<nn::MaxPoolLayer>(2));
            else
                net.add(std::make_unique<nn::AvgPoolLayer>(2));
            h /= 2;
        }
    }
    net.add(std::make_unique<nn::FlattenLayer>());
    const int64_t flat = c * h * h;
    if (rng.uniform() < 0.5) {
        const int64_t hidden = 8 + static_cast<int64_t>(
            rng.uniformInt(17));
        net.add(std::make_unique<nn::InnerProductLayer>(flat, hidden,
                                                        rng));
        net.add(std::make_unique<nn::ReluLayer>());
        net.add(std::make_unique<nn::InnerProductLayer>(hidden, 4, rng));
    } else {
        net.add(std::make_unique<nn::InnerProductLayer>(flat, 4, rng));
    }
    return net;
}

class FuzzTopology : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FuzzTopology, SpecAndMappingInvariantsHold)
{
    nn::Network net = randomNetwork(GetParam());
    const auto spec = workloads::specFromNetwork(net);
    spec.validate();
    EXPECT_EQ(spec.paramCount(), net.parameterCount());
    EXPECT_GE(spec.pipelineDepth(), 2);

    const reram::DeviceParams params;
    const auto g = arch::GranularityConfig::balanced(spec);
    const arch::NetworkMapping map(spec, g, params, true, 8);
    EXPECT_GT(map.morphableArrays(), 0);
    EXPECT_GT(map.areaMm2(), 0.0);
    EXPECT_GT(map.cycleTime(), 0.0);

    arch::ScheduleConfig config;
    config.pipelined = true;
    config.training = true;
    config.batch_size = 8;
    config.num_images = 24;
    const auto stats = arch::PipelineScheduler(map.depth(), config).run();
    EXPECT_EQ(stats.buffer_violations, 0);
    EXPECT_EQ(stats.structural_hazards, 0);
    EXPECT_EQ(stats.total_cycles,
              arch::PipelineScheduler::analyticTrainingCycles(
                  map.depth(), 24, 8, true));
}

TEST_P(FuzzTopology, PipelinedTrainingEqualsSequential)
{
    nn::Network piped = randomNetwork(GetParam());
    nn::Network serial = randomNetwork(GetParam());

    Rng rng(GetParam() ^ 0xabcdef);
    std::vector<Tensor> inputs;
    std::vector<int64_t> labels;
    for (int i = 0; i < 6; ++i) {
        Tensor x({1, 12, 12});
        for (int64_t j = 0; j < x.numel(); ++j)
            x.at(j) = static_cast<float>(rng.uniform());
        inputs.push_back(std::move(x));
        labels.push_back(static_cast<int64_t>(rng.uniformInt(4)));
    }

    core::PipelinedTrainer trainer(piped);
    const auto result = trainer.trainBatch(inputs, labels, 0.1f);
    const double serial_loss = serial.trainBatch(inputs, labels, 0.1f);
    EXPECT_EQ(result.mean_loss, serial_loss) << piped.describe();

    // Both run the same layer code and update: equal bytes.
    for (size_t l = 0; l < piped.numLayers(); ++l) {
        const auto pa = piped.layer(l).parameters();
        const auto pb = serial.layer(l).parameters();
        for (size_t k = 0; k < pa.size(); ++k) {
            EXPECT_EQ(0, std::memcmp(pa[k]->data(), pb[k]->data(),
                                     static_cast<size_t>(pa[k]->numel()) *
                                         sizeof(float)))
                << piped.describe() << ": layer " << l << " parameter "
                << k;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTopology,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77,
                                           88, 99, 110));

/**
 * @p text with one to three random edits: a byte XORed with a random
 * nonzero value, a run of up to 8 bytes erased, a truncation, or an
 * inserted token — JSON and key = value syntax, and numbers at and
 * past the ends of int64 and of the double range.
 */
std::string
mutate(const std::string &text, Rng &rng)
{
    static const char *const kTokens[] = {
        "\"", "{", "]", "=", "#", "-1", "1e999", "0x10",
        "99999999999999999999", "9223372036854775807"};
    std::string m = text;
    const uint64_t edits = 1 + rng.uniformInt(3);
    for (uint64_t e = 0; e < edits; ++e) {
        const size_t at = rng.uniformInt(m.size() + 1);
        switch (rng.uniformInt(8)) {
        case 0:
        case 1:
        case 2:
            if (at < m.size())
                m[at] ^= static_cast<char>(1 + rng.uniformInt(255));
            break;
        case 3:
        case 4:
            m.erase(at, 1 + rng.uniformInt(8));
            break;
        case 5:
            m.resize(at);
            break;
        default:
            m.insert(at, kTokens[rng.uniformInt(std::size(kTokens))]);
        }
    }
    return m;
}

/**
 * Parse @p mutants mutants of @p seeds, made by an Rng seeded with
 * @p rng_seed, with @p parse: each must return or throw ConfigError
 * or json::ParseError.  The seeds themselves must parse, and both
 * outcomes must occur.
 */
void
expectMutantsParseOrThrowTyped(
    const std::vector<std::string> &seeds,
    const std::function<void(const std::string &)> &parse,
    uint64_t rng_seed, int mutants)
{
    for (const std::string &seed : seeds)
        EXPECT_NO_THROW(parse(seed)) << seed;
    Rng rng(rng_seed);
    int parsed = 0;
    for (int i = 0; i < mutants; ++i) {
        const std::string text =
            mutate(seeds[rng.uniformInt(seeds.size())], rng);
        try {
            parse(text);
            ++parsed;
        } catch (const ConfigError &) {
        } catch (const json::ParseError &) {
        } catch (const std::exception &err) {
            ADD_FAILURE() << "threw '" << err.what() << "' on " << text;
        }
    }
    EXPECT_GT(parsed, 0);
    EXPECT_LT(parsed, mutants);
}

TEST(ParserFuzz, DeviceParamsMutantsParseOrThrowConfigError)
{
    std::ostringstream defaults;
    reram::writeDeviceParams(reram::DeviceParams(), defaults);
    expectMutantsParseOrThrowTyped(
        {defaults.str()},
        [](const std::string &text) {
            (void)reram::parseDeviceParams(text);
        },
        0xD3u, 20000);
}

TEST(ParserFuzz, JobMutantsParseOrThrowTyped)
{
    sim::Job training = sim::Job::training(16, 64);
    training.network = "Mnist-A";
    sim::Job chips = sim::Job::training(16, 64);
    chips.num_chips = 4;
    sim::Job serving = sim::Job::testing(8);
    serving.arrivals = sim::ArrivalTrace::poisson(8, 0.5, 7);
    std::vector<std::string> seeds;
    for (const sim::Job &job :
         {training, sim::Job::testing(256), chips, serving})
        seeds.push_back(job.toJson().dump());
    expectMutantsParseOrThrowTyped(
        seeds,
        [](const std::string &text) {
            (void)sim::Job::fromJson(json::parse(text));
        },
        0x10Bu, 20000);
}

TEST(ParserFuzz, ArrivalTraceMutantsParseOrThrowTyped)
{
    std::vector<std::string> seeds;
    for (const sim::ArrivalTrace &trace :
         {sim::ArrivalTrace::fixed(6, 3),
          sim::ArrivalTrace::poisson(8, 0.25, 7),
          sim::ArrivalTrace::uniform(6, 1, 5, 3),
          sim::ArrivalTrace::bursty(9, 3, 4, 5),
          sim::ArrivalTrace::replay({0, 2, 2, 9})})
        seeds.push_back(trace.toJson().dump());
    expectMutantsParseOrThrowTyped(
        seeds,
        [](const std::string &text) {
            (void)sim::ArrivalTrace::fromJson(json::parse(text));
        },
        0xA77u, 20000);
}

TEST(ParserFuzz, MetricsStreamMutantsParseOrThrowTyped)
{
    // A pl_serve --metrics stream (Mnist-A, a short Poisson trace):
    // every mutant parses or throws, and whatever parses renders and
    // diffs against the unmutated stream, both ways.
    const sim::ServingSim serving(workloads::mnistA(),
                                  reram::DeviceParams());
    metrics::Sampler sampler(32);
    const sim::ServingReport report =
        serving.run(sim::ArrivalTrace::poisson(24, 0.5, 5),
                    sim::ServingConfig(), nullptr, &sampler);
    std::ostringstream stream;
    sampler.write(stream);
    const report::MetricsStream base = report::parseMetrics(stream.str());
    expectMutantsParseOrThrowTyped(
        {stream.str()},
        [&](const std::string &text) {
            const report::MetricsStream m = report::parseMetrics(text);
            (void)report::renderTable(m);
            (void)report::diffStreams(base, m);
            (void)report::diffStreams(m, base);
        },
        0x3E7u, 20000);
}

TEST(ParserFuzz, BenchEnvelopeMutantsCompareOrThrowTyped)
{
    // A bench envelope (the committed micro_crossbar baseline) and a
    // pl_serve summary: every mutant parses or throws, and whatever
    // parses is compared with both unmutated documents, as
    // bench_compare (both directions) and pl_report's summary gate
    // would.
    std::ifstream in(std::string(PL_SOURCE_DIR) +
                     "/bench/baselines/BENCH_micro_crossbar.json");
    ASSERT_TRUE(in) << "cannot read the committed baseline";
    std::ostringstream envelope_text;
    envelope_text << in.rdbuf();
    const json::Value envelope = json::parse(envelope_text.str());
    const sim::ServingSim serving(workloads::mnistA(),
                                  reram::DeviceParams());
    const json::Value summary =
        serving.run(sim::ArrivalTrace::poisson(24, 0.5, 5),
                    sim::ServingConfig())
            .toJson();
    expectMutantsParseOrThrowTyped(
        {envelope_text.str(), summary.dump()},
        [&](const std::string &text) {
            const json::Value v = json::parse(text);
            (void)benchcmp::compareEnvelopes(envelope, v);
            (void)benchcmp::compareEnvelopes(v, envelope);
            report::DiffResult diff;
            report::diffSummaries(summary, v, &diff);
            report::diffSummaries(v, summary, &diff);
        },
        0xE7Bu, 20000);
}

} // namespace
} // namespace pipelayer
