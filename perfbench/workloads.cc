#include "workloads.hh"

#include <cmath>
#include <cstring>
#include <sstream>

#include "common/json.hh"
#include "common/prof.hh"
#include "common/rng.hh"
#include "core/device.hh"
#include "core/pipelined_trainer.hh"
#include "nn/network.hh"
#include "quant/qat.hh"
#include "reram/params.hh"
#include "sim/arrival.hh"
#include "workloads/model_zoo.hh"
#include "workloads/synthetic_data.hh"

namespace perfbench {

using namespace pipelayer;

std::string
checkTraining(double loss, double accuracy)
{
    if (!std::isfinite(loss))
        return "training loss is not finite";
    if (!(accuracy >= 0.0 && accuracy <= 1.0))
        return "accuracy " + std::to_string(accuracy) + " is outside [0, 1]";
    return "";
}

std::string
checkServing(const sim::ServingReport &r)
{
    if (r.admitted_count + r.shed_count != r.arrival_count)
        return "admitted + shed != arrivals on " + r.network;
    if (r.sched.structural_hazards != 0 || r.sched.buffer_violations != 0)
        return "structural hazards or buffer violations on " + r.network;
    if (!(r.p50_latency_cycles <= r.p95_latency_cycles &&
          r.p95_latency_cycles <= r.p99_latency_cycles &&
          r.p99_latency_cycles <= r.max_latency_cycles))
        return "latency percentiles out of order on " + r.network;
    if (static_cast<int64_t>(r.completions.size()) != r.arrival_count)
        return "one completion record per arrival expected on " + r.network;
    for (const sim::CompletionRecord &rec : r.completions) {
        if (rec.admitted &&
            rec.latency_cycles != rec.completion_cycle - rec.arrival_cycle)
            return "request " + std::to_string(rec.id) +
                   ": latency != completion - arrival";
    }
    return "";
}

std::string
checkEmitted(const std::string &ndjson, const sim::ServingReport &report)
{
    std::istringstream in(ndjson);
    std::string line;
    size_t k = 0;
    while (std::getline(in, line)) {
        json::Value v;
        try {
            v = json::parse(line);
        } catch (const json::ParseError &err) {
            return "emitted line " + std::to_string(k) +
                   " does not parse: " + err.what();
        }
        const char *key = k < report.completions.size() ? "id"
                                                        : "arrival_count";
        const int64_t want = k < report.completions.size()
                                 ? report.completions[k].id
                                 : report.arrival_count;
        const json::Value *got = v.find(key);
        if (!got || !got->isNumber() || got->asNumber() != double(want))
            return "emitted line " + std::to_string(k) + " has the wrong " +
                   key;
        ++k;
    }
    if (k != report.completions.size() + 1)
        return "expected one line per request plus the summary, got " +
               std::to_string(k);
    return "";
}

namespace {

/** An independent seed for input stream @p stream of run seed @p seed. */
uint64_t
subSeed(uint64_t seed, uint64_t stream)
{
    return Rng(seed).split(stream).nextU64();
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/** Copies of every parameter tensor of @p net. */
std::vector<Tensor>
weightsOf(nn::Network &net)
{
    std::vector<Tensor> out;
    for (size_t l = 0; l < net.numLayers(); ++l) {
        for (Tensor *p : net.layer(l).parameters())
            out.push_back(*p);
    }
    return out;
}

void
setWeights(nn::Network &net, const std::vector<Tensor> &weights)
{
    size_t k = 0;
    for (size_t l = 0; l < net.numLayers(); ++l) {
        for (Tensor *p : net.layer(l).parameters())
            *p = weights[k++];
    }
}

bool
sameWeights(const std::vector<Tensor> &a, const std::vector<Tensor> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t k = 0; k < a.size(); ++k) {
        if (!sameBits(a[k], b[k]))
            return false;
    }
    return true;
}

/** Shuffle @p data with a generator seeded by @p seed. */
nn::Dataset
shuffled(nn::Dataset data, uint64_t seed)
{
    Rng rng(seed);
    data.shuffle(rng);
    return data;
}

/** Samples [begin, end) of @p data. */
nn::Dataset
slice(const nn::Dataset &data, size_t begin, size_t end)
{
    nn::Dataset out;
    out.inputs.assign(data.inputs.begin() + static_cast<ptrdiff_t>(begin),
                      data.inputs.begin() + static_cast<ptrdiff_t>(end));
    out.labels.assign(data.labels.begin() + static_cast<ptrdiff_t>(begin),
                      data.labels.begin() + static_cast<ptrdiff_t>(end));
    return out;
}

// ---- fig13_train ----------------------------------------------------

/**
 * One round of a reduced Fig. 13 sweep: three networks (two CNNs and
 * an MLP) trained at float, 4 and 2 bits, each from the same seeded
 * initial weights on the same data, then scored on a held-out split.
 * Every round repeats the same work, so each one must reproduce the
 * first round's results bit for bit.
 */
class Fig13Train final : public Workload
{
  public:
    const char *name() const override { return "fig13_train"; }
    int64_t threads() const override { return 2; }

    double items(int64_t) const override
    {
        return static_cast<double>(
            kNets.size() * kBits.size() *
            (train_.size() + test_.size() + heldout_.size()));
    }

    std::vector<std::string> bypassedLayers() const override
    {
        return {"reram.", "core.", "sim.", "serving.", "arch.", "json."};
    }

    void setup(uint64_t seed, Tracer &tracer) override
    {
        tally_.clear();
        reference_.clear();
        {
            ScopedSpan span(tracer, "workloads.make_task");
            workloads::SyntheticConfig config;
            config.noise = 0.5f; // the Fig. 13 bench's harder task
            config.train_per_class = kTrainPerClass;
            config.test_per_class = 2 * kEvalPerClass;
            config.seed = subSeed(seed, 1);
            workloads::SyntheticTask task =
                workloads::makeSyntheticTask(config);
            train_ = std::move(task.train);
            const nn::Dataset eval = shuffled(task.test, subSeed(seed, 2));
            const size_t half = eval.size() / 2;
            test_ = slice(eval, 0, half);
            heldout_ = slice(eval, half, eval.size());
        }
        net_seed_ = subSeed(seed, 3);
        shuffle_seed_ = subSeed(seed, 4);
    }

    void step(int64_t, Tracer &tracer) override
    {
        results_.clear();
        for (const NetKind &kind : kNets) {
            for (int bits : kBits) {
                nn::Network net = [&] {
                    ScopedSpan span(tracer, "workloads.build_net");
                    Rng rng(net_seed_);
                    return kind.build(rng);
                }();
                nn::Dataset train = train_; // trainQuantized shuffles it
                quant::QatConfig config;
                config.bits = bits;
                config.epochs = 1;
                config.batch_size = 10;
                config.learning_rate = kind.learning_rate;
                Rng rng(shuffle_seed_);
                quant::QatResult r;
                {
                    ScopedSpan span(tracer, "quant.train_quantized");
                    r = quant::trainQuantized(net, train, test_, config, rng);
                }
                double heldout_accuracy = 0.0;
                {
                    ScopedSpan span(tracer, "nn.accuracy");
                    heldout_accuracy =
                        net.accuracy(heldout_.inputs, heldout_.labels);
                }
                tally_["nn.accuracy.images"] +=
                    static_cast<double>(heldout_.size());
                results_.push_back(
                    {r.final_loss, r.test_accuracy, heldout_accuracy});
            }
        }
    }

    std::string verify(int64_t) override
    {
        for (const std::vector<double> &r : results_) {
            std::string error = checkTraining(r[0], r[1]);
            if (error.empty())
                error = checkTraining(r[0], r[2]);
            if (!error.empty())
                return error;
        }
        if (reference_.empty()) {
            reference_ = results_;
        } else if (reference_ != results_) {
            return "round differs from the first round (determinism)";
        }
        return "";
    }

  private:
    struct NetKind
    {
        nn::Network (*build)(Rng &);
        float learning_rate;
    };
    // The Fig. 13 bench's learning rates: 0.05 for C-4, 0.1 otherwise.
    inline static const std::vector<NetKind> kNets = {
        {workloads::buildC4, 0.05f},
        {workloads::buildMC, 0.1f},
        {workloads::buildM1, 0.1f},
    };
    inline static const std::vector<int> kBits = {0, 4, 2};
    static constexpr int64_t kTrainPerClass = 2;
    static constexpr int64_t kEvalPerClass = 1;

    nn::Dataset train_, test_, heldout_;
    uint64_t net_seed_ = 0;
    uint64_t shuffle_seed_ = 0;
    /** Per point: final loss, test accuracy, held-out accuracy. */
    std::vector<std::vector<double>> results_, reference_;
};

// ---- crossbar_device ------------------------------------------------

/**
 * The paper's §5.2 device API on Mnist-0.  A cycle is one Train call
 * (one epoch over a fixed batch: the crossbar cells are written) and
 * then single predictions of held-out images (the cells are only
 * read).  A step is one prediction; the Train calls are the auxiliary
 * calls between them.
 */
class CrossbarDevice final : public Workload
{
  public:
    const char *name() const override { return "crossbar_device"; }
    int64_t threads() const override { return 1; }

    // Step 0 of each cycle is the Train call, steps 1..kPredict predict.
    int64_t cycleSteps() const override { return kPredict + 1; }
    bool isMainStep(int64_t i) const override
    {
        return i % cycleSteps() != 0;
    }
    double items(int64_t i) const override
    {
        return isMainStep(i) ? 1.0 : double(kTrain);
    }

    std::vector<std::string> bypassedLayers() const override
    {
        return {"quant.", "nn.",      "core.trainer", "sim.",
                "serving.", "arch.", "json."};
    }

    void setup(uint64_t seed, Tracer &tracer) override
    {
        tally_.clear();
        device_.reset(); // release the arrays before programming anew
        net_.reset();
        {
            ScopedSpan span(tracer, "workloads.make_task");
            workloads::SyntheticConfig config;
            config.image_size = 28;
            config.train_per_class = kTrain;
            config.test_per_class = kPredict;
            config.seed = subSeed(seed, 1);
            workloads::SyntheticTask task =
                workloads::makeSyntheticTask(config);
            train_ = slice(shuffled(task.train, subSeed(seed, 2)), 0, kTrain);
            heldout_ =
                slice(shuffled(task.test, subSeed(seed, 3)), 0, kPredict);
        }
        {
            ScopedSpan span(tracer, "workloads.build_net");
            Rng rng(subSeed(seed, 4));
            net_ = std::make_unique<nn::Network>(
                workloads::buildMnist0Functional(rng));
        }
        core::PipeLayerConfig config;
        config.batch_size = kTrain; // one weight update per Train call
        device_ = std::make_unique<core::PipeLayerDevice>(config);
        device_->Topology_set(*net_);
        ScopedSpan span(tracer, "core.weight_load");
        device_->Weight_load();
    }

    void step(int64_t i, Tracer &tracer) override
    {
        const reram::ArrayActivity before = device_->totalActivity();
        if (isMainStep(i)) {
            ScopedSpan span(tracer, "core.device_predict");
            class_ = device_->predict(image(i));
        } else {
            ScopedSpan span(tracer, "core.device_train");
            train_stats_ = device_->Train(train_, 1);
        }
        const reram::ArrayActivity after = device_->totalActivity();
        tally_["reram.input_spikes"] +=
            double(after.input_spikes - before.input_spikes);
        tally_["reram.write_pulses"] +=
            double(after.write_pulses - before.write_pulses);
        tally_["reram.mvm_ops"] += double(after.mvm_ops - before.mvm_ops);
        tally_["reram.if_fires"] += double(after.if_fires - before.if_fires);
    }

    std::string verify(int64_t i) override
    {
        if (!isMainStep(i)) {
            return checkTraining(train_stats_.epoch_loss.back(),
                                 train_stats_.final_accuracy);
        }
        if (class_ < 0 || class_ >= workloads::kStudyClasses)
            return "predicted class " + std::to_string(class_) +
                   " out of range";
        if (i % cycleSteps() != 1)
            return "";
        // Re-run the cycle's first prediction: same arrays, same bits.
        const Tensor a = device_->forward(image(i));
        const Tensor b = device_->forward(image(i));
        if (!sameBits(a, b) || a.argmax() != class_)
            return "re-run prediction differs (determinism)";
        return "";
    }

  private:
    const Tensor &image(int64_t i) const
    {
        return heldout_.inputs[static_cast<size_t>(i % cycleSteps() - 1)];
    }

    static constexpr int64_t kTrain = 4;
    // The crossbars skip word lines driven by a zero code, so a
    // prediction's cost depends on its image: many images per cycle
    // keep the median from depending on which ones the seed drew.
    static constexpr int64_t kPredict = 48;

    nn::Dataset train_, heldout_;
    std::unique_ptr<nn::Network> net_;
    std::unique_ptr<core::PipeLayerDevice> device_;
    core::DeviceTrainStats train_stats_;
    int64_t class_ = 0;
};

// ---- pipelined_train ------------------------------------------------

/**
 * The functional Fig. 6 schedule: C-4 batches of 16 through
 * core::PipelinedTrainer, cycling over a seeded training set.
 */
class PipelinedTrain final : public Workload
{
  public:
    const char *name() const override { return "pipelined_train"; }
    int64_t threads() const override { return 2; }
    double items(int64_t) const override { return double(kBatch); }

    std::vector<std::string> bypassedLayers() const override
    {
        return {"reram.", "quant.", "nn.", "sim.", "serving.", "arch.",
                "json."};
    }

    void setup(uint64_t seed, Tracer &tracer) override
    {
        tally_.clear();
        trainer_.reset();
        net_.reset();
        first_ = core::PipelinedBatchResult{};
        {
            ScopedSpan span(tracer, "workloads.make_task");
            workloads::SyntheticConfig config;
            config.train_per_class = kBatches * kBatch / config.classes;
            config.test_per_class = 0;
            config.seed = subSeed(seed, 1);
            train_ = shuffled(workloads::makeSyntheticTask(config).train,
                              subSeed(seed, 2));
        }
        ScopedSpan span(tracer, "workloads.build_net");
        Rng rng(subSeed(seed, 3));
        net_ = std::make_unique<nn::Network>(workloads::buildC4(rng));
        trainer_ = std::make_unique<core::PipelinedTrainer>(*net_);
    }

    void prepare(int64_t i) override
    {
        const size_t b = static_cast<size_t>(i % kBatches) * kBatch;
        inputs_.assign(train_.inputs.begin() + ptrdiff_t(b),
                       train_.inputs.begin() + ptrdiff_t(b + kBatch));
        labels_.assign(train_.labels.begin() + ptrdiff_t(b),
                       train_.labels.begin() + ptrdiff_t(b + kBatch));
        if (i % kRerunEvery == 0)
            before_ = weightsOf(*net_);
    }

    void step(int64_t, Tracer &tracer) override
    {
        {
            ScopedSpan span(tracer, "core.trainer_batch");
            result_ = trainer_->trainBatch(inputs_, labels_, kLearningRate);
        }
        tally_["core.trainer_forward_ops"] += double(result_.forward_ops);
        tally_["core.trainer_backward_ops"] += double(result_.backward_ops);
        tally_["core.trainer_commits"] += double(result_.commits);
        tally_["core.trainer_logical_cycles"] +=
            double(result_.logical_cycles);
        tally_["core.trainer_peak_buffer_entries"] +=
            double(result_.peak_buffer_entries);
    }

    std::string verify(int64_t i) override
    {
        if (!std::isfinite(result_.mean_loss))
            return "training loss is not finite";
        if (result_.logical_cycles != 2 * trainer_->depth() + kBatch + 1)
            return "logical cycles != 2L + B + 1";
        // The schedule is fixed, so every batch does the same work.
        json::Value counts = result_.toJson();
        counts["mean_loss"] = 0.0;
        if (first_.logical_cycles == 0) {
            first_ = result_;
        } else {
            json::Value first = first_.toJson();
            first["mean_loss"] = 0.0;
            if (counts != first)
                return "schedule counters differ between batches";
        }
        if (i % kRerunEvery != 0)
            return "";
        // Re-run the batch from the same weights: same bits out.
        const std::vector<Tensor> after = weightsOf(*net_);
        const core::PipelinedBatchResult first_run = result_;
        setWeights(*net_, before_);
        result_ = trainer_->trainBatch(inputs_, labels_, kLearningRate);
        if (!sameWeights(weightsOf(*net_), after) ||
            result_.toJson() != first_run.toJson())
            return "re-run batch differs (determinism)";
        return "";
    }

  private:
    static constexpr int64_t kBatch = 16;
    static constexpr int64_t kBatches = 5;
    static constexpr int64_t kRerunEvery = 25;
    static constexpr float kLearningRate = 0.05f;

    nn::Dataset train_;
    std::unique_ptr<nn::Network> net_;
    std::unique_ptr<core::PipelinedTrainer> trainer_;
    std::vector<Tensor> inputs_;
    std::vector<int64_t> labels_;
    std::vector<Tensor> before_;
    core::PipelinedBatchResult result_;
    core::PipelinedBatchResult first_;
};

// ---- serve_replay ---------------------------------------------------

/**
 * pl_serve's pipeline from library calls: NDJSON request lines are
 * parsed, replayed as an arrival trace, served, and every completion
 * record plus the summary is emitted as NDJSON again.  Four seeded
 * traces (light, moderate and overload Poisson, and bursts larger than
 * the admission queue) on a small MLP and on VGG-A.
 */
class ServeReplay final : public Workload
{
  public:
    const char *name() const override { return "serve_replay"; }
    int64_t threads() const override { return 1; }

    double items(int64_t) const override
    {
        return double(kNetworks.size() * kTraces * kRequests);
    }

    std::vector<std::string> bypassedLayers() const override
    {
        return {"tensor.", "reram.", "quant.", "nn.", "core."};
    }

    void setup(uint64_t seed, Tracer &tracer) override
    {
        tally_.clear();
        sims_.clear();
        reference_.clear();
        {
            ScopedSpan span(tracer, "workloads.make_task");
            const std::vector<sim::ArrivalTrace> traces = {
                sim::ArrivalTrace::poisson(kRequests, 0.05, subSeed(seed, 1)),
                sim::ArrivalTrace::poisson(kRequests, 0.5, subSeed(seed, 2)),
                sim::ArrivalTrace::poisson(kRequests, 2.0, subSeed(seed, 3)),
                // Bursts beyond the 64-entry queue: admission must shed.
                sim::ArrivalTrace::bursty(kRequests, 96, 256,
                                          subSeed(seed, 4)),
            };
            requests_.clear();
            for (const sim::ArrivalTrace &trace : traces) {
                std::vector<std::string> lines;
                for (int64_t k = 0; k < trace.size(); ++k) {
                    lines.push_back(
                        "{\"id\": " + std::to_string(k) +
                        ", \"arrival_cycle\": " +
                        std::to_string(trace.cycles()[size_t(k)]) + "}");
                }
                requests_.push_back(std::move(lines));
            }
        }
        for (const char *network : kNetworks) {
            workloads::NetworkSpec spec;
            {
                ScopedSpan span(tracer, "workloads.build_net");
                spec = workloads::networkByName(network);
            }
            ScopedSpan span(tracer, "sim.serving_setup");
            sims_.push_back(std::make_unique<sim::ServingSim>(
                spec, reram::DeviceParams()));
        }
    }

    void step(int64_t, Tracer &tracer) override
    {
        reports_.clear();
        outputs_.clear();
        for (const auto &serving : sims_) {
            for (const std::vector<std::string> &lines : requests_)
                serveOne(*serving, lines, tracer);
        }
    }

    std::string verify(int64_t) override
    {
        for (size_t k = 0; k < reports_.size(); ++k) {
            std::string error = checkServing(reports_[k]);
            if (error.empty())
                error = checkEmitted(outputs_[k], reports_[k]);
            if (!error.empty())
                return error;
        }
        if (reference_.empty())
            reference_ = outputs_;
        else if (outputs_ != reference_)
            return "round output differs from the first round (determinism)";
        return "";
    }

  private:
    void serveOne(const sim::ServingSim &serving,
                  const std::vector<std::string> &lines, Tracer &tracer)
    {
        std::vector<int64_t> cycles;
        cycles.reserve(lines.size());
        {
            ScopedSpan span(tracer, "json.parse");
            for (const std::string &line : lines) {
                const json::Value request = json::parse(line);
                cycles.push_back(request.at("arrival_cycle").asInt());
            }
        }
        sim::ArrivalTrace trace;
        {
            ScopedSpan span(tracer, "sim.replay");
            trace = sim::ArrivalTrace::replay(std::move(cycles));
        }
        sim::ServingReport report;
        {
            ScopedSpan span(tracer, "sim.serving_run");
            report = serving.run(trace, config_);
        }
        std::string out;
        {
            ScopedSpan span(tracer, "json.emit");
            // While prof records, SimReport::toJson embeds the host
            // profile; pause it so that a traced run emits (and checks)
            // the same bytes as an untraced one.
            const bool profiling = prof::enabled();
            prof::setEnabled(false);
            for (const sim::CompletionRecord &rec : report.completions) {
                out += rec.toJson().dump();
                out += '\n';
            }
            out += report.toJson().dump();
            out += '\n';
            prof::setEnabled(profiling);
        }
        tally_["json.parse.lines"] += double(lines.size());
        tally_["json.emit.bytes"] += double(out.size());
        tally_["sim.arrivals"] += double(report.arrival_count);
        tally_["sim.admitted"] += double(report.admitted_count);
        tally_["sim.shed"] += double(report.shed_count);
        tally_["sim.batches"] += double(report.batch_count);
        tally_["arch.sched_total_cycles"] += double(report.sched.total_cycles);
        tally_["arch.sched_forward_ops"] += double(report.sched.forward_ops);
        reports_.push_back(std::move(report));
        outputs_.push_back(std::move(out));
    }

    // pl_serve's default network and a deep one: JSON dominates the
    // first, the simulation the second.
    inline static const std::vector<const char *> kNetworks = {"Mnist-A",
                                                               "VGG-A"};
    static constexpr int64_t kTraces = 4;
    static constexpr int64_t kRequests = 512;

    sim::ServingConfig config_; // pl_serve's defaults
    std::vector<std::unique_ptr<sim::ServingSim>> sims_;
    std::vector<std::vector<std::string>> requests_;
    std::vector<sim::ServingReport> reports_;
    std::vector<std::string> outputs_, reference_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "fig13_train", "crossbar_device", "pipelined_train", "serve_replay"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "fig13_train")
        return std::make_unique<Fig13Train>();
    if (name == "crossbar_device")
        return std::make_unique<CrossbarDevice>();
    if (name == "pipelined_train")
        return std::make_unique<PipelinedTrain>();
    if (name == "serve_replay")
        return std::make_unique<ServeReplay>();
    return nullptr;
}

} // namespace perfbench
