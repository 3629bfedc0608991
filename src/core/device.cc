#include "core/device.hh"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "nn/layers.hh"
#include "tensor/gemm_kernels.hh"
#include "workloads/model_zoo.hh"

namespace pipelayer {
namespace core {

namespace {

/** Memory subarrays assigned to the host staging region. */
constexpr int64_t kStagingArrays = 4096;

/**
 * Throw a ConfigError naming @p image when it holds NaN or ±inf: the
 * crossbars quantise only finite inputs.  Runs on the calling thread,
 * before any pool job, which could not carry the exception out.
 */
void
requireFinite(const Tensor &image, const std::string &what)
{
    const float *v = image.data();
    bool nonfinite = false;
    gemmk::activeKernels().absmax_f32(v, image.numel(), &nonfinite);
    if (!nonfinite)
        return;
    const int64_t at =
        std::find_if(v, v + image.numel(),
                     [](float e) { return !std::isfinite(e); }) - v;
    throw ConfigError(what + " holds " + std::to_string(v[at]) +
                      " at element " + std::to_string(at) +
                      "; the crossbars take only finite inputs");
}

/** requireFinite() over every image of @p set, in order. */
void
requireFinite(const nn::Dataset &set, const char *call)
{
    for (size_t i = 0; i < set.size(); ++i)
        requireFinite(set.inputs[i], std::string(call) + ": image " +
                                         std::to_string(i));
}

} // namespace

PipeLayerDevice::PipeLayerDevice(const PipeLayerConfig &config)
    : config_(config), staging_(config.device, kStagingArrays)
{
    PL_ASSERT(config_.batch_size >= 1, "batch size must be positive");
}

PipeLayerDevice::~PipeLayerDevice() = default;

void
PipeLayerDevice::Copy_to_PL(const std::string &name, const Tensor &data)
{
    staging_.write(name, data);
}

Tensor
PipeLayerDevice::Copy_to_CPU(const std::string &name)
{
    if (!staging_.contains(name))
        fatal("Copy_to_CPU: no tensor named '%s' on the device",
              name.c_str());
    return staging_.read(name);
}

const reram::MemoryStats &
PipeLayerDevice::stagingStats() const
{
    return staging_.stats();
}

void
PipeLayerDevice::Topology_set(nn::Network &net)
{
    topology_ = &net;
    // The arrays are (re)programmed by Weight_load().
    network_.reset();
    mapped_.clear();
}

void
PipeLayerDevice::Weight_load()
{
    PL_ASSERT(topology_ != nullptr, "Weight_load before Topology_set");
    // Built aside: a ConfigError from a layer's arrays leaves the
    // device with no crossbar network, not a half-built one.
    network_.reset();
    mapped_.clear();
    auto network = std::make_unique<nn::Network>(topology_->name(),
                                                 topology_->inputShape(),
                                                 topology_->lossKind());
    std::vector<const MappedLayer *> mapped;
    for (size_t i = 0; i < topology_->numLayers(); ++i) {
        nn::Layer &layer = topology_->layer(i);
        std::unique_ptr<MappedLayer> arrays;
        nn::LayerPtr unit; // a parameter-free layer, rebuilt by kind
        switch (layer.kind()) {
          case nn::LayerKind::Conv:
            arrays = std::make_unique<MappedConvLayer>(
                config_.device, static_cast<nn::ConvLayer &>(layer),
                config_.training);
            break;
          case nn::LayerKind::InnerProduct:
            arrays = std::make_unique<MappedIpLayer>(
                config_.device,
                static_cast<nn::InnerProductLayer &>(layer),
                config_.training);
            break;
          case nn::LayerKind::Sigmoid:
            if (config_.lut_sigmoid) {
                unit = std::make_unique<LutSigmoidLayer>(
                    config_.sigmoid_lut_bits);
            } else {
                unit = std::make_unique<nn::SigmoidLayer>();
            }
            break;
          case nn::LayerKind::ReLU:
            unit = std::make_unique<nn::ReluLayer>();
            break;
          case nn::LayerKind::MaxPool:
            unit = std::make_unique<nn::MaxPoolLayer>(
                static_cast<nn::MaxPoolLayer &>(layer).window());
            break;
          case nn::LayerKind::AvgPool:
            unit = std::make_unique<nn::AvgPoolLayer>(
                static_cast<nn::AvgPoolLayer &>(layer).window());
            break;
          case nn::LayerKind::Flatten:
            unit = std::make_unique<nn::FlattenLayer>();
            break;
        }
        if (arrays) {
            mapped.push_back(arrays.get());
            unit = std::move(arrays);
        }
        network->add(std::move(unit));
    }
    network_ = std::move(network);
    mapped_ = std::move(mapped);
}

void
PipeLayerDevice::Pipeline_Set(bool enabled)
{
    pipeline_enabled_ = enabled;
}

nn::Network &
PipeLayerDevice::network()
{
    PL_ASSERT(network_ != nullptr, "no crossbar network before Weight_load");
    return *network_;
}

const nn::Network &
PipeLayerDevice::network() const
{
    PL_ASSERT(network_ != nullptr, "no crossbar network before Weight_load");
    return *network_;
}

Tensor
PipeLayerDevice::forward(const Tensor &input) const
{
    requireFinite(input, "forward: the input image");
    return network().infer(input);
}

int64_t
PipeLayerDevice::predict(const Tensor &input) const
{
    requireFinite(input, "predict: the input image");
    return network().predict(input);
}

DeviceTrainStats
PipeLayerDevice::Train(nn::Dataset &train_set, int64_t epochs)
{
    PL_ASSERT(config_.training,
              "device was configured without training arrays");
    nn::Network &net = network();
    requireFinite(train_set, "Train");
    nn::TrainConfig loop;
    loop.epochs = epochs;
    loop.batch_size = config_.batch_size;
    loop.learning_rate = config_.learning_rate;
    const nn::TrainResult run = nn::train(net, train_set, loop);

    DeviceTrainStats stats;
    stats.epoch_loss = run.epoch_loss;
    stats.batches_run = run.batches_run;
    stats.final_accuracy =
        net.accuracy(train_set.inputs, train_set.labels);
    return stats;
}

DeviceTestStats
PipeLayerDevice::Test(const nn::Dataset &test_set) const
{
    requireFinite(test_set, "Test");
    DeviceTestStats stats;
    stats.images = static_cast<int64_t>(test_set.size());
    stats.accuracy = network().accuracy(test_set.inputs, test_set.labels);
    return stats;
}

sim::SimReport
PipeLayerDevice::timingReport(sim::Phase phase, int64_t num_images) const
{
    PL_ASSERT(topology_ != nullptr, "timingReport before Topology_set");
    const workloads::NetworkSpec spec =
        workloads::specFromNetwork(*topology_);
    sim::Simulator simulator(spec, config_.device);
    sim::Job job;
    job.phase = phase;
    job.pipelined = pipeline_enabled_;
    job.batch_size = config_.batch_size;
    job.num_images = num_images;
    return simulator.run(job);
}

std::vector<Tensor>
PipeLayerDevice::storedParameters() const
{
    std::vector<Tensor> out;
    for (const MappedLayer *layer : mapped_) {
        out.push_back(layer->storedWeight());
        out.push_back(layer->storedBias());
    }
    return out;
}

int64_t
PipeLayerDevice::arrayCount() const
{
    int64_t n = 0;
    for (const MappedLayer *layer : mapped_)
        n += layer->arrayCount();
    return n;
}

reram::ArrayActivity
PipeLayerDevice::totalActivity() const
{
    reram::ArrayActivity total;
    for (const MappedLayer *layer : mapped_)
        total += layer->activity();
    return total;
}

double
PipeLayerDevice::measuredComputeEnergy() const
{
    const reram::ArrayActivity activity = totalActivity();
    const reram::DeviceParams &p = config_.device;
    return static_cast<double>(activity.input_spikes) *
               p.read_energy_per_spike *
               (1.0 + p.periph_energy_factor) +
           static_cast<double>(activity.write_pulses) *
               p.write_energy_per_spike;
}

} // namespace core
} // namespace pipelayer
