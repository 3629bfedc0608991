/**
 * @file
 * PipeLayerDevice: the public programming interface of the
 * accelerator, following the paper's §5.2 API:
 *
 *   Copy_to_PL / Copy_to_CPU  - move data between host and device
 *   Topology_set              - configure layer connections/datapath
 *   Weight_load               - program weights into the arrays
 *   Pipeline_Set              - enable/disable inter-layer pipelining
 *   Train / Test              - run a phase
 *
 * The device executes networks *functionally through the ReRAM
 * crossbar models* (quantised weights, spike-coded inputs,
 * integrate-and-fire outputs) and reports timing/energy/area through
 * the cycle-level simulator.  The function names keep the paper's
 * spelling on purpose; they are the published interface.
 */

#ifndef PIPELAYER_CORE_DEVICE_HH_
#define PIPELAYER_CORE_DEVICE_HH_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/mapped_layer.hh"
#include "nn/network.hh"
#include "nn/trainer.hh"
#include "reram/memory_region.hh"
#include "reram/params.hh"
#include "sim/simulator.hh"

namespace pipelayer {
namespace core {

/** Device-level configuration. */
struct PipeLayerConfig
{
    reram::DeviceParams device = reram::DeviceParams::paperDefault();
    int64_t batch_size = 16;   //!< the paper's B
    float learning_rate = 0.05f;
    bool training = true;      //!< provision backward arrays
    /**
     * Realise sigmoid activations with the Fig.-9c LUT unit instead
     * of exact math (ReLU needs no table and is always exact).
     */
    bool lut_sigmoid = true;
    /** Address width of the sigmoid LUT (entries = 2^bits). */
    int sigmoid_lut_bits = 8;
};

/** Outcome of a Train() call. */
struct DeviceTrainStats
{
    std::vector<double> epoch_loss;
    double final_accuracy = 0.0; //!< on the training set
    int64_t batches_run = 0;
};

/** Outcome of a Test() call. */
struct DeviceTestStats
{
    double accuracy = 0.0;
    int64_t images = 0;
};

/**
 * The accelerator device.
 *
 * Usage (mirrors the paper's flow):
 * @code
 *   PipeLayerDevice dev(config);
 *   dev.Topology_set(net);        // configure stages (net is borrowed)
 *   dev.Weight_load();            // program host weights into ReRAM
 *   dev.Pipeline_Set(true);
 *   auto stats = dev.Train(train_set, epochs);
 *   auto test = dev.Test(test_set);
 * @endcode
 */
class PipeLayerDevice
{
  public:
    explicit PipeLayerDevice(const PipeLayerConfig &config);
    ~PipeLayerDevice();

    PipeLayerDevice(const PipeLayerDevice &) = delete;
    PipeLayerDevice &operator=(const PipeLayerDevice &) = delete;

    /** @name The paper's §5.2 API */
    ///@{

    /** Stage a named tensor into device memory subarrays. */
    void Copy_to_PL(const std::string &name, const Tensor &data);

    /** Read a named tensor back to the host. fatal() if unknown. */
    Tensor Copy_to_CPU(const std::string &name);

    /**
     * Configure the datapath from a host network.  The network is
     * borrowed and must outlive the device: its parameters are the
     * source for Weight_load(), its loss kind seeds the output error,
     * and its Conv and InnerProduct layers hold the batch's ∂W, which
     * Train() accumulates and the arrays apply.  Its parameter-free
     * layers (activations, pools, flatten) are rebuilt by kind as the
     * stage activation units; an exact sigmoid becomes the Fig.-9c
     * LUT when PipeLayerConfig::lut_sigmoid is set.
     */
    void Topology_set(nn::Network &net);

    /**
     * Program the topology network's weights into the arrays and
     * build the crossbar network() that runs on them.  Throws
     * ConfigError when the device parameters cannot hold the arrays
     * or a weight is NaN or ±inf (ArrayGroup), leaving no crossbar
     * network.
     */
    void Weight_load();

    /** Enable or disable the inter-layer pipeline (timing only). */
    void Pipeline_Set(bool enabled);

    /**
     * Train through the crossbars with batched SGD: nn::train on
     * network() in the given sample order (no shuffling), one
     * trainBatch() per minibatch of the configured B, a trailing
     * partial batch included.  epoch_loss is each epoch's per-image
     * losses summed in image order, over n; final_accuracy scores
     * @p train_set afterwards.  Throws ConfigError naming the first
     * image that holds NaN or ±inf, before any batch runs.
     */
    DeviceTrainStats Train(nn::Dataset &train_set, int64_t epochs);

    /**
     * Classify a dataset through the crossbars.  Throws ConfigError
     * naming the first image that holds NaN or ±inf.
     */
    DeviceTestStats Test(const nn::Dataset &test_set) const;
    ///@}

    /**
     * Single-sample inference through the arrays.  Throws ConfigError
     * when @p input holds NaN or ±inf.
     */
    Tensor forward(const Tensor &input) const;

    /** Predicted class for one input; throws as forward() does. */
    int64_t predict(const Tensor &input) const;

    /**
     * The crossbar network Weight_load() built: the topology's layers
     * with each Conv and InnerProduct replaced by its MappedLayer.
     * Train, Test, forward and predict run it; PipelinedTrainer can
     * drive it too, on the same arrays.  Panics before Weight_load().
     */
    nn::Network &network();
    const nn::Network &network() const;

    /** Timing/energy/area report from the cycle-level simulator. */
    sim::SimReport timingReport(sim::Phase phase,
                                int64_t num_images) const;

    /**
     * Weights and biases as stored in the arrays (quantised): weight
     * then bias of each array stage, in stage order.
     */
    std::vector<Tensor> storedParameters() const;

    /** Physical morphable subarrays programmed. */
    int64_t arrayCount() const;

    /**
     * Accumulated spike/write activity of every programmed array
     * since Weight_load — the *measured* counterpart of the analytic
     * energy model.  It includes the backward arrays each weight
     * update retires and reprograms, so a single-batch Train adds
     * exactly Weight_load's write pulses.
     */
    reram::ArrayActivity totalActivity() const;

    /**
     * Energy implied by the measured activity: read spikes at the
     * per-spike read energy (with the peripheral factor) plus write
     * pulses at the per-pulse write energy.  Covers the array
     * datapath only (no buffers/controller), so it should sit below
     * the analytic timingReport() energy for the same work.
     */
    double measuredComputeEnergy() const;

    /** Access statistics of the host staging region. */
    const reram::MemoryStats &stagingStats() const;

    bool pipelineEnabled() const { return pipeline_enabled_; }

  private:
    PipeLayerConfig config_;
    nn::Network *topology_ = nullptr;
    bool pipeline_enabled_ = true;
    reram::MemoryRegion staging_;
    std::unique_ptr<nn::Network> network_;
    std::vector<const MappedLayer *> mapped_; //!< network_'s array layers
};

} // namespace core
} // namespace pipelayer

#endif // PIPELAYER_CORE_DEVICE_HH_
