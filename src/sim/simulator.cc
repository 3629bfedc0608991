#include "sim/simulator.hh"

#include <algorithm>
#include <iomanip>

#include "common/logging.hh"
#include "common/prof.hh"
#include "common/units.hh"

namespace pipelayer {
namespace sim {

namespace {

int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

/** Windows streamed during the error-backward pass of one layer. */
int64_t
errorWindows(const workloads::LayerSpec &spec)
{
    // δ_{l-1} = conv2(δ_l, rot180(K), 'full') (paper Fig. 11): one
    // window per *input* spatial position; inner products stream one
    // vector.
    if (spec.kind == workloads::SpecKind::Conv)
        return spec.in_h * spec.in_w;
    return 1;
}

} // namespace

json::Value
EnergyBreakdown::toJson() const
{
    json::Value v = json::Value::object();
    v["forward_compute_j"] = json::Value(forward_compute);
    v["backward_compute_j"] = json::Value(backward_compute);
    v["derivative_compute_j"] = json::Value(derivative_compute);
    v["weight_update_j"] = json::Value(weight_update);
    v["buffer_traffic_j"] = json::Value(buffer_traffic);
    v["controller_j"] = json::Value(controller);
    v["total_j"] = json::Value(total());
    return v;
}

json::Value
LayerCost::toJson() const
{
    json::Value v = json::Value::object();
    v["label"] = json::Value(label);
    v["g"] = json::Value(g);
    v["steps_per_cycle"] = json::Value(steps_per_cycle);
    v["arrays"] = json::Value(arrays);
    v["forward_latency_s"] = json::Value(forward_latency);
    v["training_latency_s"] = json::Value(training_latency);
    v["forward_energy_j"] = json::Value(forward_energy);
    v["backward_energy_j"] = json::Value(backward_energy);
    v["derivative_energy_j"] = json::Value(derivative_energy);
    return v;
}

void
SimReport::print(std::ostream &os) const
{
    os << "=== " << network << " ("
       << (config.phase == Phase::Training ? "training" : "testing")
       << ", " << (config.pipelined ? "pipelined" : "non-pipelined")
       << ", B=" << config.batch_size << ", N=" << config.num_images
       << ") ===\n";
    os << "  logical cycles    : " << logical_cycles << "\n";
    os << "  cycle time        : " << formatTime(cycle_time) << "\n";
    os << "  total time        : " << formatTime(total_time) << "\n";
    os << "  time / image      : " << formatTime(time_per_image) << "\n";
    os << "  throughput        : " << formatCount(throughput)
       << " img/s\n";
    const double n = static_cast<double>(config.num_images);
    os << "  energy / image    : " << formatEnergy(energy_per_image)
       << "\n";
    os << "    forward compute : "
       << formatEnergy(energy.forward_compute / n) << " /img\n";
    os << "    backward compute: "
       << formatEnergy(energy.backward_compute / n) << " /img\n";
    os << "    derivatives     : "
       << formatEnergy(energy.derivative_compute / n) << " /img\n";
    os << "    weight update   : "
       << formatEnergy(energy.weight_update / n) << " /img\n";
    os << "    buffer traffic  : "
       << formatEnergy(energy.buffer_traffic / n) << " /img\n";
    os << "    controller      : "
       << formatEnergy(energy.controller / n) << " /img\n";
    os << "  area              : " << area_mm2 << " mm^2\n";
    os << "  morphable arrays  : " << morphable_arrays << "\n";
    os << "  GOPS/s            : " << gops_per_s << "\n";
    os << "  GOPS/s/mm^2       : " << gops_per_s_per_mm2 << "\n";
    os << "  GOPS/s/W          : " << gops_per_w << "\n";
}

void
SimReport::dumpStats(std::ostream &os) const
{
    const std::string prefix = "sim." + network + ".";
    const auto stat = [&](const std::string &name, double value,
                          const std::string &desc) {
        os << std::left << std::setw(40) << (prefix + name) << std::right
           << std::setw(18) << value << "  # " << desc << "\n";
    };
    stat("training", config.phase == Phase::Training ? 1.0 : 0.0,
         "1 if training phase");
    stat("pipelined", config.pipelined ? 1.0 : 0.0,
         "1 if the inter-layer pipeline is enabled");
    stat("images", static_cast<double>(config.num_images),
         "images processed");
    stat("logical_cycles", static_cast<double>(logical_cycles),
         "total logical cycles");
    stat("cycle_time_s", cycle_time, "seconds per logical cycle");
    stat("total_time_s", total_time, "seconds for the whole run");
    stat("throughput_img_s", throughput, "images per second");
    stat("energy_per_image_j", energy_per_image, "joules per image");
    stat("energy_forward_j", energy.forward_compute,
         "forward-compute energy, total");
    stat("energy_backward_j", energy.backward_compute,
         "error-backward energy, total");
    stat("energy_derivative_j", energy.derivative_compute,
         "derivative-computation energy, total");
    stat("energy_update_j", energy.weight_update,
         "weight-update energy, total");
    stat("energy_buffer_j", energy.buffer_traffic,
         "buffer-traffic energy, total");
    stat("energy_controller_j", energy.controller,
         "controller/interface energy, total");
    stat("area_mm2", area_mm2, "accelerator area");
    stat("morphable_arrays", static_cast<double>(morphable_arrays),
         "morphable subarrays provisioned");
    stat("gops_per_s", gops_per_s, "sustained giga-operations per second");
    stat("gops_per_s_per_mm2", gops_per_s_per_mm2,
         "computational efficiency");
    stat("gops_per_w", gops_per_w, "power efficiency");
    stat("buffer_violations", static_cast<double>(buffer_violations),
         "buffer overwrite/eviction violations");
    stat("structural_hazards", static_cast<double>(structural_hazards),
         "structural hazards detected");
    for (size_t i = 0; i < per_layer.size(); ++i) {
        const LayerCost &c = per_layer[i];
        const std::string p = "layer" + std::to_string(i) + ".";
        stat(p + "g", static_cast<double>(c.g),
             "replication factor of " + c.label);
        stat(p + "arrays", static_cast<double>(c.arrays),
             "forward + backward arrays");
        stat(p + "forward_latency_s", c.forward_latency,
             "seconds per logical cycle, forward");
        stat(p + "training_latency_s", c.training_latency,
             "seconds per logical cycle, training");
        stat(p + "forward_energy_j", c.forward_energy,
             "forward-compute joules per image");
        stat(p + "backward_energy_j", c.backward_energy,
             "error-backward joules per image");
        stat(p + "derivative_energy_j", c.derivative_energy,
             "derivative joules per image");
    }
}

json::Value
SimReport::toJson() const
{
    json::Value v = json::Value::object();
    v["network"] = json::Value(network);

    json::Value cfg = json::Value::object();
    cfg["phase"] = json::Value(
        config.phase == Phase::Training ? "training" : "testing");
    cfg["pipelined"] = json::Value(config.pipelined);
    cfg["batch_size"] = json::Value(config.batch_size);
    cfg["num_images"] = json::Value(config.num_images);
    v["config"] = std::move(cfg);

    v["logical_cycles"] = json::Value(logical_cycles);
    v["cycle_time_s"] = json::Value(cycle_time);
    v["total_time_s"] = json::Value(total_time);
    v["time_per_image_s"] = json::Value(time_per_image);
    v["throughput_img_s"] = json::Value(throughput);

    v["energy"] = energy.toJson();
    v["energy_per_image_j"] = json::Value(energy_per_image);

    v["area_mm2"] = json::Value(area_mm2);
    v["morphable_arrays"] = json::Value(morphable_arrays);
    v["memory_buffer_entries"] = json::Value(memory_buffer_entries);

    v["ops_per_image"] = json::Value(ops_per_image);
    v["gops_per_s"] = json::Value(gops_per_s);
    v["gops_per_s_per_mm2"] = json::Value(gops_per_s_per_mm2);
    v["gops_per_w"] = json::Value(gops_per_w);

    v["buffer_violations"] = json::Value(buffer_violations);
    v["structural_hazards"] = json::Value(structural_hazards);

    json::Value layers = json::Value::array();
    for (const LayerCost &c : per_layer)
        layers.push(c.toJson());
    v["per_layer"] = std::move(layers);

    // Host-side profile of the producing process, only when profiling
    // is on — the documented schema (pinned by the golden test) is
    // the profile-off shape.
    if (prof::enabled())
        v["profile"] = prof::snapshot().toJson();
    return v;
}

Simulator::Simulator(const workloads::NetworkSpec &spec,
                     const reram::DeviceParams &params)
    : Simulator(spec, params, arch::GranularityConfig::balanced(spec))
{
}

Simulator::Simulator(const workloads::NetworkSpec &spec,
                     const reram::DeviceParams &params,
                     const arch::GranularityConfig &granularity)
    : spec_(spec), params_(params), granularity_(granularity)
{
    spec_.validate();
    params_.validate();
}

void
Simulator::check(const Job &job) const
{
    job.validate();
    if (!job.network.empty() && job.network != spec_.name) {
        throw ConfigError("Simulator: job describes network '" +
                          job.network + "' but this simulator maps '" +
                          spec_.name + "'");
    }
}

arch::NetworkMapping
Simulator::mapChip(const Job &chip) const
{
    if (chip.num_chips > 1) {
        throw ConfigError(
            "Simulator: a " + std::to_string(chip.num_chips) +
            "-chip job runs through runCluster; run and price model "
            "one chip");
    }
    return arch::NetworkMapping(spec_, granularity_, params_,
                                chip.phase == Phase::Training,
                                chip.batch_size);
}

double
Simulator::forwardLayerEnergy(const arch::LayerMapping &m) const
{
    // One window streams data_bits spike slots into weightRows() word
    // lines; every tile column and both sign arrays of every slice
    // group see the spikes.  Peripheral digitisation/activation
    // energy scales with the same activity (periph_energy_factor).
    const double spikes = static_cast<double>(m.spec.numWindows()) *
        static_cast<double>(params_.data_bits) *
        static_cast<double>(m.spec.weightRows()) *
        static_cast<double>(m.tiles_c) * 2.0 *
        static_cast<double>(params_.sliceGroups());
    return spikes * params_.read_energy_per_spike *
           (1.0 + params_.periph_energy_factor);
}

double
Simulator::backwardLayerEnergy(const arch::LayerMapping &m) const
{
    // The error backward is the transposed computation: every forward
    // multiply-accumulate has exactly one backward counterpart
    // (δ_{l-1} = conv2(δ_l, rot180(K), 'full') touches each weight
    // once per output-error element), so the spike activity — and
    // hence the energy — matches the forward pass.
    return forwardLayerEnergy(m);
}

double
Simulator::derivativeLayerEnergy(const arch::LayerMapping &m) const
{
    // ∂W: forward data d_{l-1} is written into morphable arrays once
    // per image (paper §4.4.1), then the error is streamed through.
    const double d_write_pulses =
        static_cast<double>(m.spec.inputSize()) *
        static_cast<double>(params_.sliceGroups());
    const double d_write = d_write_pulses * params_.write_energy_per_spike;

    // Streaming δ: one window per kernel tap position.
    const double windows = static_cast<double>(
        m.spec.kind == workloads::SpecKind::Conv
            ? m.spec.kernel * m.spec.kernel
            : 1);
    const double rows = static_cast<double>(
        m.spec.kind == workloads::SpecKind::Conv
            ? m.spec.out_h * m.spec.out_w
            : m.spec.weightCols());
    const double stream = windows *
        static_cast<double>(params_.data_bits) * rows *
        params_.read_energy_per_spike *
        (1.0 + params_.periph_energy_factor);
    return d_write + stream;
}

double
Simulator::weightUpdateEnergy(const arch::NetworkMapping &mapping) const
{
    // Read old weights, subtract averaged derivatives, reprogram: one
    // tuning pulse per bit-slice cell of every weight (§4.4.2).
    const double pulses =
        static_cast<double>(mapping.totalWeightParams()) *
        static_cast<double>(params_.sliceGroups());
    return pulses * params_.write_energy_per_spike;
}

double
Simulator::bufferEnergy(const workloads::NetworkSpec &spec,
                        bool training) const
{
    double bits = 0.0;
    for (const auto &layer : spec.layers) {
        // Every produced activation is written once and read once.
        bits += static_cast<double>(layer.outputSize()) *
                static_cast<double>(params_.data_bits);
    }
    // Training also buffers the error cubes (δ per stage).
    const double factor = training ? 2.0 : 1.0;
    return factor * bits *
           (params_.mem_write_energy_per_bit +
            params_.mem_read_energy_per_bit);
}

double
Simulator::cycleTime(const arch::NetworkMapping &mapping,
                     bool training) const
{
    double worst = 0.0;
    for (const auto &m : mapping.layers()) {
        worst = std::max(worst, m.cycleLatency(params_));
        if (training) {
            // Error-backward MVM steps through the reordered arrays.
            const int64_t steps = ceilDiv(errorWindows(m.spec), m.g);
            worst = std::max(worst, static_cast<double>(steps) *
                                        params_.mvmLatency());
            // Writing the forward data d_{l-1} into the derivative
            // arrays (paper §4.4.1): one row-parallel write per
            // array_cols values, cell_bits programming pulses each.
            // The stage's write drivers are shared between adjacent
            // subarrays (paper §4.2.1), so row-writes serialise —
            // this dominates training cycle time on wide layers and
            // is why training throughput trails testing throughput.
            const int64_t row_writes =
                ceilDiv(m.spec.inputSize(), params_.array_cols);
            worst = std::max(worst, static_cast<double>(row_writes) *
                                        params_.cellWriteLatency());
        }
    }
    return worst;
}

SimReport
Simulator::run(const Job &job) const
{
    PL_PROF_SCOPE("sim.run");
    check(job);
    const arch::NetworkMapping map = mapChip(job);
    arch::PipelineScheduler scheduler(map.depth(), job.schedule());
    return buildReport(job, map, scheduler.run());
}

SimReport
Simulator::price(const Job &job, const arch::ScheduleStats &sched) const
{
    PL_PROF_SCOPE("sim.run");
    check(job);
    return buildReport(job, mapChip(job), sched);
}

SimReport
Simulator::buildReport(const Job &chip,
                       const arch::NetworkMapping &map,
                       const arch::ScheduleStats &sched) const
{
    const bool training = chip.phase == Phase::Training;
    SimReport report;
    report.network = spec_.name;
    report.config = chip;
    report.logical_cycles = sched.total_cycles;
    report.cycle_time = cycleTime(map, training);
    report.total_time =
        static_cast<double>(sched.total_cycles) * report.cycle_time;
    report.time_per_image =
        report.total_time / static_cast<double>(chip.num_images);
    report.throughput = 1.0 / report.time_per_image;
    report.buffer_violations = sched.buffer_violations;
    report.structural_hazards = sched.structural_hazards;

    // ---- Energy + per-layer breakdown --------------------------------
    const auto n = static_cast<double>(chip.num_images);
    EnergyBreakdown &e = report.energy;
    for (const auto &m : map.layers()) {
        LayerCost cost;
        cost.label = m.spec.describe();
        cost.g = m.g;
        cost.steps_per_cycle = m.steps_per_cycle;
        cost.arrays = m.forward_arrays + m.backward_arrays;
        cost.forward_latency = m.cycleLatency(params_);
        cost.forward_energy = forwardLayerEnergy(m);
        if (training) {
            const int64_t err_steps = ceilDiv(errorWindows(m.spec), m.g);
            const int64_t row_writes =
                ceilDiv(m.spec.inputSize(), params_.array_cols);
            cost.training_latency = std::max(
                {cost.forward_latency,
                 static_cast<double>(err_steps) * params_.mvmLatency(),
                 static_cast<double>(row_writes) *
                     params_.cellWriteLatency()});
            cost.backward_energy = backwardLayerEnergy(m);
            cost.derivative_energy = derivativeLayerEnergy(m);
        } else {
            cost.training_latency = cost.forward_latency;
        }
        e.forward_compute += n * cost.forward_energy;
        if (training) {
            e.backward_compute += n * cost.backward_energy;
            e.derivative_compute += n * cost.derivative_energy;
        }
        report.per_layer.push_back(std::move(cost));
    }
    if (training) {
        const double batches = static_cast<double>(
            ceilDiv(chip.num_images, chip.batch_size));
        e.weight_update = batches * weightUpdateEnergy(map);
    }
    e.buffer_traffic = n * bufferEnergy(spec_, training);
    e.controller = n * params_.controller_energy_per_image;
    report.energy_per_image = e.total() / n;

    // ---- Area / efficiency ------------------------------------------
    report.area_mm2 = map.areaMm2();
    report.morphable_arrays = map.morphableArrays();
    report.memory_buffer_entries =
        map.memoryBufferEntries(chip.pipelined);

    report.ops_per_image = static_cast<double>(
        training ? spec_.trainOps() : spec_.forwardOps());
    report.gops_per_s =
        report.ops_per_image * report.throughput / kGiga;
    report.gops_per_s_per_mm2 = report.gops_per_s / report.area_mm2;
    const double watts = report.energy_per_image * report.throughput;
    report.gops_per_w = report.gops_per_s / watts;

    return report;
}

json::Value
ClusterReport::toJson() const
{
    json::Value v = json::Value::object();
    v["cluster_version"] = json::Value(int64_t{1});
    v["network"] = json::Value(network);

    json::Value cfg = json::Value::object();
    cfg["phase"] = json::Value(
        config.phase == Phase::Training ? "training" : "testing");
    cfg["pipelined"] = json::Value(config.pipelined);
    cfg["batch_size"] = json::Value(config.batch_size);
    cfg["num_images"] = json::Value(config.num_images);
    cfg["num_chips"] = json::Value(config.num_chips);
    cfg["interconnect"] = config.interconnect.toJson();
    v["config"] = std::move(cfg);

    v["chip_cycles"] = json::Value(sched.chip_cycles);
    json::Value agg = json::Value::object();
    agg["rounds"] = json::Value(sched.aggregation_rounds);
    agg["payload_bytes"] = json::Value(sched.payload_bytes);
    agg["wire_bytes"] = json::Value(sched.wire_bytes);
    agg["time_s"] = json::Value(sched.aggregation_time_s);
    agg["energy_j"] = json::Value(sched.aggregation_energy_j);
    agg["cycles"] = json::Value(sched.aggregation_cycles);
    v["aggregation"] = std::move(agg);
    v["total_cycles"] = json::Value(total_cycles);
    v["cycle_time_s"] = json::Value(cycle_time);
    v["total_time_s"] = json::Value(total_time);
    v["time_per_image_s"] = json::Value(time_per_image);
    v["throughput_img_s"] = json::Value(throughput);
    v["energy_total_j"] = json::Value(energy_total_j);
    v["energy_per_image_j"] = json::Value(energy_per_image);

    json::Value chip_reports = json::Value::array();
    for (const SimReport &r : chips)
        chip_reports.push(r.toJson());
    v["chips"] = std::move(chip_reports);
    return v;
}

ClusterReport
Simulator::runCluster(const Job &job,
                      trace::TraceRecorder *recorder) const
{
    PL_PROF_SCOPE("sim.run_cluster");
    check(job);

    // Every chip runs the shard; its mapping is sized for the shard
    // batch (the derivative arrays hold B/C slots per stage).
    const Job shard = job.shard();
    const arch::NetworkMapping map = mapChip(shard);
    const double cycle_time =
        cycleTime(map, job.phase == Phase::Training);

    // Gradient payload per chip and round: one data_bits value per
    // weight parameter of the mapped network.
    const int64_t payload_bytes = ceilDiv(
        map.totalWeightParams() * params_.data_bits, 8);

    arch::Cluster cluster(map.depth(), shard.schedule(), job.num_chips,
                          job.interconnect, payload_bytes, cycle_time);
    cluster.setTrace(recorder);

    ClusterReport report;
    report.network = spec_.name;
    report.config = job;
    report.sched = cluster.run();
    for (const arch::ScheduleStats &s : report.sched.per_chip)
        report.chips.push_back(buildReport(shard, map, s));

    report.total_cycles = report.sched.total_cycles;
    report.cycle_time = cycle_time;
    report.total_time =
        static_cast<double>(report.total_cycles) * cycle_time;
    report.time_per_image =
        report.total_time / static_cast<double>(job.num_images);
    report.throughput = 1.0 / report.time_per_image;
    for (const SimReport &r : report.chips)
        report.energy_total_j += r.energy.total();
    report.energy_total_j += report.sched.aggregation_energy_j;
    report.energy_per_image =
        report.energy_total_j / static_cast<double>(job.num_images);
    return report;
}

} // namespace sim
} // namespace pipelayer
