/**
 * @file
 * The PipeLayer cycle-level timing/energy/area simulator.
 *
 * Plays the role of the paper's NVSim-based simulator (§6.2): it maps
 * a network (arch::NetworkMapping), schedules it
 * (arch::PipelineScheduler) and converts logical cycles and array
 * activity into seconds, joules and mm^2 using the per-spike
 * constants of reram::DeviceParams.
 */

#ifndef PIPELAYER_SIM_SIMULATOR_HH_
#define PIPELAYER_SIM_SIMULATOR_HH_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "arch/cluster.hh"
#include "arch/granularity.hh"
#include "arch/mapping.hh"
#include "arch/pipeline.hh"
#include "common/json.hh"
#include "reram/params.hh"
#include "sim/job.hh"
#include "workloads/layer_spec.hh"

namespace pipelayer {
namespace sim {

/** Energy breakdown in joules. */
struct EnergyBreakdown
{
    double forward_compute = 0.0;   //!< forward MVM spikes
    double backward_compute = 0.0;  //!< error-backward MVM spikes
    double derivative_compute = 0.0; //!< d writes + δ streaming
    double weight_update = 0.0;     //!< batch weight reprogramming
    double buffer_traffic = 0.0;    //!< memory-subarray reads/writes
    double controller = 0.0;        //!< per-image control/interface

    double total() const
    {
        return forward_compute + backward_compute + derivative_compute +
               weight_update + buffer_traffic + controller;
    }

    /** Machine-readable form (one member per component + total). */
    json::Value toJson() const;
};

/** Per-stage cost breakdown (one entry per array layer). */
struct LayerCost
{
    std::string label;          //!< layer description
    int64_t g = 1;              //!< replication factor
    int64_t steps_per_cycle = 0;
    int64_t arrays = 0;         //!< forward + backward arrays
    double forward_latency = 0.0;  //!< s per logical cycle, forward
    double training_latency = 0.0; //!< s incl. backward + d writes
    double forward_energy = 0.0;   //!< J per image
    double backward_energy = 0.0;  //!< J per image (training)
    double derivative_energy = 0.0; //!< J per image (training)

    /** Machine-readable form. */
    json::Value toJson() const;
};

/** Simulation outcome. */
struct SimReport
{
    std::string network;
    Job config; //!< the run (one chip's shard in a ClusterReport)

    int64_t logical_cycles = 0;
    double cycle_time = 0.0;       //!< seconds per logical cycle
    double total_time = 0.0;       //!< seconds for all images
    double time_per_image = 0.0;
    double throughput = 0.0;       //!< images per second

    EnergyBreakdown energy;
    double energy_per_image = 0.0; //!< joules

    double area_mm2 = 0.0;
    int64_t morphable_arrays = 0;
    int64_t memory_buffer_entries = 0;

    double ops_per_image = 0.0;    //!< operations (paper §2.1 counts)
    double gops_per_s = 0.0;
    double gops_per_s_per_mm2 = 0.0; //!< computational efficiency §6.6
    double gops_per_w = 0.0;         //!< power efficiency §6.6

    int64_t buffer_violations = 0;
    int64_t structural_hazards = 0;

    /** Per-array-layer costs, in pipeline order. */
    std::vector<LayerCost> per_layer;

    /** Human-readable multi-line summary. */
    void print(std::ostream &os) const;

    /**
     * Write every metric as one gem5-style line, "sim.<network>.<name>
     * value  # description", including the per-layer breakdown under
     * hierarchical names ("sim.VGG-A.layer3.forward_energy_j"); the
     * text of design_explorer --stats.
     */
    void dumpStats(std::ostream &os) const;

    /**
     * Machine-readable form of the whole report: run configuration,
     * timing, energy breakdown, area/efficiency and the per-layer
     * cost array (schema documented in docs/observability.md).
     */
    json::Value toJson() const;
};

/**
 * Outcome of a cluster simulation (DESIGN.md §9).
 *
 * Every chip's shard run is reported as a full SimReport (identical
 * shards produce identical entries; a 1-chip cluster's single entry
 * is byte-identical to Simulator::run() on the same job).  The
 * cluster totals stack the interconnect aggregation phase on top:
 * total_cycles = chip_cycles + aggregation cycles, total energy =
 * chip energies + interconnect energy.
 */
struct ClusterReport
{
    std::string network;
    Job config; //!< the global (cluster) job

    /** Per-chip shard reports, chip order. */
    std::vector<SimReport> chips;

    /** The schedule/aggregation measurements (per-chip stats etc.). */
    arch::ClusterStats sched;

    int64_t total_cycles = 0;  //!< chip cycles + aggregation cycles
    double cycle_time = 0.0;   //!< seconds per logical cycle
    double total_time = 0.0;   //!< seconds for all images
    double time_per_image = 0.0;
    double throughput = 0.0;   //!< images per second, whole cluster

    double energy_total_j = 0.0;    //!< chips + interconnect
    double energy_per_image = 0.0;  //!< joules

    /**
     * Machine-readable form: {"cluster_version": 1, config echo,
     * cluster totals, "aggregation" breakdown, "chips": [SimReport
     * JSON...]} (schema in docs/observability.md, validated by
     * tools/json_lint).
     */
    json::Value toJson() const;
};

/**
 * The simulator facade: runs one (network, job) pair.
 */
class Simulator
{
  public:
    /**
     * Use the balanced default granularity.  Both constructors throw
     * ConfigError when @p spec or @p params do not validate
     * (reram::DeviceParams::validate()).
     */
    Simulator(const workloads::NetworkSpec &spec,
              const reram::DeviceParams &params);

    /** Use an explicit granularity configuration. */
    Simulator(const workloads::NetworkSpec &spec,
              const reram::DeviceParams &params,
              const arch::GranularityConfig &granularity);

    /**
     * Run one single-chip simulation: schedule the job, then price
     * the schedule.  Throws ConfigError when the job does not
     * validate (Job::validate()), names another network, or spans
     * more than one chip (those run through runCluster()).
     */
    SimReport run(const Job &job) const;

    /**
     * Price a schedule the caller already ran for @p job — a
     * PipelineScheduler(depth, job.schedule()) with whatever trace or
     * metrics observers it needs attached — exactly as run() prices
     * its own.  Same checks as run().
     */
    SimReport price(const Job &job,
                    const arch::ScheduleStats &sched) const;

    /**
     * Run a cluster simulation: every chip executes the job's shard
     * (Job num_chips/interconnect describe the cluster; chips run
     * concurrently on the host pool, reduction commits serially in
     * chip order), then the aggregation phase is priced.  A 1-chip
     * cluster reproduces run() exactly — chips[0] is byte-identical
     * to run(job)'s report, and an attached @p recorder receives a
     * byte-identical trace to a bare scheduler's.  With 2+ chips the
     * recorder renders each chip's units as "chip<i>/"-prefixed
     * tracks plus an "interconnect" aggregation track fed by flow
     * arrows from every chip's update slice.
     */
    ClusterReport runCluster(const Job &job,
                             trace::TraceRecorder *recorder =
                                 nullptr) const;

  private:
    /**
     * The prelude every entry point shares: validate @p job and check
     * that it names this simulator's network (or none).
     */
    void check(const Job &job) const;

    /**
     * The mapping one chip runs @p chip on (the derivative arrays
     * hold its batch).  Throws ConfigError, naming runCluster, when
     * the job spans more than one chip.
     */
    arch::NetworkMapping mapChip(const Job &chip) const;

    /**
     * Price one already-scheduled single-chip run: timing
     * conversion, the energy/area/efficiency model and the
     * per-layer breakdown.  Shared by every entry point, so a
     * shard report is identical however it was scheduled.
     */
    SimReport buildReport(const Job &chip,
                          const arch::NetworkMapping &map,
                          const arch::ScheduleStats &sched) const;

    /** Per-image energy of the forward compute at one layer. */
    double forwardLayerEnergy(const arch::LayerMapping &m) const;

    /** Per-image energy of the error backward at one layer. */
    double backwardLayerEnergy(const arch::LayerMapping &m) const;

    /** Per-image energy of the derivative computation at one layer. */
    double derivativeLayerEnergy(const arch::LayerMapping &m) const;

    /** Per-batch energy of the weight update. */
    double weightUpdateEnergy(const arch::NetworkMapping &mapping) const;

    /** Per-image buffer read/write energy. */
    double bufferEnergy(const workloads::NetworkSpec &spec,
                        bool training) const;

    /** Worst per-stage latency including backward work if training. */
    double cycleTime(const arch::NetworkMapping &mapping,
                     bool training) const;

    workloads::NetworkSpec spec_;
    reram::DeviceParams params_;
    arch::GranularityConfig granularity_;
};

} // namespace sim
} // namespace pipelayer

#endif // PIPELAYER_SIM_SIMULATOR_HH_
