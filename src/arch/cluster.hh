/**
 * @file
 * Multi-chip data-parallel scale-out of the PipeLayer pipeline.
 *
 * The paper's schedule (§3.3) ends at one chip; PANTHER-style
 * hierarchical training (PAPERS.md) shards a batch across a fleet of
 * accelerators and pays a gradient-aggregation / weight-broadcast
 * phase between batches.  arch::Cluster models exactly that on top of
 * the existing intra-chip machinery: every chip runs the same shard of
 * the batch (B/C images per batch, N/C images overall, so chips stay
 * in lock-step batch for batch), and each batch boundary adds one
 * interconnect aggregation round whose cost follows an explicit link
 * model (InterconnectConfig).
 *
 * Identical shards make identical schedules, so the cluster runs the
 * shard schedule once (DESIGN.md §9): that run's stats stand for
 * every chip, its trace is merged once per chip in chip order, and
 * its Update ops are the batch boundaries the aggregation rounds and
 * their trace slices follow.  Nothing runs on the thread pool, so
 * cluster stats and traces are byte-identical at any PL_THREADS, and
 * a 1-chip cluster emits byte-identical output to a bare
 * PipelineScheduler (no track prefix, no interconnect track).
 */

#ifndef PIPELAYER_ARCH_CLUSTER_HH_
#define PIPELAYER_ARCH_CLUSTER_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "arch/pipeline.hh"
#include "common/json.hh"
#include "common/trace.hh"

namespace pipelayer {
namespace arch {

/** How the chips exchange gradients at a batch boundary. */
enum class Topology {
    Ring,            //!< ring all-reduce: 2(C-1) concurrent steps
    ParameterServer, //!< C uploads + C broadcasts through one server
};

/** Human-readable topology name ("ring" / "parameter_server"). */
const char *topologyName(Topology t);

/** Parse a topologyName() string; throws ConfigError on others. */
Topology topologyFromName(const std::string &name);

/**
 * The inter-chip link model: every transfer of @c b bytes over one
 * link costs link_latency_s + b / link_bytes_per_s seconds and
 * b * link_energy_per_byte_j joules.  The defaults model an
 * on-package interposer link (HBM-class signalling): 100 ns hop
 * latency, 256 GB/s per link, 10 pJ/byte.
 */
struct InterconnectConfig
{
    Topology topology = Topology::Ring;
    double link_latency_s = 100e-9;
    double link_bytes_per_s = 256e9;
    double link_energy_per_byte_j = 10e-12;

    /**
     * Check the link model, throwing ConfigError on bad values:
     * latency and energy must be non-negative, bandwidth positive.
     */
    void validate() const;

    /** Machine-readable form (schema in docs/observability.md). */
    json::Value toJson() const;

    /** Rebuild from JSON; throws ConfigError on bad descriptions. */
    static InterconnectConfig fromJson(const json::Value &v);
};

/**
 * Cost of one gradient-aggregation round (one batch boundary).
 *
 * Ring all-reduce moves the payload in 2(C-1) steps; in each step
 * every chip sends one 1/C chunk to its neighbour concurrently, so
 * the round takes 2(C-1) link transfers of ceil(W/C) bytes while
 * 2(C-1)*C chunks cross links in total.  The parameter server
 * serialises C uploads and C broadcasts of the full payload through
 * its single link.  A 1-chip cluster aggregates nothing.
 */
struct InterconnectCost
{
    int64_t payload_bytes = 0; //!< per-chip gradient footprint W
    int64_t wire_bytes = 0;    //!< bytes crossing links, all chips
    double time_s = 0.0;       //!< seconds per round
    double energy_j = 0.0;     //!< joules per round
};

/** The closed-form round cost for @p cfg moving @p payload_bytes. */
InterconnectCost aggregationRoundCost(const InterconnectConfig &cfg,
                                      int64_t num_chips,
                                      int64_t payload_bytes);

/** Everything a cluster run measured. */
struct ClusterStats
{
    int64_t num_chips = 1;

    /** Per-chip schedule measurements, chip order (every chip runs
     *  the same shard, so the entries are copies of one run). */
    std::vector<ScheduleStats> per_chip;

    /** Max per-chip schedule cycles (chips run in lock-step). */
    int64_t chip_cycles = 0;

    int64_t aggregation_rounds = 0; //!< batch boundaries (training)
    int64_t payload_bytes = 0;      //!< per-chip gradient bytes/round
    int64_t wire_bytes = 0;         //!< link bytes, whole run
    double aggregation_time_s = 0.0;  //!< seconds, whole run
    double aggregation_energy_j = 0.0; //!< joules, whole run

    /**
     * The aggregation time expressed in logical cycles, converted
     * once at run granularity — ceil(aggregation_time_s /
     * cycle_time_s) — rather than ceiling each round separately, so
     * a sub-cycle round cost is not inflated N/B times (the rounds
     * overlap the next batch's fill in hardware; DESIGN.md §9).
     */
    int64_t aggregation_cycles = 0;

    /** chip_cycles + aggregation_cycles: the cluster's run length. */
    int64_t total_cycles = 0;

    /** Machine-readable form of every measurement. */
    json::Value toJson() const;
};

/**
 * Runs the shard schedule once for all chips, plus the aggregation
 * phase.
 *
 * @c depth is the mapped network's pipeline depth L
 * (NetworkMapping::depth()), and the schedule describes ONE chip's
 * shard: the caller divides batch and volume by @c num_chips first
 * (sim::Simulator::runCluster takes sim::Job::shard() of a job whose
 * even split sim::Job::validate() checked).  @c payload_bytes is the
 * gradient footprint each chip contributes per round, derived from
 * the mapped network's weight parameters; @c cycle_time_s converts
 * aggregation seconds to logical cycles and must be positive
 * whenever a training run has 2+ chips.
 */
class Cluster
{
  public:
    /**
     * Throws ConfigError unless depth and num_chips are >= 1, the
     * shard schedule and the link model validate, and payload_bytes
     * is non-negative.
     */
    Cluster(int64_t depth, const ScheduleConfig &shard, int64_t num_chips,
            const InterconnectConfig &interconnect, int64_t payload_bytes,
            double cycle_time_s);

    /**
     * Run the shard schedule, report it for every chip and price one
     * aggregation round per Update op.
     */
    ClusterStats run();

    /**
     * Attach a trace: after the shard runs, its slices are merged
     * once per chip in chip order — tracks prefixed "chip<i>/" when the
     * cluster has 2+ chips, unprefixed (byte-identical to a bare
     * scheduler trace) for one chip — and a training cluster of 2+
     * chips adds an "interconnect" track with one aggregation slice
     * per batch boundary, fed by flow arrows from every chip's update
     * slice.  Pass nullptr to detach.  The recorder must outlive
     * run().
     */
    void setTrace(trace::TraceRecorder *recorder);

  private:
    int64_t depth_;
    ScheduleConfig shard_;
    int64_t num_chips_;
    InterconnectConfig interconnect_;
    int64_t payload_bytes_;
    double cycle_time_s_;
    trace::TraceRecorder *trace_ = nullptr;
};

} // namespace arch
} // namespace pipelayer

#endif // PIPELAYER_ARCH_CLUSTER_HH_
