/**
 * @file
 * The one description of a simulator run (the paper's §6.2 inputs:
 * network, phase, pipelining, batch B and volume N), in the style of
 * LBANN's declarative trainer block (SNIPPETS.md §1) and DNNsim's
 * Simulator/Batch split (§2).
 *
 * A sim::Job is everything one simulation run needs to be described —
 * the workload (network name), the phase, the batching and volume,
 * the multi-chip shape and the request-arrival shape — with no
 * execution machinery attached.  Every shape rule lives in
 * Job::validate(); Simulator::run, Simulator::price and
 * Simulator::runCluster all execute a Job.
 *
 * Jobs are constructible from JSON (schema below, pinned by a golden
 * test and validated by tools/json_lint) so serving tools can accept
 * work descriptions over the wire:
 *
 *   {"job_version": 1, "network": "Mnist-A", "phase": "testing",
 *    "pipelined": true, "batch_size": 64, "num_images": 256,
 *    "arrivals": {<ArrivalTrace JSON, optional>}}
 */

#ifndef PIPELAYER_SIM_JOB_HH_
#define PIPELAYER_SIM_JOB_HH_

#include <cstdint>
#include <string>

#include "arch/cluster.hh"
#include "arch/pipeline.hh"
#include "common/json.hh"
#include "sim/arrival.hh"

namespace pipelayer {
namespace sim {

/** Execution phase being simulated. */
enum class Phase { Testing, Training };

/** One simulation run, fully described and not yet executed. */
struct Job
{
    /**
     * Workload label.  Empty means "whatever network the executing
     * Simulator was built for"; non-empty names must match the
     * simulator's spec (checked by every Simulator entry point, so a
     * job meant for VGG-A cannot silently run on an MNIST mapping).
     * Tools resolve names via workloads::networkByName().
     */
    std::string network;

    Phase phase = Phase::Testing;
    bool pipelined = true;
    int64_t batch_size = 64;
    int64_t num_images = 256;

    /**
     * Data-parallel cluster shape (DESIGN.md §9), PANTHER-style
     * (PAPERS.md).  1 chip is the single-chip paper machine; 2+
     * chips shard every batch and run through Simulator::runCluster,
     * paying one interconnect aggregation round per batch boundary
     * when training.  Serialised as optional "num_chips" /
     * "interconnect" members, emitted only when num_chips > 1, so
     * single-chip jobs keep the version-1 schema byte-for-byte.
     */
    int64_t num_chips = 1;

    /** The inter-chip link model; ignored when num_chips == 1. */
    arch::InterconnectConfig interconnect;

    /**
     * Request-arrival shape.  Empty (the default) is the paper's
     * back-to-back throughput schedule; a non-empty trace is the
     * serving shape — pipelined testing only, one arrival cycle per
     * image, one chip.
     */
    ArrivalTrace arrivals;

    /** A training run of @p images images in batches of @p batch. */
    static Job training(int64_t batch, int64_t images);

    /** A testing (forward-only) run of @p images images. */
    static Job testing(int64_t images);

    /** Rebuild from JSON; throws ConfigError on bad descriptions. */
    static Job fromJson(const json::Value &v);

    /** The machine-readable description (schema in the file header). */
    json::Value toJson() const;

    /**
     * The scheduler configuration this job implies (phase mapped to
     * ScheduleConfig::training, plus the arrival cycles), ignoring
     * the cluster shape.  The result satisfies
     * ScheduleConfig::validate() whenever this job satisfies
     * validate().
     */
    arch::ScheduleConfig schedule() const;

    /**
     * The single-chip shard of a cluster job: batch_size and
     * num_images divided by num_chips, num_chips reset to 1.  The
     * identity when num_chips == 1.
     */
    Job shard() const;

    /**
     * Check the description, throwing ConfigError (not asserting) on
     * bad values: batch_size and num_images must be positive; a
     * training run needs batch_size to divide num_images (the
     * paper's schedule separates full batches with an update cycle);
     * num_chips must be >= 1 and divide both batch_size and
     * num_images (chips shard evenly and stay in lock-step); the
     * interconnect model must validate; and a non-empty arrival
     * trace must validate and needs pipelined testing on one chip
     * with exactly one arrival per image.
     */
    void validate() const;
};

} // namespace sim
} // namespace pipelayer

#endif // PIPELAYER_SIM_JOB_HH_
