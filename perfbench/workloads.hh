/**
 * @file
 * The benchmark's four workloads and the checks on their outputs.
 * README.md gives the reason for each workload and the layer each one
 * exercises or bypasses.
 */

#ifndef PERFBENCH_WORKLOADS_HH_
#define PERFBENCH_WORKLOADS_HH_

#include <memory>
#include <string>
#include <vector>

#include "harness.hh"
#include "sim/serving.hh"

namespace perfbench {

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** A fresh workload by name; nullptr when the name is unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** Training output: finite loss, accuracy in [0, 1]. "" when sane. */
std::string checkTraining(double loss, double accuracy);

/**
 * Serving report: admitted + shed = arrivals, no structural hazards
 * or buffer violations, p50 <= p95 <= p99 <= max, and every admitted
 * record's latency = completion - arrival.  "" when sane.
 */
std::string checkServing(const pipelayer::sim::ServingReport &report);

/**
 * Emitted NDJSON: one line per completion record, in order, each
 * parsing back to the record's id, then the summary line.
 */
std::string checkEmitted(const std::string &ndjson,
                         const pipelayer::sim::ServingReport &report);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH_
