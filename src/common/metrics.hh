/**
 * @file
 * Cycle-windowed time-series metrics: the NDJSON stream behind
 * `pl_serve --metrics=` and `tools/pl_report` (docs/observability.md,
 * "Serving telemetry").
 *
 * The trace layer (common/trace.hh) answers "what happened to request
 * 17"; this layer answers "what was p99 latency between cycles 4096
 * and 4160".  A Sampler divides logical time into fixed windows of K
 * cycles and aggregates three channel kinds over each window:
 *
 *  - counters: monotone event counts (arrivals, sheds, launches);
 *    each window reports the delta and the running total, so
 *    throughput-over-time is the delta series and reconciliation
 *    against a run summary is the final total;
 *  - gauges: sampled levels (queue depth); each window reports the
 *    last value set at or before its close, carried forward across
 *    idle windows;
 *  - distributions: per-window nearest-rank p50/p95/p99 plus
 *    count/min/max/sum (request latency, batch size), computed with
 *    the same integer percentile rule as sim::ServingReport, so the
 *    trailer's whole-run percentiles equal the report's exactly.
 *
 * Feeding is deferred: observations are buffered with their cycle and
 * only bucketed at finish(), so producers that discover events out of
 * cycle order (the serving policy loop emits completions after later
 * arrivals; the scheduler replays entries afterwards) can all feed
 * one sampler without coordination.  Everything is integer cycle
 * arithmetic over deterministic feeds, so the serialised stream is
 * byte-identical at any PL_THREADS — CI byte-compares it — and
 * gatable by tools (pl_report diffs two streams window by window).
 *
 * Stream format: one compact JSON object per line.  W window records
 * ({"metrics_version":1, "cycle":K*w, ...}) followed by exactly one
 * trailer ({"metrics_version":1, "trailer":true, ...}) carrying
 * whole-run totals and distribution percentiles; tools/json_lint
 * validates monotone window cycles and that the window deltas/counts
 * reconcile with the trailer totals.
 */

#ifndef PIPELAYER_COMMON_METRICS_HH_
#define PIPELAYER_COMMON_METRICS_HH_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace pipelayer {
namespace metrics {

/**
 * Nearest-rank percentile of an ascending-sorted sample: the smallest
 * element with at least @p pct percent of the sample at or below it.
 * Integer arithmetic end to end (the rule sim::ServingReport uses),
 * 0 on an empty sample.
 */
int64_t percentile(const std::vector<int64_t> &sorted, int64_t pct);

/**
 * The windowed sampler.  Register channels, feed (cycle, value)
 * observations in any order, then finish() once to emit the stream.
 */
class Sampler
{
  public:
    /** Window width in logical cycles; throws ConfigError if < 1. */
    explicit Sampler(int64_t interval_cycles);

    int64_t interval() const { return interval_; }

    /** @name Channel registration (before finish(); names unique
     *  across all three kinds, panic on a duplicate). */
    ///@{
    int counter(const std::string &name);
    int gauge(const std::string &name);
    int distribution(const std::string &name);
    ///@}

    /**
     * Write @p stats, a JSON object of whole-run figures, as the
     * trailer's "stats" member (replacing an earlier one).  A caller
     * attaches only deterministic values, so the trailer stays
     * byte-stable.
     */
    void attachStats(json::Value stats);

    /** @name Feeding (ids from the registration calls; cycles >= 0,
     *  any order). */
    ///@{
    void add(int counter_id, int64_t cycle, int64_t delta = 1);
    void set(int gauge_id, int64_t cycle, int64_t value);
    void observe(int distribution_id, int64_t cycle, int64_t value);
    ///@}

    /**
     * Close every window through @p end_cycle (exclusive; stretched
     * to cover any later observation) and build the stream: one
     * record per window — including idle ones, so the series has no
     * gaps — then the trailer.  Call exactly once; feeding after
     * finish() panics.
     */
    void finish(int64_t end_cycle);

    bool finished() const { return finished_; }

    /** Emitted lines (window records then the trailer). @pre
     *  finished(). */
    const std::vector<json::Value> &records() const;

    /** The trailer record. @pre finished(). */
    const json::Value &trailer() const;

    /** Write the stream as NDJSON (one compact line per record). */
    void write(std::ostream &os) const;

    /** write() to @p path; fatal() if the file can't open. */
    void writeFile(const std::string &path) const;

  private:
    struct Channel
    {
        std::string name;
        std::vector<std::pair<int64_t, int64_t>> events; //!< cycle, value
    };

    int registerChannel(std::vector<Channel> &kind,
                        const std::string &name);

    int64_t interval_;
    bool finished_ = false;
    int64_t max_cycle_ = -1; //!< largest cycle fed so far
    std::vector<Channel> counters_;
    std::vector<Channel> gauges_;
    std::vector<Channel> distributions_;
    json::Value stats_; //!< null until attachStats()
    std::vector<json::Value> records_; //!< windows + trailer
};

} // namespace metrics
} // namespace pipelayer

#endif // PIPELAYER_COMMON_METRICS_HH_
