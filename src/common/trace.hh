/**
 * @file
 * Per-logical-cycle pipeline event tracing in the Chrome trace-event
 * format.
 *
 * Components emit complete events (closed slices) keyed by
 * (track = pipeline unit, image, logical cycle); the recorder
 * serialises them as a Chrome trace-event JSON document that loads
 * directly in Perfetto / chrome://tracing, rendering a training batch
 * as the paper's Fig. 6 timeline: one row per pipeline unit
 * (A1..AL forward stages, ErrL, A_l2 error units, dW_l derivative
 * units, Upd), one slice per logical cycle of occupancy.
 *
 * Beyond unit-occupancy slices, the recorder carries the serving
 * telemetry vocabulary (docs/observability.md "Serving telemetry"):
 *
 *  - async spans (Chrome "b"/"n"/"e" nestable events, keyed by
 *    (category, id)) render one row per in-flight request in
 *    Perfetto's async track group — a request's whole
 *    arrival -> queued -> launch -> complete lifecycle on its own
 *    row, stacking only when requests overlap;
 *  - flow arrows (Chrome "s"/"f" events) link a request's arrival
 *    slice to the batch slice that carried it — the ts of a flow
 *    endpoint must fall inside a slice on the named track, which
 *    toJson() asserts and tools/json_lint re-checks;
 *  - counter tracks (Chrome "C" events) render stepped time series
 *    (queue depth, in-flight requests, cumulative sheds).
 *
 * Timestamps are logical cycles scaled to microseconds (1 cycle =
 * 1 us in the viewer); wall-clock time never enters the trace, so
 * traces are byte-deterministic across runs and thread counts.
 */

#ifndef PIPELAYER_COMMON_TRACE_HH_
#define PIPELAYER_COMMON_TRACE_HH_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"

namespace pipelayer {
namespace trace {

/** One recorded slice: [begin_cycle, begin_cycle + duration). */
struct TraceEvent
{
    std::string name;     //!< slice label (e.g. "fwd img3")
    std::string category; //!< event class ("forward", "error", ...)
    int64_t track = 0;    //!< pipeline unit row (tid in the viewer)
    int64_t begin_cycle = 0;
    int64_t duration = 1; //!< logical cycles
    int64_t image = -1;   //!< image id, or -1 (batch-level events)
};

/**
 * Collects pipeline events and serialises them as Chrome trace-event
 * JSON.  Tracks must be declared up front with addTrack() so the
 * viewer orders the rows like the paper's figures (declaration
 * order = sort index).
 */
class TraceRecorder
{
  public:
    explicit TraceRecorder(std::string process_name = "pipelayer");

    /** Declare a unit row; returns its track id. */
    int64_t addTrack(const std::string &name);

    int64_t trackCount() const
    {
        return static_cast<int64_t>(tracks_.size());
    }

    /**
     * Append every track, slice and mark of @p other into this
     * recorder, renaming each track to @p track_prefix + its name and
     * rebasing track ids accordingly; its process name is discarded.
     * Async/flow keys are merged as-is, so callers must keep
     * (category, id) keys distinct across merged recorders.
     * arch::Cluster merges its one shard recorder here once per chip,
     * in chip order — toJson() orders slices by (cycle, track), so a
     * merge of one unprefixed recorder is byte-identical to direct
     * emission.
     *
     * @return the track id this recorder assigned to @p other's
     *         track 0 (the rebase offset).
     */
    int64_t mergeFrom(const TraceRecorder &other,
                      const std::string &track_prefix);

    /**
     * Record the slice [@p cycle, @p cycle + @p duration) on the
     * declared @p track; a zero duration is stretched to one cycle,
     * a negative one panics.
     */
    void complete(int64_t track, const std::string &name,
                  const std::string &category, int64_t cycle,
                  int64_t duration = 1, int64_t image = -1);

    /** @name Async spans (per-request lifecycle rendering).
     *
     * Chrome nestable async events keyed by (category, id): begins
     * and ends must balance per key by toJson() time (asserted), and
     * spans with the same key may nest ("req3" containing "queued"
     * and "exec" steps).  Perfetto renders each (category, id) as one
     * row in the async track group, so concurrent requests stack into
     * exactly the per-request track group the serving trace needs.
     */
    ///@{
    void asyncBegin(const std::string &name, const std::string &category,
                    int64_t id, int64_t cycle);

    /** A zero-duration marker inside an open span ("admitted"...). */
    void asyncInstant(const std::string &name,
                      const std::string &category, int64_t id,
                      int64_t cycle);

    void asyncEnd(const std::string &name, const std::string &category,
                  int64_t id, int64_t cycle);
    ///@}

    /** @name Flow arrows (request -> carrying batch).
     *
     * Chrome "s"/"f" events keyed by (category, id).  A flow endpoint
     * binds to the slice that encloses its timestamp on @p track, so
     * both calls require an enclosing complete()d slice there by
     * toJson() time (asserted, and re-checked by tools/json_lint);
     * every started flow must also be finished exactly once.
     */
    ///@{
    void flowStart(const std::string &name, const std::string &category,
                   int64_t id, int64_t track, int64_t cycle);

    void flowFinish(const std::string &name,
                    const std::string &category, int64_t id,
                    int64_t track, int64_t cycle);
    ///@}

    /**
     * Set counter series @p name to @p value at @p cycle (Chrome "C"
     * event; renders as a stepped time-series track).  Emit points in
     * any order — serialisation sorts by cycle — but one series
     * should carry at most one point per cycle.
     */
    void counter(const std::string &name, int64_t cycle, int64_t value);

    /** All slices, in completion order. */
    const std::vector<TraceEvent> &events() const { return events_; }

    /** Number of slices recorded so far. */
    int64_t eventCount() const
    {
        return static_cast<int64_t>(events_.size());
    }

    /** Largest cycle covered by any slice, closed async span or
     *  counter point (0 when empty). */
    int64_t lastCycle() const { return last_cycle_; }

    /**
     * Serialise as a Chrome trace-event JSON object:
     * {"traceEvents": [...], "displayTimeUnit": "ms"} with one
     * metadata thread_name event per track, one "X" (complete) event
     * per slice in (cycle, track) order, then every async/flow/
     * counter event in (cycle, emission) order.  Asserts the
     * telemetry invariants: no open async spans, every flow started
     * and finished exactly once, and every flow endpoint enclosed by
     * a slice on its track.
     */
    json::Value toJson() const;

    /** toJson() written to @p path; fatal() if the file can't open. */
    void writeFile(const std::string &path) const;

  private:
    /** One async/flow/counter event (everything that is not a slice). */
    struct MarkEvent
    {
        enum class Kind { AsyncBegin, AsyncInstant, AsyncEnd,
                          FlowStart, FlowFinish, Counter };
        Kind kind;
        std::string name;
        std::string category; //!< counter: unused
        int64_t id = 0;       //!< async/flow key; counter: unused
        int64_t track = 0;    //!< flow: binding track; others: unused
        int64_t cycle = 0;
        int64_t value = 0;    //!< counter value
    };

    std::string process_name_;
    std::vector<std::string> tracks_;
    std::vector<TraceEvent> events_;
    std::vector<MarkEvent> marks_; //!< async/flow/counter, emit order
    /** Open async spans per (category, id); all zero by toJson(). */
    std::map<std::pair<std::string, int64_t>, int64_t> async_depth_;
    /** Flow (category, id) -> (starts, finishes); 1/1 by toJson(). */
    std::map<std::pair<std::string, int64_t>, std::pair<int64_t, int64_t>>
        flow_counts_;
    int64_t last_cycle_ = 0;
};

} // namespace trace
} // namespace pipelayer

#endif // PIPELAYER_COMMON_TRACE_HH_
