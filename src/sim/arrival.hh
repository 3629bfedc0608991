/**
 * @file
 * Deterministic synthetic request-arrival traces for the serving
 * subsystem (ROADMAP item 2, docs/serving.md).
 *
 * An ArrivalTrace is a non-decreasing sequence of logical cycles, one
 * per request: the open-loop load a serving simulation is offered.
 * Generators (fixed interval, Poisson, uniform-gap, bursty) draw from
 * common/rng, so a (kind, parameters, seed) triple always produces
 * the same cycles — results stay reproducible and
 * bench_compare-gatable.  A trace also round-trips through JSON
 * (schema pinned by tests/test_serving.cc and validated by
 * tools/json_lint), which is how tools/pl_serve replays canned load
 * and how sim::Job carries its arrival description.
 *
 * This abstraction replaces the retired
 * arch::ScheduleConfig::arrival_interval knob: fixed(n, k) produces
 * {0, k, 2k, ...}, which schedules byte-identically to the old
 * t0 = i * interval rule (tests/test_serving.cc proves it against the
 * cycle counts PR 6 pinned).
 */

#ifndef PIPELAYER_SIM_ARRIVAL_HH_
#define PIPELAYER_SIM_ARRIVAL_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace pipelayer {
namespace sim {

/** A deterministic request-arrival sequence in logical cycles. */
class ArrivalTrace
{
  public:
    /** How the cycles were produced (serialised in toJson()). */
    enum class Kind { Fixed, Poisson, Uniform, Bursty, Replay };

    /**
     * The most requests a generator makes (docs/serving.md).  Larger
     * counts, and parameters that would drive a cycle past
     * arch::kMaxCycle (2^60), are ConfigErrors naming the JSON field.
     */
    static constexpr int64_t kMaxRequests = 10'000'000;

    /** An empty trace (no requests; back-to-back when used by Job). */
    ArrivalTrace() = default;

    /**
     * One request every @p interval cycles: {0, k, 2k, ...}.
     * Reproduces the retired ScheduleConfig::arrival_interval knob
     * byte-identically.  @p interval must be positive (the rule that
     * moved here from ScheduleConfig::validate()).
     */
    static ArrivalTrace fixed(int64_t n, int64_t interval);

    /**
     * Poisson process with @p rate requests per cycle: inter-arrival
     * gaps floor(-ln(1-u)/rate), so same-cycle arrivals are possible
     * at high rates.  Deterministic for a given @p seed.
     */
    static ArrivalTrace poisson(int64_t n, double rate, uint64_t seed);

    /**
     * Independent uniform inter-arrival gaps in [min_gap, max_gap]
     * (both inclusive, 0 <= min_gap <= max_gap).
     */
    static ArrivalTrace uniform(int64_t n, int64_t min_gap,
                                int64_t max_gap, uint64_t seed);

    /**
     * Bursts of @p burst_size same-cycle requests; burst start cycles
     * are separated by a uniform gap in [1, 2*mean_gap - 1] (mean
     * mean_gap).  The stress shape for admission queues: a burst
     * larger than the queue capacity must shed.
     */
    static ArrivalTrace bursty(int64_t n, int64_t burst_size,
                               int64_t mean_gap, uint64_t seed);

    /** Replay an explicit cycle sequence (validated). */
    static ArrivalTrace replay(std::vector<int64_t> cycles);

    /**
     * Rebuild a trace from its JSON description (generator kinds are
     * re-generated from their parameters, replay reads "cycles").
     * Throws ConfigError on unknown kinds or missing/bad parameters.
     */
    static ArrivalTrace fromJson(const json::Value &v);

    /**
     * The machine-readable description (docs/serving.md schema):
     * {"arrival_trace_version": 1, "kind": ..., "num_requests": ...}
     * plus the generator parameters, or "cycles" for replay traces.
     * fromJson(toJson()) always reproduces the same cycles.
     */
    json::Value toJson() const;

    Kind kind() const { return kind_; }

    /** Requests in the trace. */
    int64_t size() const
    {
        return static_cast<int64_t>(cycles_.size());
    }

    bool empty() const { return cycles_.empty(); }

    /** The arrival cycle sequence (non-decreasing, in [0, 2^60]). */
    const std::vector<int64_t> &cycles() const { return cycles_; }

    /**
     * Check the invariant every generator guarantees — cycles in
     * [0, arch::kMaxCycle] and non-decreasing — throwing ConfigError
     * otherwise (reachable only through replay/fromJson input).
     */
    void validate() const;

    /** Human-readable one-line description ("poisson rate=0.2 n=64"). */
    std::string describe() const;

    bool operator==(const ArrivalTrace &other) const
    {
        return cycles_ == other.cycles_;
    }

  private:
    Kind kind_ = Kind::Replay;
    std::vector<int64_t> cycles_;

    // Generator parameters, kept so toJson() can describe the trace
    // compactly (replay traces serialise the cycles themselves).
    int64_t interval_ = 0;
    double rate_ = 0.0;
    int64_t min_gap_ = 0;
    int64_t max_gap_ = 0;
    int64_t burst_size_ = 0;
    int64_t mean_gap_ = 0;
    uint64_t seed_ = 0;
};

} // namespace sim
} // namespace pipelayer

#endif // PIPELAYER_SIM_ARRIVAL_HH_
