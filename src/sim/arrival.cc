#include "sim/arrival.hh"

#include <cmath>

#include "arch/pipeline.hh"
#include "common/logging.hh"
#include "common/rng.hh"

namespace pipelayer {
namespace sim {

namespace {

void
checkCount(int64_t n)
{
    if (n < 0 || n > ArrivalTrace::kMaxRequests) {
        throw ConfigError(
            "ArrivalTrace: 'num_requests' must be in [0, " +
            std::to_string(ArrivalTrace::kMaxRequests) + "], got " +
            std::to_string(n));
    }
}

/**
 * @p cycle + @p gap, checked before it is formed: a ConfigError
 * naming the generator's @p field when the sum would pass
 * arch::kMaxCycle.
 */
int64_t
advance(int64_t cycle, uint64_t gap, const char *field)
{
    if (gap > static_cast<uint64_t>(arch::kMaxCycle - cycle)) {
        throw ConfigError(std::string("ArrivalTrace: '") + field +
                          "' drives the arrival cycle past 2^60 after "
                          "cycle " + std::to_string(cycle));
    }
    return cycle + static_cast<int64_t>(gap);
}

} // namespace

ArrivalTrace
ArrivalTrace::fixed(int64_t n, int64_t interval)
{
    checkCount(n);
    if (interval < 1) {
        throw ConfigError(
            "ArrivalTrace: fixed interval must be positive, got " +
            std::to_string(interval));
    }
    ArrivalTrace t;
    t.kind_ = Kind::Fixed;
    t.interval_ = interval;
    t.cycles_.reserve(static_cast<size_t>(n));
    int64_t cycle = 0;
    for (int64_t i = 0; i < n; ++i) {
        if (i > 0)
            cycle = advance(cycle, static_cast<uint64_t>(interval),
                            "interval");
        t.cycles_.push_back(cycle);
    }
    return t;
}

ArrivalTrace
ArrivalTrace::poisson(int64_t n, double rate, uint64_t seed)
{
    checkCount(n);
    if (!(rate > 0.0)) {
        throw ConfigError(
            "ArrivalTrace: Poisson rate must be positive, got " +
            std::to_string(rate));
    }
    ArrivalTrace t;
    t.kind_ = Kind::Poisson;
    t.rate_ = rate;
    t.seed_ = seed;
    Rng rng(seed);
    t.cycles_.reserve(static_cast<size_t>(n));
    int64_t cycle = 0;
    for (int64_t i = 0; i < n; ++i) {
        if (i > 0) {
            // Exponential inter-arrival gap, floored to whole cycles;
            // uniform() < 1 keeps the log argument strictly positive.
            // A gap of 2^63 or more (infinite at a tiny rate) passes
            // the cycle bound from any cycle.
            const double gap =
                std::floor(-std::log(1.0 - rng.uniform()) / rate);
            cycle = advance(cycle,
                            gap < 0x1p63 ? static_cast<uint64_t>(gap)
                                         : ~uint64_t{0},
                            "rate_per_cycle");
        }
        t.cycles_.push_back(cycle);
    }
    return t;
}

ArrivalTrace
ArrivalTrace::uniform(int64_t n, int64_t min_gap, int64_t max_gap,
                      uint64_t seed)
{
    checkCount(n);
    if (min_gap < 0 || max_gap < min_gap) {
        throw ConfigError(
            "ArrivalTrace: uniform gaps need 0 <= min_gap <= max_gap, "
            "got [" + std::to_string(min_gap) + ", " +
            std::to_string(max_gap) + "]");
    }
    ArrivalTrace t;
    t.kind_ = Kind::Uniform;
    t.min_gap_ = min_gap;
    t.max_gap_ = max_gap;
    t.seed_ = seed;
    Rng rng(seed);
    t.cycles_.reserve(static_cast<size_t>(n));
    int64_t cycle = 0;
    for (int64_t i = 0; i < n; ++i) {
        if (i > 0) {
            // At most max_gap, so the gap itself cannot overflow.
            const uint64_t gap =
                static_cast<uint64_t>(min_gap) +
                rng.uniformInt(static_cast<uint64_t>(max_gap - min_gap) +
                               1);
            cycle = advance(cycle, gap, "max_gap");
        }
        t.cycles_.push_back(cycle);
    }
    return t;
}

ArrivalTrace
ArrivalTrace::bursty(int64_t n, int64_t burst_size, int64_t mean_gap,
                     uint64_t seed)
{
    checkCount(n);
    if (burst_size < 1) {
        throw ConfigError(
            "ArrivalTrace: burst size must be positive, got " +
            std::to_string(burst_size));
    }
    if (mean_gap < 1) {
        throw ConfigError(
            "ArrivalTrace: mean burst gap must be positive, got " +
            std::to_string(mean_gap));
    }
    ArrivalTrace t;
    t.kind_ = Kind::Bursty;
    t.burst_size_ = burst_size;
    t.mean_gap_ = mean_gap;
    t.seed_ = seed;
    Rng rng(seed);
    t.cycles_.reserve(static_cast<size_t>(n));
    int64_t cycle = 0;
    int64_t emitted = 0;
    while (emitted < n) {
        const int64_t burst = std::min(burst_size, n - emitted);
        for (int64_t i = 0; i < burst; ++i)
            t.cycles_.push_back(cycle);
        emitted += burst;
        if (emitted < n) {
            const uint64_t gap =
                1 + rng.uniformInt(2 * static_cast<uint64_t>(mean_gap) -
                                   1);
            cycle = advance(cycle, gap, "mean_gap");
        }
    }
    return t;
}

ArrivalTrace
ArrivalTrace::replay(std::vector<int64_t> cycles)
{
    ArrivalTrace t;
    t.kind_ = Kind::Replay;
    t.cycles_ = std::move(cycles);
    t.validate();
    return t;
}

void
ArrivalTrace::validate() const
{
    int64_t prev = 0;
    for (const int64_t cycle : cycles_) {
        if (cycle < 0 || cycle > arch::kMaxCycle) {
            throw ConfigError(
                "ArrivalTrace: 'arrival_cycle' must lie in [0, 2^60], "
                "got " + std::to_string(cycle));
        }
        if (cycle < prev) {
            throw ConfigError(
                "ArrivalTrace: arrival cycles must be non-decreasing "
                "(" + std::to_string(cycle) + " after " +
                std::to_string(prev) + ")");
        }
        prev = cycle;
    }
}

namespace {

const char *
kindName(ArrivalTrace::Kind kind)
{
    switch (kind) {
      case ArrivalTrace::Kind::Fixed:   return "fixed";
      case ArrivalTrace::Kind::Poisson: return "poisson";
      case ArrivalTrace::Kind::Uniform: return "uniform";
      case ArrivalTrace::Kind::Bursty:  return "bursty";
      case ArrivalTrace::Kind::Replay:  return "replay";
    }
    panic("unreachable arrival-trace kind");
}

/** Required numeric member, as ConfigError (not a parse panic). */
const json::Value &
requireNumber(const json::Value &v, const char *key)
{
    const json::Value *member = v.find(key);
    if (!member || !member->isNumber()) {
        throw ConfigError(
            std::string("ArrivalTrace: JSON lacks numeric '") + key +
            "'");
    }
    return *member;
}

/** Required integer member, exact or ConfigError. */
int64_t
requireInt(const json::Value &v, const char *key)
{
    return requireNumber(v, key).asInt(std::string("ArrivalTrace: '") +
                                       key + "'");
}

} // namespace

json::Value
ArrivalTrace::toJson() const
{
    json::Value v = json::Value::object();
    v["arrival_trace_version"] = json::Value(int64_t{1});
    v["kind"] = json::Value(kindName(kind_));
    v["num_requests"] = json::Value(size());
    switch (kind_) {
      case Kind::Fixed:
        v["interval"] = json::Value(interval_);
        break;
      case Kind::Poisson:
        v["rate_per_cycle"] = json::Value(rate_);
        v["seed"] = json::Value(static_cast<int64_t>(seed_));
        break;
      case Kind::Uniform:
        v["min_gap"] = json::Value(min_gap_);
        v["max_gap"] = json::Value(max_gap_);
        v["seed"] = json::Value(static_cast<int64_t>(seed_));
        break;
      case Kind::Bursty:
        v["burst_size"] = json::Value(burst_size_);
        v["mean_gap"] = json::Value(mean_gap_);
        v["seed"] = json::Value(static_cast<int64_t>(seed_));
        break;
      case Kind::Replay: {
        json::Value cycles = json::Value::array();
        for (const int64_t cycle : cycles_)
            cycles.push(json::Value(cycle));
        v["cycles"] = std::move(cycles);
        break;
      }
    }
    return v;
}

ArrivalTrace
ArrivalTrace::fromJson(const json::Value &v)
{
    const json::Value *kind = v.find("kind");
    if (!kind || !kind->isString())
        throw ConfigError("ArrivalTrace: JSON lacks a 'kind' string");
    const std::string &name = kind->asString();

    if (name == "replay") {
        const json::Value *cycles = v.find("cycles");
        if (!cycles || !cycles->isArray()) {
            throw ConfigError(
                "ArrivalTrace: replay trace lacks a 'cycles' array");
        }
        std::vector<int64_t> out;
        out.reserve(cycles->size());
        for (size_t i = 0; i < cycles->size(); ++i) {
            if (!cycles->at(i).isNumber()) {
                throw ConfigError(
                    "ArrivalTrace: replay cycle " + std::to_string(i) +
                    " is not a number");
            }
            out.push_back(cycles->at(i).asInt(
                "ArrivalTrace: replay cycle " + std::to_string(i)));
        }
        return replay(std::move(out));
    }

    const int64_t n = requireInt(v, "num_requests");
    if (name == "fixed")
        return fixed(n, requireInt(v, "interval"));
    // toJson() writes the seed as its int64 bit pattern.
    const auto seed = static_cast<uint64_t>(requireInt(v, "seed"));
    if (name == "poisson") {
        return poisson(n, requireNumber(v, "rate_per_cycle").asNumber(),
                       seed);
    }
    if (name == "uniform") {
        return uniform(n, requireInt(v, "min_gap"),
                       requireInt(v, "max_gap"), seed);
    }
    if (name == "bursty") {
        return bursty(n, requireInt(v, "burst_size"),
                      requireInt(v, "mean_gap"), seed);
    }
    throw ConfigError("ArrivalTrace: unknown kind '" + name + "'");
}

std::string
ArrivalTrace::describe() const
{
    std::string out = kindName(kind_);
    switch (kind_) {
      case Kind::Fixed:
        out += " interval=" + std::to_string(interval_);
        break;
      case Kind::Poisson:
        out += " rate=" + json::Value::formatNumber(rate_);
        break;
      case Kind::Uniform:
        out += " gap=[" + std::to_string(min_gap_) + "," +
               std::to_string(max_gap_) + "]";
        break;
      case Kind::Bursty:
        out += " burst=" + std::to_string(burst_size_) + " gap~" +
               std::to_string(mean_gap_);
        break;
      case Kind::Replay:
        break;
    }
    out += " n=" + std::to_string(size());
    return out;
}

} // namespace sim
} // namespace pipelayer
