#include "common/metrics.hh"

#include <algorithm>
#include <fstream>

#include "common/logging.hh"

namespace pipelayer {
namespace metrics {

int64_t
percentile(const std::vector<int64_t> &sorted, int64_t pct)
{
    if (sorted.empty())
        return 0;
    const int64_t m = static_cast<int64_t>(sorted.size());
    int64_t rank = (pct * m + 99) / 100;
    rank = std::max<int64_t>(1, std::min(rank, m));
    return sorted[static_cast<size_t>(rank - 1)];
}

namespace {

/**
 * The per-sample summary shared by window records and the trailer;
 * throws ConfigError naming @p channel if the sum overflows int64.
 */
json::Value
distributionJson(const std::string &channel, std::vector<int64_t> &values)
{
    std::sort(values.begin(), values.end());
    json::Value v = json::Value::object();
    v["count"] = static_cast<int64_t>(values.size());
    v["min"] = values.empty() ? int64_t{0} : values.front();
    v["max"] = values.empty() ? int64_t{0} : values.back();
    int64_t sum = 0;
    for (const int64_t x : values) {
        if (__builtin_add_overflow(sum, x, &sum)) {
            throw ConfigError("metrics distribution '" + channel +
                              "': the sum of its " +
                              std::to_string(values.size()) +
                              " observations overflows int64");
        }
    }
    v["sum"] = sum;
    v["p50"] = percentile(values, 50);
    v["p95"] = percentile(values, 95);
    v["p99"] = percentile(values, 99);
    return v;
}

} // namespace

Sampler::Sampler(int64_t interval_cycles) : interval_(interval_cycles)
{
    if (interval_cycles < 1) {
        throw ConfigError(
            "metrics::Sampler: interval must be at least 1 cycle, "
            "got " + std::to_string(interval_cycles));
    }
}

int
Sampler::registerChannel(std::vector<Channel> &kind,
                         const std::string &name)
{
    PL_ASSERT(!finished_, "metrics channel '%s' registered after "
              "finish()", name.c_str());
    for (const auto *channels :
         {&counters_, &gauges_, &distributions_}) {
        for (const Channel &c : *channels) {
            if (c.name == name) {
                panic("metrics channel '%s' registered twice",
                      name.c_str());
            }
        }
    }
    kind.push_back({name, {}});
    return static_cast<int>(kind.size()) - 1;
}

int
Sampler::counter(const std::string &name)
{
    return registerChannel(counters_, name);
}

int
Sampler::gauge(const std::string &name)
{
    return registerChannel(gauges_, name);
}

int
Sampler::distribution(const std::string &name)
{
    return registerChannel(distributions_, name);
}

void
Sampler::attachStats(json::Value stats)
{
    PL_ASSERT(!finished_, "metrics stats attached after finish()");
    PL_ASSERT(stats.isObject(), "metrics stats must be a JSON object");
    stats_ = std::move(stats);
}

void
Sampler::add(int counter_id, int64_t cycle, int64_t delta)
{
    PL_ASSERT(!finished_, "metrics counter fed after finish()");
    PL_ASSERT(counter_id >= 0 &&
              counter_id < static_cast<int>(counters_.size()),
              "unknown metrics counter id %d", counter_id);
    PL_ASSERT(cycle >= 0, "metrics counter fed at negative cycle %lld",
              (long long)cycle);
    counters_[static_cast<size_t>(counter_id)].events.emplace_back(
        cycle, delta);
    max_cycle_ = std::max(max_cycle_, cycle);
}

void
Sampler::set(int gauge_id, int64_t cycle, int64_t value)
{
    PL_ASSERT(!finished_, "metrics gauge fed after finish()");
    PL_ASSERT(gauge_id >= 0 &&
              gauge_id < static_cast<int>(gauges_.size()),
              "unknown metrics gauge id %d", gauge_id);
    PL_ASSERT(cycle >= 0, "metrics gauge fed at negative cycle %lld",
              (long long)cycle);
    gauges_[static_cast<size_t>(gauge_id)].events.emplace_back(cycle,
                                                               value);
    max_cycle_ = std::max(max_cycle_, cycle);
}

void
Sampler::observe(int distribution_id, int64_t cycle, int64_t value)
{
    PL_ASSERT(!finished_, "metrics distribution fed after finish()");
    PL_ASSERT(distribution_id >= 0 &&
              distribution_id <
                  static_cast<int>(distributions_.size()),
              "unknown metrics distribution id %d", distribution_id);
    PL_ASSERT(cycle >= 0,
              "metrics distribution fed at negative cycle %lld",
              (long long)cycle);
    distributions_[static_cast<size_t>(distribution_id)]
        .events.emplace_back(cycle, value);
    max_cycle_ = std::max(max_cycle_, cycle);
}

void
Sampler::finish(int64_t end_cycle)
{
    PL_ASSERT(!finished_, "metrics sampler finished twice");

    // Stretch the horizon over every buffered observation, then cut
    // it into ceil(horizon / K) windows (none for an empty run).
    const int64_t horizon = std::max(end_cycle, max_cycle_ + 1);
    const int64_t windows =
        horizon > 0 ? (horizon - 1) / interval_ + 1 : 0;
    if (windows > kMaxWindows) {
        throw WindowLimitError(
            "metrics::Sampler: an interval of " +
            std::to_string(interval_) + " cycles needs " +
            std::to_string(windows) + " windows to reach the last cycle " +
            std::to_string(horizon - 1) + ", more than the " +
            std::to_string(kMaxWindows) + "-window bound");
    }
    finished_ = true;

    // Observations were buffered in feed order; bucket them by cycle.
    // The sort is stable, so same-cycle gauge sets keep their feed
    // order (deterministic — the producers are serial) and "last set
    // in the window" is well defined.
    for (auto *channels : {&counters_, &gauges_, &distributions_}) {
        for (Channel &c : *channels) {
            std::stable_sort(c.events.begin(), c.events.end(),
                             [](const auto &a, const auto &b) {
                                 return a.first < b.first;
                             });
        }
    }

    std::vector<size_t> counter_pos(counters_.size(), 0);
    std::vector<size_t> gauge_pos(gauges_.size(), 0);
    std::vector<size_t> dist_pos(distributions_.size(), 0);
    std::vector<int64_t> counter_total(counters_.size(), 0);
    std::vector<int64_t> gauge_value(gauges_.size(), 0);

    for (int64_t w = 0; w < windows; ++w) {
        const int64_t window_start = w * interval_;
        const int64_t window_end =
            std::min(window_start + interval_, horizon);

        json::Value rec = json::Value::object();
        rec["metrics_version"] = json::Value(int64_t{1});
        rec["cycle"] = window_start;
        rec["end_cycle"] = window_end;
        rec["interval"] = interval_;

        json::Value counters = json::Value::object();
        for (size_t i = 0; i < counters_.size(); ++i) {
            const auto &events = counters_[i].events;
            int64_t delta = 0;
            while (counter_pos[i] < events.size() &&
                   events[counter_pos[i]].first < window_end) {
                delta += events[counter_pos[i]].second;
                ++counter_pos[i];
            }
            counter_total[i] += delta;
            json::Value c = json::Value::object();
            c["delta"] = delta;
            c["total"] = counter_total[i];
            counters[counters_[i].name] = std::move(c);
        }
        rec["counters"] = std::move(counters);

        json::Value gauges = json::Value::object();
        for (size_t i = 0; i < gauges_.size(); ++i) {
            const auto &events = gauges_[i].events;
            while (gauge_pos[i] < events.size() &&
                   events[gauge_pos[i]].first < window_end) {
                gauge_value[i] = events[gauge_pos[i]].second;
                ++gauge_pos[i];
            }
            gauges[gauges_[i].name] = gauge_value[i];
        }
        rec["gauges"] = std::move(gauges);

        json::Value dists = json::Value::object();
        for (size_t i = 0; i < distributions_.size(); ++i) {
            const auto &events = distributions_[i].events;
            std::vector<int64_t> values;
            while (dist_pos[i] < events.size() &&
                   events[dist_pos[i]].first < window_end) {
                values.push_back(events[dist_pos[i]].second);
                ++dist_pos[i];
            }
            dists[distributions_[i].name] =
                distributionJson(distributions_[i].name, values);
        }
        rec["distributions"] = std::move(dists);

        records_.push_back(std::move(rec));
    }

    // Trailer: whole-run totals and percentiles, computed from the
    // same buffered observations, so a window-by-window sum must
    // reconcile exactly (tools/json_lint checks it).
    json::Value trailer = json::Value::object();
    trailer["metrics_version"] = json::Value(int64_t{1});
    trailer["trailer"] = json::Value(true);
    trailer["interval"] = interval_;
    trailer["windows"] = windows;
    trailer["end_cycle"] = horizon > 0 ? horizon : int64_t{0};
    json::Value totals = json::Value::object();
    for (size_t i = 0; i < counters_.size(); ++i)
        totals[counters_[i].name] = counter_total[i];
    trailer["totals"] = std::move(totals);
    json::Value dists = json::Value::object();
    for (auto &c : distributions_) {
        std::vector<int64_t> values;
        values.reserve(c.events.size());
        for (const auto &event : c.events)
            values.push_back(event.second);
        dists[c.name] = distributionJson(c.name, values);
    }
    trailer["distributions"] = std::move(dists);
    if (!stats_.isNull())
        trailer["stats"] = std::move(stats_);
    records_.push_back(std::move(trailer));
}

const std::vector<json::Value> &
Sampler::records() const
{
    PL_ASSERT(finished_, "metrics records read before finish()");
    return records_;
}

const json::Value &
Sampler::trailer() const
{
    PL_ASSERT(finished_ && !records_.empty(),
              "metrics trailer read before finish()");
    return records_.back();
}

void
Sampler::write(std::ostream &os) const
{
    for (const json::Value &rec : records())
        os << rec.dump() << "\n";
}

void
Sampler::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot open metrics file '%s' for writing", path.c_str());
    write(os);
    if (!os)
        fatal("failed writing metrics file '%s'", path.c_str());
}

} // namespace metrics
} // namespace pipelayer
