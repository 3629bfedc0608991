#include "arch/cluster.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace pipelayer {
namespace arch {

namespace {

int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

} // namespace

const char *
topologyName(Topology t)
{
    switch (t) {
    case Topology::Ring:
        return "ring";
    case Topology::ParameterServer:
        return "parameter_server";
    }
    panic("unreachable topology");
}

Topology
topologyFromName(const std::string &name)
{
    if (name == "ring")
        return Topology::Ring;
    if (name == "parameter_server")
        return Topology::ParameterServer;
    throw ConfigError("unknown interconnect topology '" + name +
                      "' (want 'ring' or 'parameter_server')");
}

void
InterconnectConfig::validate() const
{
    if (link_latency_s < 0.0) {
        throw ConfigError(
            "InterconnectConfig: link_latency_s must be non-negative, "
            "got " + std::to_string(link_latency_s));
    }
    if (!(link_bytes_per_s > 0.0)) {
        throw ConfigError(
            "InterconnectConfig: link_bytes_per_s must be positive, "
            "got " + std::to_string(link_bytes_per_s));
    }
    if (link_energy_per_byte_j < 0.0) {
        throw ConfigError(
            "InterconnectConfig: link_energy_per_byte_j must be "
            "non-negative, got " +
            std::to_string(link_energy_per_byte_j));
    }
}

json::Value
InterconnectConfig::toJson() const
{
    json::Value v = json::Value::object();
    v["topology"] = json::Value(topologyName(topology));
    v["link_latency_s"] = json::Value(link_latency_s);
    v["link_bytes_per_s"] = json::Value(link_bytes_per_s);
    v["link_energy_per_byte_j"] = json::Value(link_energy_per_byte_j);
    return v;
}

InterconnectConfig
InterconnectConfig::fromJson(const json::Value &v)
{
    InterconnectConfig cfg;
    if (const json::Value *topo = v.find("topology")) {
        if (!topo->isString()) {
            throw ConfigError(
                "InterconnectConfig: 'topology' must be a string");
        }
        cfg.topology = topologyFromName(topo->asString());
    }
    const auto number = [&v](const char *key, double fallback) {
        const json::Value *m = v.find(key);
        if (!m)
            return fallback;
        if (!m->isNumber()) {
            throw ConfigError("InterconnectConfig: '" +
                              std::string(key) + "' must be a number");
        }
        return m->asNumber();
    };
    cfg.link_latency_s = number("link_latency_s", cfg.link_latency_s);
    cfg.link_bytes_per_s =
        number("link_bytes_per_s", cfg.link_bytes_per_s);
    cfg.link_energy_per_byte_j =
        number("link_energy_per_byte_j", cfg.link_energy_per_byte_j);
    cfg.validate();
    return cfg;
}

InterconnectCost
aggregationRoundCost(const InterconnectConfig &cfg, int64_t num_chips,
                     int64_t payload_bytes)
{
    PL_ASSERT(num_chips >= 1 && payload_bytes >= 0,
              "bad aggregationRoundCost operands");
    InterconnectCost cost;
    cost.payload_bytes = payload_bytes;
    if (num_chips < 2 || payload_bytes == 0)
        return cost; // nothing to exchange
    int64_t transfers = 0;    // serialised link transfers per round
    int64_t transfer_bytes = 0;
    switch (cfg.topology) {
    case Topology::Ring: {
        // Reduce-scatter + all-gather: 2(C-1) steps, each moving one
        // ceil(W/C) chunk per chip concurrently around the ring.  The
        // critical path is one chunk per step; the wire carries C
        // chunks per step.
        const int64_t chunk = ceilDiv(payload_bytes, num_chips);
        transfers = 2 * (num_chips - 1);
        transfer_bytes = chunk;
        cost.wire_bytes = transfers * num_chips * chunk;
        break;
    }
    case Topology::ParameterServer:
        // C gradient uploads then C weight broadcasts, serialised
        // through the server's single link.
        transfers = 2 * num_chips;
        transfer_bytes = payload_bytes;
        cost.wire_bytes = transfers * payload_bytes;
        break;
    }
    cost.time_s = static_cast<double>(transfers) *
        (cfg.link_latency_s +
         static_cast<double>(transfer_bytes) / cfg.link_bytes_per_s);
    cost.energy_j = static_cast<double>(cost.wire_bytes) *
        cfg.link_energy_per_byte_j;
    return cost;
}

json::Value
ClusterStats::toJson() const
{
    json::Value v = json::Value::object();
    v["num_chips"] = json::Value(num_chips);
    v["chip_cycles"] = json::Value(chip_cycles);
    json::Value agg = json::Value::object();
    agg["rounds"] = json::Value(aggregation_rounds);
    agg["payload_bytes"] = json::Value(payload_bytes);
    agg["wire_bytes"] = json::Value(wire_bytes);
    agg["time_s"] = json::Value(aggregation_time_s);
    agg["energy_j"] = json::Value(aggregation_energy_j);
    agg["cycles"] = json::Value(aggregation_cycles);
    v["aggregation"] = std::move(agg);
    v["total_cycles"] = json::Value(total_cycles);
    json::Value chips = json::Value::array();
    for (const ScheduleStats &s : per_chip)
        chips.push(s.toJson());
    v["per_chip"] = std::move(chips);
    return v;
}

Cluster::Cluster(int64_t depth, const ScheduleConfig &shard,
                 int64_t num_chips, const InterconnectConfig &interconnect,
                 int64_t payload_bytes, double cycle_time_s)
    : depth_(depth), shard_(shard), num_chips_(num_chips),
      interconnect_(interconnect), payload_bytes_(payload_bytes),
      cycle_time_s_(cycle_time_s)
{
    if (depth_ < 1) {
        throw ConfigError("Cluster: depth must be positive, got " +
                          std::to_string(depth_));
    }
    shard_.validate();
    if (num_chips_ < 1) {
        throw ConfigError("Cluster: num_chips must be >= 1, got " +
                          std::to_string(num_chips_));
    }
    interconnect_.validate();
    if (payload_bytes_ < 0) {
        throw ConfigError(
            "Cluster: payload_bytes must be non-negative, got " +
            std::to_string(payload_bytes_));
    }
    if (num_chips_ > 1 && shard_.training &&
        !(cycle_time_s_ > 0.0)) {
        throw ConfigError(
            "Cluster: a multi-chip training run needs a positive "
            "cycle_time_s to convert aggregation seconds to cycles");
    }
}

void
Cluster::setTrace(trace::TraceRecorder *recorder)
{
    trace_ = recorder;
}

ClusterStats
Cluster::run()
{
    const int64_t chips = num_chips_;

    // ---- Parallel compute: every chip runs its shard schedule into
    // private stats and a private recorder.  Nothing is shared, so
    // chunk assignment cannot influence any output byte.
    std::vector<ScheduleStats> chip_stats(static_cast<size_t>(chips));
    std::vector<trace::TraceRecorder> chip_traces;
    if (trace_) {
        chip_traces.resize(static_cast<size_t>(chips),
                           trace::TraceRecorder("chip"));
    }
    parallel_for(0, chips, [&](int64_t c0, int64_t c1) {
        for (int64_t c = c0; c < c1; ++c) {
            PipelineScheduler sched(depth_, shard_);
            if (trace_)
                sched.setTrace(&chip_traces[static_cast<size_t>(c)]);
            chip_stats[static_cast<size_t>(c)] = sched.run();
        }
    });

    // ---- Serial ascending-chip reduction commit.
    ClusterStats out;
    out.num_chips = chips;
    out.per_chip = std::move(chip_stats);
    std::vector<int64_t> chip_track_base;
    std::vector<int64_t> chip_track_count;
    for (int64_t c = 0; c < chips; ++c) {
        out.chip_cycles =
            std::max(out.chip_cycles,
                     out.per_chip[static_cast<size_t>(c)].total_cycles);
        if (trace_) {
            const std::string prefix =
                chips > 1 ? "chip" + std::to_string(c) + "/"
                          : std::string();
            const trace::TraceRecorder &rec =
                chip_traces[static_cast<size_t>(c)];
            chip_track_base.push_back(trace_->mergeFrom(rec, prefix));
            chip_track_count.push_back(rec.trackCount());
        }
    }

    // ---- Aggregation phase: one round per batch boundary.
    const bool aggregates = shard_.training && chips > 1;
    const InterconnectCost round = aggregationRoundCost(
        interconnect_, chips, payload_bytes_);
    out.payload_bytes = payload_bytes_;
    if (aggregates && shard_.num_images > 0) {
        out.aggregation_rounds =
            (shard_.num_images + shard_.batch_size - 1) /
            shard_.batch_size;
        out.wire_bytes = out.aggregation_rounds * round.wire_bytes;
        out.aggregation_time_s =
            static_cast<double>(out.aggregation_rounds) * round.time_s;
        out.aggregation_energy_j =
            static_cast<double>(out.aggregation_rounds) * round.energy_j;
        // Run-granularity conversion (see ClusterStats::aggregation_cycles).
        if (out.aggregation_time_s > 0.0) {
            out.aggregation_cycles = static_cast<int64_t>(
                std::ceil(out.aggregation_time_s / cycle_time_s_));
        }
    }
    out.total_cycles = out.chip_cycles + out.aggregation_cycles;

    // ---- Interconnect trace track: one aggregation slice per batch
    // boundary, fed by a flow arrow from every chip's update slice.
    if (trace_ && aggregates && out.aggregation_rounds > 0) {
        const int64_t agg_track = trace_->addTrack("interconnect");
        const int64_t span = shard_.pipelined
            ? 2 * depth_ + shard_.batch_size + 1
            : shard_.batch_size * (2 * depth_ + 1) + 1;
        const int64_t slice_cycles = std::max<int64_t>(
            1, cycle_time_s_ > 0.0
                   ? static_cast<int64_t>(
                         std::ceil(round.time_s / cycle_time_s_))
                   : 1);
        const char *slice_name =
            interconnect_.topology == Topology::Ring
                ? "allreduce"
                : "param_server";
        for (int64_t k = 0; k < out.aggregation_rounds; ++k) {
            // The update op of batch k lands at cycle (k+1)*span and
            // its trace slice at ts (k+1)*span - 1 (executeCycle emits
            // at cycle - 1); the aggregation slice shares that ts.
            const int64_t ts = (k + 1) * span - 1;
            trace_->complete(agg_track,
                             slice_name + std::string(" b") +
                                 std::to_string(k),
                             "aggregation", ts, slice_cycles);
            for (int64_t c = 0; c < chips; ++c) {
                // Upd is the last track the scheduler declares.
                const int64_t upd_track =
                    chip_track_base[static_cast<size_t>(c)] +
                    chip_track_count[static_cast<size_t>(c)] - 1;
                const int64_t id = k * chips + c;
                trace_->flowStart("grad", "cluster_agg", id, upd_track,
                                  ts);
                trace_->flowFinish("grad", "cluster_agg", id, agg_track,
                                   ts);
            }
        }
    }
    return out;
}

} // namespace arch
} // namespace pipelayer
