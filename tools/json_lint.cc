/**
 * @file
 * Validate machine-readable output files (BENCH_*.json envelopes and
 * Chrome trace-event files) using the in-tree JSON parser — the CI
 * smoke-bench step runs this over every emitted artifact, so a
 * malformed writer fails the build without any external tooling.
 *
 * Usage: json_lint FILE...
 *
 * Each file must parse as JSON.  Files whose top-level object has a
 * "traceEvents" member are additionally checked as Chrome traces
 * (every event carries name/ph/ts/pid/tid and non-negative
 * timestamps); files with a "bench" member are checked as bench
 * envelopes (bench/threads/result members present, well-formed
 * "timing"/"profile" members when present, and well-formed
 * microbench "kernels" rows when the result carries them); files with a
 * "profile_version" member are checked as profiler reports
 * (common/prof.hh schema: per-site counters whose histogram counts
 * sum to the call count, plus a pool-utilization section).
 *
 * Cluster reports (docs/scaling.md) are checked when the top-level
 * object carries "cluster_version": the per-chip reports must match
 * config.num_chips, total_cycles must equal chip_cycles plus the
 * aggregation cycles, the interconnect wire bytes must reconcile with
 * the topology formula (ring: rounds * 2(C-1) * C * ceil(W/C);
 * parameter server: rounds * 2C * W), and the aggregation energy must
 * equal wire_bytes * link_energy_per_byte_j.
 *
 * Serving artifacts (docs/serving.md) are covered too: files with a
 * "job_version" member must be accepted by sim::Job::fromJson and
 * "arrival_trace_version" files by sim::ArrivalTrace::fromJson (the
 * parsers every simulator entry point uses; their ConfigError is the
 * lint error), "serve_version" summaries are checked against the
 * pl_serve/ServingReport schema (counts reconcile, percentiles are
 * ordered, the batch histogram sums to the batch count, an embedded
 * "profile" member is a well-formed profiler report), and files
 * named *.ndjson as newline-delimited records — completion records
 * (one consistent record per line, latency = completion - arrival),
 * or, when the first record carries "metrics_version", a
 * metrics::Sampler stream (docs/observability.md "Serving
 * telemetry"): window cycles advance by exactly the interval, counter
 * running totals accumulate the window deltas and land on the trailer
 * totals, per-window distribution counts and sums reconcile with the
 * trailer's, every percentile block is ordered, and the trailer's
 * counter totals agree with the serving stats snapshot it embeds.
 * An *.ndjson file whose first record carries "trajectory_version" is
 * the committed perf trajectory (bench/trajectory.ndjson): every
 * record must be version 1 and carry the labels, workload, metric and
 * unit as non-empty strings, both medians as finite numbers, and
 * pairs, seconds and seed in range.
 *
 * Chrome traces carrying serving telemetry get the deeper checks
 * too: nestable async "b"/"e" events must balance per (cat, id),
 * flow "s"/"f" events must pair exactly and bind inside an "X" slice
 * on their (pid, tid), and counter "C" events must carry a numeric
 * args.value.
 *
 * Exit code: 0 if every file validates, 1 otherwise.
 */

#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/logging.hh"
#include "sim/arrival.hh"
#include "sim/job.hh"

namespace {

using pipelayer::json::Value;

bool
checkTrace(const std::string &path, const Value &doc)
{
    const Value *events = doc.find("traceEvents");
    if (events->size() == 0) {
        std::cerr << path << ": trace has no events\n";
        return false;
    }
    // Async span depth per (cat, id); flow start/finish counts per
    // (cat, id); X slices per (pid, tid) for flow-endpoint binding.
    std::map<std::pair<std::string, int64_t>, int64_t> async_depth;
    std::map<std::pair<std::string, int64_t>, std::pair<int64_t, int64_t>>
        flows;
    std::map<std::pair<int64_t, int64_t>,
             std::vector<std::pair<int64_t, int64_t>>>
        slices;
    std::vector<std::pair<size_t, const Value *>> flow_events;
    for (size_t i = 0; i < events->size(); ++i) {
        const Value &e = events->at(i);
        for (const char *key : {"name", "ph", "pid", "tid"}) {
            if (!e.find(key)) {
                std::cerr << path << ": event " << i << " lacks '"
                          << key << "'\n";
                return false;
            }
        }
        const std::string ph = e.at("ph").asString();
        if (ph == "X") {
            if (!e.find("ts") || !e.find("dur") ||
                e.at("ts").asNumber() < 0 ||
                e.at("dur").asNumber() <= 0) {
                std::cerr << path << ": event " << i
                          << " has a bad ts/dur\n";
                return false;
            }
            slices[{e.at("pid").asInt(), e.at("tid").asInt()}]
                .emplace_back(e.at("ts").asInt(),
                              e.at("ts").asInt() + e.at("dur").asInt());
        } else if (ph == "b" || ph == "n" || ph == "e") {
            if (!e.find("cat") || !e.find("id") || !e.find("ts")) {
                std::cerr << path << ": async event " << i
                          << " lacks cat/id/ts\n";
                return false;
            }
            const auto key = std::make_pair(e.at("cat").asString(),
                                            e.at("id").asInt());
            if (ph == "b") {
                ++async_depth[key];
            } else if (ph == "e") {
                if (--async_depth[key] < 0) {
                    std::cerr << path << ": async end without begin "
                              << "for ('" << key.first << "', id "
                              << key.second << ")\n";
                    return false;
                }
            }
        } else if (ph == "s" || ph == "f") {
            if (!e.find("cat") || !e.find("id") || !e.find("ts")) {
                std::cerr << path << ": flow event " << i
                          << " lacks cat/id/ts\n";
                return false;
            }
            const auto key = std::make_pair(e.at("cat").asString(),
                                            e.at("id").asInt());
            if (ph == "s")
                ++flows[key].first;
            else
                ++flows[key].second;
            flow_events.emplace_back(i, &e);
        } else if (ph == "C") {
            const Value *args = e.find("args");
            const Value *value =
                args && args->isObject() ? args->find("value") : nullptr;
            if (!value || !value->isNumber() ||
                e.at("ts").asNumber() < 0) {
                std::cerr << path << ": counter event " << i
                          << " lacks a numeric args.value\n";
                return false;
            }
        }
    }
    for (const auto &entry : async_depth) {
        if (entry.second != 0) {
            std::cerr << path << ": async span ('" << entry.first.first
                      << "', id " << entry.first.second << ") left "
                      << entry.second << " begin(s) unmatched\n";
            return false;
        }
    }
    for (const auto &entry : flows) {
        if (entry.second.first != 1 || entry.second.second != 1) {
            std::cerr << path << ": flow ('" << entry.first.first
                      << "', id " << entry.first.second << ") has "
                      << entry.second.first << " start(s) and "
                      << entry.second.second << " finish(es)\n";
            return false;
        }
    }
    for (const auto &fe : flow_events) {
        const Value &e = *fe.second;
        const auto track = std::make_pair(e.at("pid").asInt(),
                                          e.at("tid").asInt());
        const int64_t ts = e.at("ts").asInt();
        bool enclosed = false;
        const auto it = slices.find(track);
        if (it != slices.end()) {
            for (const auto &span : it->second) {
                if (span.first <= ts && ts < span.second) {
                    enclosed = true;
                    break;
                }
            }
        }
        if (!enclosed) {
            std::cerr << path << ": flow event " << fe.first
                      << " at ts " << ts
                      << " has no enclosing slice on pid/tid "
                      << track.first << "/" << track.second << "\n";
            return false;
        }
    }
    return true;
}

bool
checkProfile(const std::string &path, const Value &doc)
{
    const Value *sites = doc.find("sites");
    if (!sites || !sites->isArray()) {
        std::cerr << path << ": profile lacks a 'sites' array\n";
        return false;
    }
    for (size_t i = 0; i < sites->size(); ++i) {
        const Value &s = sites->at(i);
        for (const char *key :
             {"name", "calls", "total_ns", "min_ns", "max_ns", "hist"}) {
            if (!s.find(key)) {
                std::cerr << path << ": profile site " << i
                          << " lacks '" << key << "'\n";
                return false;
            }
        }
        const Value &hist = s.at("hist");
        int64_t hist_total = 0;
        for (size_t b = 0; b < hist.size(); ++b) {
            const Value &pair = hist.at(b);
            if (!pair.isArray() || pair.size() != 2) {
                std::cerr << path << ": profile site '"
                          << s.at("name").asString()
                          << "' hist entry " << b
                          << " is not a [bucket, count] pair\n";
                return false;
            }
            hist_total += pair.at(1).asInt();
        }
        if (hist_total != s.at("calls").asInt()) {
            std::cerr << path << ": profile site '"
                      << s.at("name").asString()
                      << "' hist counts sum to " << hist_total
                      << " but calls is " << s.at("calls").asInt()
                      << "\n";
            return false;
        }
    }
    const Value *pool = doc.find("pool");
    if (!pool || !pool->isObject()) {
        std::cerr << path << ": profile lacks a 'pool' object\n";
        return false;
    }
    for (const char *key :
         {"jobs", "chunks", "queue_wait_ns", "workers"}) {
        if (!pool->find(key)) {
            std::cerr << path << ": profile pool lacks '" << key
                      << "'\n";
            return false;
        }
    }
    return true;
}

/**
 * The microbenches' per-kernel rows: every entry must carry a name,
 * a positive deterministic iteration count, a positive measured
 * ns/call and a non-negative GFLOP/s; when a reference was timed,
 * both its ns/call and the derived speedup must be present.
 */
bool
checkKernels(const std::string &path, const Value &kernels)
{
    if (!kernels.isArray() || kernels.size() == 0) {
        std::cerr << path
                  << ": result 'kernels' is not a non-empty array\n";
        return false;
    }
    for (size_t i = 0; i < kernels.size(); ++i) {
        const Value &k = kernels.at(i);
        for (const char *key :
             {"name", "inner_iters", "ns_per_call", "gflops"}) {
            if (!k.find(key)) {
                std::cerr << path << ": kernel row " << i
                          << " lacks '" << key << "'\n";
                return false;
            }
        }
        const std::string name = k.at("name").asString();
        if (k.at("inner_iters").asInt() < 1 ||
            k.at("ns_per_call").asNumber() <= 0.0 ||
            k.at("gflops").asNumber() < 0.0) {
            std::cerr << path << ": kernel '" << name
                      << "' has an out-of-range metric\n";
            return false;
        }
        const Value *ref = k.find("ref_ns_per_call");
        if (ref && (ref->asNumber() <= 0.0 ||
                    !k.find("speedup_vs_reference"))) {
            std::cerr << path << ": kernel '" << name
                      << "' has a bad reference timing\n";
            return false;
        }
    }
    return true;
}

bool
checkEnvelope(const std::string &path, const Value &doc)
{
    for (const char *key : {"bench", "threads", "result"}) {
        if (!doc.find(key)) {
            std::cerr << path << ": bench envelope lacks '" << key
                      << "'\n";
            return false;
        }
    }
    // Optional dispatched-SIMD-target member (bench/bench_util.cc).
    if (const Value *isa = doc.find("isa")) {
        const std::string name = isa->isString() ? isa->asString() : "";
        if (name != "scalar" && name != "avx2" && name != "avx512") {
            std::cerr << path << ": envelope 'isa' is not one of "
                      << "scalar|avx2|avx512\n";
            return false;
        }
    }
    if (const Value *kernels = doc.at("result").find("kernels")) {
        if (!checkKernels(path, *kernels))
            return false;
    }
    if (const Value *timing = doc.find("timing")) {
        for (const char *key :
             {"repeats", "wall_s", "min_wall_s", "median_wall_s"}) {
            if (!timing->find(key)) {
                std::cerr << path << ": envelope timing lacks '"
                          << key << "'\n";
                return false;
            }
        }
        if (timing->at("wall_s").size() !=
            static_cast<size_t>(timing->at("repeats").asInt())) {
            std::cerr << path << ": envelope timing has "
                      << timing->at("wall_s").size()
                      << " wall_s entries for "
                      << timing->at("repeats").asInt() << " repeats\n";
            return false;
        }
    }
    if (const Value *profile = doc.find("profile")) {
        if (!checkProfile(path, *profile))
            return false;
    }
    return true;
}

/**
 * sim::ClusterReport schema (docs/scaling.md): per-chip SimReports
 * and interconnect bytes/energy that reconcile with the topology
 * formula in arch::aggregationRoundCost.
 */
bool
checkCluster(const std::string &path, const Value &doc)
{
    for (const char *key : {"network", "config", "chip_cycles",
                            "aggregation", "total_cycles", "chips"}) {
        if (!doc.find(key)) {
            std::cerr << path << ": cluster report lacks '" << key
                      << "'\n";
            return false;
        }
    }
    const Value &cfg = doc.at("config");
    const Value *num_chips = cfg.find("num_chips");
    const Value *interconnect = cfg.find("interconnect");
    if (!num_chips || num_chips->asInt() < 1 || !interconnect) {
        std::cerr << path << ": cluster config needs num_chips >= 1 "
                  << "and an interconnect\n";
        return false;
    }
    const int64_t chips = num_chips->asInt();
    const Value *topology = interconnect->find("topology");
    const Value *energy_per_byte =
        interconnect->find("link_energy_per_byte_j");
    if (!topology || !topology->isString() || !energy_per_byte ||
        !energy_per_byte->isNumber()) {
        std::cerr << path << ": cluster interconnect needs a "
                  << "'topology' string and a numeric "
                  << "'link_energy_per_byte_j'\n";
        return false;
    }
    const std::string topo = topology->asString();
    if (topo != "ring" && topo != "parameter_server") {
        std::cerr << path << ": unknown interconnect topology '"
                  << topo << "'\n";
        return false;
    }

    // One full SimReport per chip, in chip order.
    const Value &chip_reports = doc.at("chips");
    if (!chip_reports.isArray() ||
        chip_reports.size() != static_cast<size_t>(chips)) {
        std::cerr << path << ": cluster has " << chip_reports.size()
                  << " chip reports for num_chips=" << chips << "\n";
        return false;
    }
    int64_t max_chip_cycles = 0;
    for (size_t c = 0; c < chip_reports.size(); ++c) {
        const Value &chip = chip_reports.at(c);
        for (const char *key :
             {"network", "config", "logical_cycles", "energy",
              "energy_per_image_j"}) {
            if (!chip.find(key)) {
                std::cerr << path << ": chip report " << c
                          << " lacks '" << key << "'\n";
                return false;
            }
        }
        if (chip.at("logical_cycles").asInt() > max_chip_cycles)
            max_chip_cycles = chip.at("logical_cycles").asInt();
    }
    if (doc.at("chip_cycles").asInt() != max_chip_cycles) {
        std::cerr << path << ": chip_cycles "
                  << doc.at("chip_cycles").asInt()
                  << " is not the per-chip maximum ("
                  << max_chip_cycles << ")\n";
        return false;
    }

    const Value &agg = doc.at("aggregation");
    for (const char *key : {"rounds", "payload_bytes", "wire_bytes",
                            "time_s", "energy_j", "cycles"}) {
        if (!agg.find(key)) {
            std::cerr << path << ": cluster aggregation lacks '" << key
                      << "'\n";
            return false;
        }
    }
    if (doc.at("total_cycles").asInt() !=
        doc.at("chip_cycles").asInt() + agg.at("cycles").asInt()) {
        std::cerr << path << ": total_cycles "
                  << doc.at("total_cycles").asInt()
                  << " != chip_cycles + aggregation cycles\n";
        return false;
    }

    // Wire bytes follow the topology formula exactly: integer
    // arithmetic in arch::aggregationRoundCost, re-derived here.
    const int64_t rounds = agg.at("rounds").asInt();
    const int64_t payload = agg.at("payload_bytes").asInt();
    int64_t round_wire = 0;
    if (chips > 1 && payload > 0) {
        if (topo == "ring") {
            const int64_t chunk = (payload + chips - 1) / chips;
            round_wire = 2 * (chips - 1) * chips * chunk;
        } else {
            round_wire = 2 * chips * payload;
        }
    }
    if (agg.at("wire_bytes").asInt() != rounds * round_wire) {
        std::cerr << path << ": aggregation wire_bytes "
                  << agg.at("wire_bytes").asInt()
                  << " does not match the " << topo << " formula ("
                  << rounds * round_wire << " for " << rounds
                  << " rounds of " << payload << " payload bytes on "
                  << chips << " chips)\n";
        return false;
    }
    // Energy is wire bytes times the per-byte link energy; allow for
    // the producer multiplying per round instead of over the total.
    const double want_energy =
        static_cast<double>(agg.at("wire_bytes").asInt()) *
        energy_per_byte->asNumber();
    const double got_energy = agg.at("energy_j").asNumber();
    const double tol = 1e-9 * (want_energy > 1.0 ? want_energy : 1.0);
    if (got_energy < want_energy - tol ||
        got_energy > want_energy + tol) {
        std::cerr << path << ": aggregation energy_j " << got_energy
                  << " != wire_bytes * link_energy_per_byte_j ("
                  << want_energy << ")\n";
        return false;
    }
    return true;
}

/** pl_serve summary schema (sim::ServingReport::toJson). */
bool
checkServeSummary(const std::string &path, const Value &doc)
{
    for (const char *key :
         {"network", "depth", "config", "arrival_count",
          "admitted_count", "shed_count", "batch_count",
          "batch_size_hist", "p50_latency_cycles", "p95_latency_cycles",
          "p99_latency_cycles", "max_latency_cycles", "schedule",
          "execution"}) {
        if (!doc.find(key)) {
            std::cerr << path << ": serve summary lacks '" << key
                      << "'\n";
            return false;
        }
    }
    const int64_t arrivals = doc.at("arrival_count").asInt();
    const int64_t admitted = doc.at("admitted_count").asInt();
    const int64_t shed = doc.at("shed_count").asInt();
    if (admitted + shed != arrivals) {
        std::cerr << path << ": serve summary counts do not reconcile ("
                  << admitted << " admitted + " << shed << " shed != "
                  << arrivals << " arrivals)\n";
        return false;
    }
    const int64_t p50 = doc.at("p50_latency_cycles").asInt();
    const int64_t p95 = doc.at("p95_latency_cycles").asInt();
    const int64_t p99 = doc.at("p99_latency_cycles").asInt();
    const int64_t max = doc.at("max_latency_cycles").asInt();
    if (p50 > p95 || p95 > p99 || p99 > max) {
        std::cerr << path << ": serve summary percentiles out of order ("
                  << p50 << "/" << p95 << "/" << p99 << "/" << max
                  << ")\n";
        return false;
    }
    const Value &hist = doc.at("batch_size_hist");
    const int64_t max_batch = doc.at("config").at("max_batch").asInt();
    int64_t hist_total = 0;
    int64_t hist_images = 0;
    for (size_t i = 0; i < hist.size(); ++i) {
        const Value &pair = hist.at(i);
        if (!pair.isArray() || pair.size() != 2) {
            std::cerr << path << ": batch_size_hist entry " << i
                      << " is not a [size, count] pair\n";
            return false;
        }
        const int64_t size = pair.at(0).asInt();
        if (size < 1 || size > max_batch) {
            std::cerr << path << ": batch size " << size
                      << " outside [1, max_batch=" << max_batch
                      << "]\n";
            return false;
        }
        hist_total += pair.at(1).asInt();
        hist_images += size * pair.at(1).asInt();
    }
    if (hist_total != doc.at("batch_count").asInt()) {
        std::cerr << path << ": batch_size_hist counts sum to "
                  << hist_total << " but batch_count is "
                  << doc.at("batch_count").asInt() << "\n";
        return false;
    }
    if (hist_images != admitted) {
        std::cerr << path << ": batch_size_hist covers " << hist_images
                  << " requests but admitted_count is " << admitted
                  << "\n";
        return false;
    }
    // Under PL_PROFILE=1 pl_serve embeds the host profile; it must be
    // a well-formed prof::Report wherever it appears.
    if (const Value *profile = doc.find("profile")) {
        if (!checkProfile(path, *profile))
            return false;
    }
    return true;
}

/** One distribution block {"count","min","max","sum","p50",...}. */
bool
checkDistribution(const std::string &path, const std::string &where,
                  const Value &d)
{
    for (const char *key :
         {"count", "min", "max", "sum", "p50", "p95", "p99"}) {
        if (!d.find(key) || !d.at(key).isNumber()) {
            std::cerr << path << ": " << where << " lacks numeric '"
                      << key << "'\n";
            return false;
        }
    }
    if (d.at("count").asInt() < 0) {
        std::cerr << path << ": " << where << " has a negative count\n";
        return false;
    }
    if (d.at("count").asInt() > 0) {
        const int64_t min = d.at("min").asInt();
        const int64_t p50 = d.at("p50").asInt();
        const int64_t p95 = d.at("p95").asInt();
        const int64_t p99 = d.at("p99").asInt();
        const int64_t max = d.at("max").asInt();
        if (min > p50 || p50 > p95 || p95 > p99 || p99 > max) {
            std::cerr << path << ": " << where
                      << " percentiles out of order (" << min << "/"
                      << p50 << "/" << p95 << "/" << p99 << "/" << max
                      << ")\n";
            return false;
        }
    }
    return true;
}

/**
 * A metrics::Sampler NDJSON stream (pl_serve --metrics): window
 * records then one trailer, cycles advancing by exactly the interval,
 * counter/distribution windows reconciling with the trailer totals
 * and with the serving stats snapshot the trailer embeds.
 */
bool
checkMetricsStream(const std::string &path,
                   const std::vector<Value> &records)
{
    if (records.size() < 1) {
        std::cerr << path << ": metrics stream is empty\n";
        return false;
    }
    const Value &trailer = records.back();
    const Value *flag = trailer.find("trailer");
    if (!flag || !flag->asBool()) {
        std::cerr << path << ": metrics stream lacks a final trailer "
                  << "record\n";
        return false;
    }
    for (const char *key : {"interval", "windows", "end_cycle",
                            "totals", "distributions"}) {
        if (!trailer.find(key)) {
            std::cerr << path << ": metrics trailer lacks '" << key
                      << "'\n";
            return false;
        }
    }
    const int64_t interval = trailer.at("interval").asInt();
    if (interval < 1) {
        std::cerr << path << ": metrics interval " << interval
                  << " is not positive\n";
        return false;
    }
    const size_t windows = records.size() - 1;
    if (trailer.at("windows").asInt() !=
        static_cast<int64_t>(windows)) {
        std::cerr << path << ": metrics trailer claims "
                  << trailer.at("windows").asInt() << " windows for "
                  << windows << " window records\n";
        return false;
    }

    std::map<std::string, int64_t> counter_sum;
    std::map<std::string, int64_t> dist_count;
    std::map<std::string, int64_t> dist_sum;
    for (size_t w = 0; w < windows; ++w) {
        const Value &rec = records[w];
        if (rec.find("trailer")) {
            std::cerr << path << ": metrics record " << w
                      << " is a trailer before the last line\n";
            return false;
        }
        for (const char *key :
             {"cycle", "end_cycle", "interval", "counters", "gauges",
              "distributions"}) {
            if (!rec.find(key)) {
                std::cerr << path << ": metrics window " << w
                          << " lacks '" << key << "'\n";
                return false;
            }
        }
        // Gapless windows: record w starts exactly at w * interval.
        const int64_t cycle = rec.at("cycle").asInt();
        if (cycle != static_cast<int64_t>(w) * interval ||
            rec.at("interval").asInt() != interval) {
            std::cerr << path << ": metrics window " << w
                      << " starts at cycle " << cycle << ", expected "
                      << static_cast<int64_t>(w) * interval << "\n";
            return false;
        }
        if (rec.at("end_cycle").asInt() <= cycle) {
            std::cerr << path << ": metrics window " << w
                      << " is empty (end_cycle <= cycle)\n";
            return false;
        }
        for (const auto &member : rec.at("counters").members()) {
            const Value *delta = member.second.find("delta");
            const Value *total = member.second.find("total");
            if (!delta || !total || !delta->isNumber() ||
                !total->isNumber()) {
                std::cerr << path << ": counter '" << member.first
                          << "' in window " << w
                          << " lacks numeric delta/total\n";
                return false;
            }
            counter_sum[member.first] += delta->asInt();
            if (total->asInt() != counter_sum[member.first]) {
                std::cerr << path << ": counter '" << member.first
                          << "' running total " << total->asInt()
                          << " in window " << w
                          << " does not accumulate its deltas ("
                          << counter_sum[member.first] << ")\n";
                return false;
            }
        }
        for (const auto &member : rec.at("distributions").members()) {
            if (!checkDistribution(path,
                                   "distribution '" + member.first +
                                       "' in window " +
                                       std::to_string(w),
                                   member.second)) {
                return false;
            }
            dist_count[member.first] +=
                member.second.at("count").asInt();
            dist_sum[member.first] += member.second.at("sum").asInt();
        }
    }

    for (const auto &member : trailer.at("totals").members()) {
        if (member.second.asInt() != counter_sum[member.first]) {
            std::cerr << path << ": trailer total for '"
                      << member.first << "' is "
                      << member.second.asInt()
                      << " but the window deltas sum to "
                      << counter_sum[member.first] << "\n";
            return false;
        }
    }
    for (const auto &member : trailer.at("distributions").members()) {
        if (!checkDistribution(path,
                               "trailer distribution '" +
                                   member.first + "'",
                               member.second)) {
            return false;
        }
        if (member.second.at("count").asInt() !=
                dist_count[member.first] ||
            member.second.at("sum").asInt() != dist_sum[member.first]) {
            std::cerr << path << ": trailer distribution '"
                      << member.first
                      << "' does not reconcile with its windows ("
                      << member.second.at("count").asInt() << "/"
                      << dist_count[member.first] << " observations, "
                      << member.second.at("sum").asInt() << "/"
                      << dist_sum[member.first] << " summed)\n";
            return false;
        }
    }

    // The trailer's serving stats snapshot (the summary's counts,
    // copied from ServingReport::toJson) counts the same events the
    // counter channels do; a mismatch means the producer double-fed
    // or dropped events.
    if (const Value *stats = trailer.find("stats")) {
        const std::pair<const char *, const char *> pairs[] = {
            {"serving.arrivals", "serving.arrival_count"},
            {"serving.admitted", "serving.admitted_count"},
            {"serving.shed", "serving.shed_count"},
            {"serving.launches", "serving.batch_count"},
        };
        for (const auto &pair : pairs) {
            const Value *total = trailer.at("totals").find(pair.first);
            const Value *stat = stats->find(pair.second);
            if (total && stat && total->asInt() != stat->asInt()) {
                std::cerr << path << ": trailer total '" << pair.first
                          << "' (" << total->asInt()
                          << ") disagrees with stats snapshot '"
                          << pair.second << "' (" << stat->asInt()
                          << ")\n";
                return false;
            }
        }
    }
    return true;
}

/** One pl_serve completion record (one *.ndjson line). */
bool
checkCompletionRecord(const std::string &path, size_t lineno,
                      const Value &rec)
{
    for (const char *key : {"id", "arrival_cycle", "admitted"}) {
        if (!rec.find(key)) {
            std::cerr << path << ": line " << lineno << " lacks '"
                      << key << "'\n";
            return false;
        }
    }
    if (!rec.at("admitted").asBool())
        return true;
    for (const char *key : {"entry_cycle", "completion_cycle",
                            "latency_cycles", "batch_id", "batch_size"}) {
        if (!rec.find(key)) {
            std::cerr << path << ": line " << lineno
                      << " admitted record lacks '" << key << "'\n";
            return false;
        }
    }
    const int64_t arrival = rec.at("arrival_cycle").asInt();
    const int64_t entry = rec.at("entry_cycle").asInt();
    const int64_t completion = rec.at("completion_cycle").asInt();
    if (entry < arrival || completion <= entry ||
        rec.at("latency_cycles").asInt() != completion - arrival ||
        rec.at("batch_size").asInt() < 1) {
        std::cerr << path << ": line " << lineno
                  << " record cycles are inconsistent\n";
        return false;
    }
    return true;
}

/**
 * One perf trajectory record (bench/trajectory.ndjson): a change's
 * base and head medians of one end-to-end metric on one workload.
 */
bool
checkTrajectoryRecord(const std::string &path, size_t lineno,
                      const Value &rec)
{
    const auto bad = [&](const std::string &why) {
        std::cerr << path << ": line " << lineno << " " << why << "\n";
        return false;
    };
    if (!rec.isObject())
        return bad("is not an object");
    const Value *version = rec.find("trajectory_version");
    if (!version || !version->isNumber() ||
        version->asInt("trajectory_version") != 1)
        return bad("needs \"trajectory_version\": 1");
    for (const char *key :
         {"base", "head", "workload", "metric", "unit", "host"}) {
        const Value *v = rec.find(key);
        if (!v || !v->isString() || v->asString().empty())
            return bad(std::string("needs a non-empty string '") + key +
                       "'");
    }
    for (const char *key : {"base_median", "head_median", "seconds"}) {
        const Value *v = rec.find(key);
        if (!v || !v->isNumber() || !std::isfinite(v->asNumber()))
            return bad(std::string("needs a finite number '") + key + "'");
    }
    if (rec.at("seconds").asNumber() <= 0.0)
        return bad("needs 'seconds' > 0");
    for (const char *key : {"pairs", "seed"}) {
        const Value *v = rec.find(key);
        if (!v || !v->isNumber())
            return bad(std::string("needs an integer '") + key + "'");
    }
    if (rec.at("pairs").asInt("pairs") < 1 ||
        rec.at("seed").asInt("seed") < 0)
        return bad("needs 'pairs' >= 1 and 'seed' >= 0");
    return true;
}

/**
 * Newline-delimited records: a metrics::Sampler stream when the first
 * record carries "metrics_version" (pl_serve --metrics), the perf
 * trajectory when it carries "trajectory_version", completion records
 * otherwise (pl_serve --completions).
 */
bool
lintNdjson(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << path << ": cannot open\n";
        return false;
    }
    std::string line;
    size_t lineno = 0;
    std::vector<Value> records;
    std::vector<size_t> linenos;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        Value rec;
        try {
            rec = pipelayer::json::parse(line);
        } catch (const pipelayer::json::ParseError &err) {
            std::cerr << path << ": line " << lineno << ": "
                      << err.what() << "\n";
            return false;
        }
        records.push_back(std::move(rec));
        linenos.push_back(lineno);
    }
    if (!records.empty() && records.front().isObject() &&
        records.front().find("metrics_version")) {
        if (!checkMetricsStream(path, records))
            return false;
        std::cout << path << ": OK (metrics stream, "
                  << records.size() - 1 << " windows)\n";
        return true;
    }
    if (!records.empty() && records.front().isObject() &&
        records.front().find("trajectory_version")) {
        for (size_t i = 0; i < records.size(); ++i) {
            if (!checkTrajectoryRecord(path, linenos[i], records[i]))
                return false;
        }
        std::cout << path << ": OK (perf trajectory, " << records.size()
                  << " records)\n";
        return true;
    }
    for (size_t i = 0; i < records.size(); ++i) {
        if (!checkCompletionRecord(path, linenos[i], records[i]))
            return false;
    }
    std::cout << path << ": OK (ndjson, " << records.size()
              << " records)\n";
    return true;
}

bool
lintJson(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << path << ": cannot open\n";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const Value doc = pipelayer::json::parse(buf.str());

    if (doc.find("traceEvents")) {
        if (!checkTrace(path, doc))
            return false;
        std::cout << path << ": OK (chrome trace, "
                  << doc.at("traceEvents").size() << " events)\n";
        return true;
    }
    if (doc.find("bench")) {
        if (!checkEnvelope(path, doc))
            return false;
        std::cout << path << ": OK (bench envelope '"
                  << doc.at("bench").asString() << "')\n";
        return true;
    }
    if (doc.find("profile_version")) {
        if (!checkProfile(path, doc))
            return false;
        std::cout << path << ": OK (profile report, "
                  << doc.at("sites").size() << " sites)\n";
        return true;
    }
    if (doc.find("cluster_version")) {
        if (!checkCluster(path, doc))
            return false;
        std::cout << path << ": OK (cluster report, "
                  << doc.at("chips").size() << " chips)\n";
        return true;
    }
    // Run descriptions and arrival traces are read by the simulator's
    // own parsers, which throw ConfigError on what they reject.
    if (doc.find("job_version")) {
        pipelayer::sim::Job::fromJson(doc);
        std::cout << path << ": OK (job description)\n";
        return true;
    }
    if (doc.find("serve_version")) {
        if (!checkServeSummary(path, doc))
            return false;
        std::cout << path << ": OK (serve summary, "
                  << doc.at("arrival_count").asInt() << " requests)\n";
        return true;
    }
    if (doc.find("arrival_trace_version")) {
        pipelayer::sim::ArrivalTrace::fromJson(doc);
        std::cout << path << ": OK (arrival trace)\n";
        return true;
    }
    std::cout << path << ": OK (json)\n";
    return true;
}

/**
 * Lint one file; a malformed document, or a field that must be an
 * exact integer and is not, is a lint error.
 */
bool
lintFile(const std::string &path)
{
    const std::string ndjson_ext = ".ndjson";
    try {
        if (path.size() > ndjson_ext.size() &&
            path.compare(path.size() - ndjson_ext.size(),
                         ndjson_ext.size(), ndjson_ext) == 0) {
            return lintNdjson(path);
        }
        return lintJson(path);
    } catch (const pipelayer::json::ParseError &err) {
        std::cerr << path << ": " << err.what() << "\n";
        return false;
    } catch (const pipelayer::ConfigError &err) {
        std::cerr << path << ": " << err.what() << "\n";
        return false;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: json_lint FILE...\n";
        return 1;
    }
    bool ok = true;
    for (int i = 1; i < argc; ++i)
        ok = lintFile(argv[i]) && ok;
    return ok ? 0 : 1;
}
