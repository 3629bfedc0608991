#include "tools/pl_report_lib.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "common/logging.hh"
#include "common/table.hh"
#include "tools/bench_compare_lib.hh"

namespace pipelayer {
namespace report {

namespace {

/** Integer field of an object record, or @p fallback when absent. */
int64_t
intField(const json::Value &rec, const std::string &key,
         int64_t fallback)
{
    const json::Value *v = rec.isObject() ? rec.find(key) : nullptr;
    return v && v->isNumber() ? v->asInt("'" + key + "'") : fallback;
}

/**
 * The watched window series, probed against both records by explicit
 * segment lookup (channel names contain dots, so a dotted-path split
 * cannot recover them; the schema is ours, so spell the segments).
 */
struct WatchedSeries
{
    const char *group;   //!< "counters", "gauges", "distributions"
    const char *channel; //!< channel name within the group
    const char *leaf;    //!< nested leaf, or nullptr for the value
    bool lower_is_better;
};

constexpr WatchedSeries kWatched[] = {
    {"distributions", "serving.latency_cycles", "p50", true},
    {"distributions", "serving.latency_cycles", "p95", true},
    {"distributions", "serving.latency_cycles", "p99", true},
    {"distributions", "serving.latency_cycles", "max", true},
    {"distributions", "serving.queue_wait_cycles", "p95", true},
    {"counters", "serving.shed", "delta", true},
    {"gauges", "serving.queue_depth", nullptr, true},
    {"counters", "serving.completions", "delta", false},
};

/** The series' numeric leaf in @p rec, or nullptr when absent. */
const json::Value *
seriesLeaf(const json::Value &rec, const WatchedSeries &series)
{
    const json::Value *group =
        rec.isObject() ? rec.find(series.group) : nullptr;
    const json::Value *channel =
        group && group->isObject() ? group->find(series.channel)
                                   : nullptr;
    if (!channel)
        return nullptr;
    const json::Value *leaf =
        series.leaf
            ? (channel->isObject() ? channel->find(series.leaf)
                                   : nullptr)
            : channel;
    return leaf && leaf->isNumber() ? leaf : nullptr;
}

std::string
seriesPath(const WatchedSeries &series)
{
    std::string path =
        std::string(series.group) + "." + series.channel;
    if (series.leaf)
        path += std::string(".") + series.leaf;
    return path;
}

/** Table cell for an optional numeric leaf. */
std::string
cell(const json::Value *leaf)
{
    if (!leaf)
        return "-";
    const double v = leaf->asNumber();
    if (v == std::floor(v) && std::abs(v) < 1e15)
        return std::to_string(leaf->asInt());
    return Table::num(v);
}

} // namespace

int64_t
MetricsStream::interval() const
{
    return intField(trailer, "interval", 0);
}

MetricsStream
parseMetrics(const std::string &text)
{
    MetricsStream stream;
    std::istringstream in(text);
    std::string line;
    size_t lineno = 0;
    bool saw_trailer = false;
    int64_t prev_cycle = -1;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        json::Value rec;
        try {
            rec = json::parse(line);
        } catch (const json::ParseError &err) {
            throw ConfigError("metrics line " + std::to_string(lineno) +
                              ": " + err.what());
        }
        if (!rec.isObject() || intField(rec, "metrics_version", 0) != 1) {
            throw ConfigError(
                "metrics line " + std::to_string(lineno) +
                ": expected {\"metrics_version\": 1, ...}");
        }
        if (saw_trailer) {
            throw ConfigError("metrics line " + std::to_string(lineno) +
                              ": record after the trailer");
        }
        const json::Value *trailer_flag = rec.find("trailer");
        if (trailer_flag && trailer_flag->isBool() &&
            trailer_flag->asBool()) {
            stream.trailer = std::move(rec);
            saw_trailer = true;
            continue;
        }
        const int64_t cycle = intField(rec, "cycle", -1);
        if (cycle <= prev_cycle) {
            throw ConfigError(
                "metrics line " + std::to_string(lineno) +
                ": window cycle " + std::to_string(cycle) +
                " not after " + std::to_string(prev_cycle));
        }
        prev_cycle = cycle;
        stream.windows.push_back(std::move(rec));
    }
    if (!saw_trailer)
        throw ConfigError("metrics stream has no trailer record");
    const int64_t windows = intField(stream.trailer, "windows", -1);
    if (windows != static_cast<int64_t>(stream.windows.size())) {
        throw ConfigError(
            "metrics trailer claims " + std::to_string(windows) +
            " windows, stream has " +
            std::to_string(stream.windows.size()));
    }
    return stream;
}

MetricsStream
loadMetrics(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw ConfigError("cannot open metrics file '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    try {
        return parseMetrics(text.str());
    } catch (const ConfigError &err) {
        throw ConfigError(path + ": " + err.what());
    }
}

std::string
renderTable(const MetricsStream &stream)
{
    Table table({"cycle", "arrivals", "completions", "shed", "queue",
                 "p50", "p95", "p99"});
    const WatchedSeries arrivals = {"counters", "serving.arrivals",
                                    "delta", true};
    const WatchedSeries completions = {"counters",
                                       "serving.completions", "delta",
                                       false};
    const WatchedSeries shed = {"counters", "serving.shed", "delta",
                                true};
    const WatchedSeries queue = {"gauges", "serving.queue_depth",
                                 nullptr, true};
    const WatchedSeries p50 = {"distributions",
                               "serving.latency_cycles", "p50", true};
    const WatchedSeries p95 = {"distributions",
                               "serving.latency_cycles", "p95", true};
    const WatchedSeries p99 = {"distributions",
                               "serving.latency_cycles", "p99", true};
    for (const json::Value &rec : stream.windows) {
        table.addRow({std::to_string(intField(rec, "cycle", 0)),
                      cell(seriesLeaf(rec, arrivals)),
                      cell(seriesLeaf(rec, completions)),
                      cell(seriesLeaf(rec, shed)),
                      cell(seriesLeaf(rec, queue)),
                      cell(seriesLeaf(rec, p50)),
                      cell(seriesLeaf(rec, p95)),
                      cell(seriesLeaf(rec, p99))});
    }
    table.addSeparator();
    const json::Value &trailer = stream.trailer;
    const json::Value *totals = trailer.find("totals");
    const auto total = [totals](const char *name) -> std::string {
        const json::Value *v =
            totals && totals->isObject() ? totals->find(name) : nullptr;
        return cell(v && v->isNumber() ? v : nullptr);
    };
    const WatchedSeries run_p50 = {"distributions",
                                   "serving.latency_cycles", "p50",
                                   true};
    const WatchedSeries run_p95 = {"distributions",
                                   "serving.latency_cycles", "p95",
                                   true};
    const WatchedSeries run_p99 = {"distributions",
                                   "serving.latency_cycles", "p99",
                                   true};
    table.addRow({"total", total("serving.arrivals"),
                  total("serving.completions"), total("serving.shed"),
                  "-", cell(seriesLeaf(trailer, run_p50)),
                  cell(seriesLeaf(trailer, run_p95)),
                  cell(seriesLeaf(trailer, run_p99))});
    std::ostringstream os;
    table.print(os);
    return os.str();
}

double
WindowDelta::ratio() const
{
    if (baseline == 0.0) {
        return current == 0.0
                   ? 1.0
                   : std::numeric_limits<double>::infinity();
    }
    return current / baseline;
}

bool
WindowDelta::regressed(double threshold) const
{
    if (lower_is_better)
        return current > threshold * baseline;
    return current * threshold < baseline;
}

std::vector<WindowDelta>
DiffResult::regressions(double threshold) const
{
    std::vector<WindowDelta> out;
    for (const WindowDelta &d : deltas) {
        if (d.regressed(threshold))
            out.push_back(d);
    }
    return out;
}

json::Value
DiffResult::toJson(double threshold) const
{
    json::Value v = json::Value::object();
    v["report_version"] = json::Value(int64_t{1});
    v["threshold"] = threshold;
    v["windows_compared"] = [this] {
        int64_t max_windows = 0;
        std::map<int64_t, int64_t> seen;
        for (const WindowDelta &d : deltas)
            seen[d.cycle]++;
        for (const auto &entry : seen) {
            if (entry.first >= 0)
                ++max_windows;
        }
        return max_windows;
    }();
    json::Value regs = json::Value::array();
    for (const WindowDelta &d : regressions(threshold)) {
        json::Value r = json::Value::object();
        r["cycle"] = d.cycle;
        r["path"] = d.path;
        r["baseline"] = d.baseline;
        r["current"] = d.current;
        r["lower_is_better"] = json::Value(d.lower_is_better);
        regs.push(std::move(r));
    }
    v["regressions"] = std::move(regs);
    json::Value errs = json::Value::array();
    for (const std::string &e : errors)
        errs.push(json::Value(e));
    v["errors"] = std::move(errs);
    return v;
}

int
DiffResult::exitCode(double threshold) const
{
    if (!errors.empty())
        return kError;
    return regressions(threshold).empty() ? kPass : kRegression;
}

DiffResult
diffStreams(const MetricsStream &baseline,
            const MetricsStream &current)
{
    DiffResult result;
    if (baseline.interval() != current.interval()) {
        result.errors.push_back(
            "interval mismatch: baseline " +
            std::to_string(baseline.interval()) + ", current " +
            std::to_string(current.interval()));
        return result;
    }

    std::map<int64_t, const json::Value *> current_by_cycle;
    for (const json::Value &rec : current.windows)
        current_by_cycle[intField(rec, "cycle", -1)] = &rec;

    for (const json::Value &base_rec : baseline.windows) {
        const int64_t cycle = intField(base_rec, "cycle", -1);
        const auto it = current_by_cycle.find(cycle);
        if (it == current_by_cycle.end()) {
            result.errors.push_back(
                "window at cycle " + std::to_string(cycle) +
                " missing from current stream");
            continue;
        }
        const json::Value &cur_rec = *it->second;
        current_by_cycle.erase(it);
        for (const WatchedSeries &series : kWatched) {
            const json::Value *base_leaf = seriesLeaf(base_rec, series);
            if (!base_leaf)
                continue; // channel absent from this stream's schema
            const json::Value *cur_leaf = seriesLeaf(cur_rec, series);
            if (!cur_leaf) {
                result.errors.push_back(
                    "series " + seriesPath(series) +
                    " missing from current window at cycle " +
                    std::to_string(cycle));
                continue;
            }
            result.deltas.push_back({cycle, seriesPath(series),
                                     series.lower_is_better,
                                     base_leaf->asNumber(),
                                     cur_leaf->asNumber()});
        }
    }
    for (const auto &leftover : current_by_cycle) {
        result.errors.push_back(
            "window at cycle " + std::to_string(leftover.first) +
            " missing from baseline stream");
    }

    // Whole-run rows from the trailers (cycle -1): the distribution
    // percentiles, exactly the report's gated latencies.
    for (const WatchedSeries &series : kWatched) {
        if (std::string(series.group) != "distributions")
            continue;
        const json::Value *base_leaf =
            seriesLeaf(baseline.trailer, series);
        const json::Value *cur_leaf =
            seriesLeaf(current.trailer, series);
        if (base_leaf && cur_leaf) {
            result.deltas.push_back({-1, seriesPath(series),
                                     series.lower_is_better,
                                     base_leaf->asNumber(),
                                     cur_leaf->asNumber()});
        }
    }
    return result;
}

void
diffSummaries(const json::Value &baseline, const json::Value &current,
              DiffResult *out)
{
    std::vector<std::pair<std::string, double>> base_flat;
    std::vector<std::pair<std::string, double>> cur_flat;
    benchcmp::flattenNumbers(baseline, "", &base_flat);
    benchcmp::flattenNumbers(current, "", &cur_flat);
    std::map<std::string, double> cur_by_path(cur_flat.begin(),
                                              cur_flat.end());
    for (const auto &entry : base_flat) {
        const size_t dot = entry.first.rfind('.');
        const std::string leaf = dot == std::string::npos
                                     ? entry.first
                                     : entry.first.substr(dot + 1);
        if (!benchcmp::isWatchedMetric(leaf))
            continue;
        const auto it = cur_by_path.find(entry.first);
        if (it == cur_by_path.end()) {
            out->errors.push_back("summary metric " + entry.first +
                                  " missing from current");
            continue;
        }
        out->deltas.push_back({-1, "summary." + entry.first, true,
                               entry.second, it->second});
    }
}

int
run(const std::vector<std::string> &metrics_paths,
    const std::vector<std::string> &summary_paths, double threshold,
    const std::string &json_path, std::ostream &os, std::ostream &err)
{
    if (metrics_paths.empty() || metrics_paths.size() > 2) {
        err << "pl_report: expected one metrics stream (report) or "
               "two (diff)\n";
        return kError;
    }
    if (!summary_paths.empty() &&
        summary_paths.size() != metrics_paths.size()) {
        err << "pl_report: summary count must match metrics count\n";
        return kError;
    }
    if (threshold < 1.0) {
        err << "pl_report: threshold must be >= 1.0\n";
        return kError;
    }

    std::vector<MetricsStream> streams;
    std::vector<json::Value> summaries;
    try {
        for (const std::string &path : metrics_paths)
            streams.push_back(loadMetrics(path));
        for (const std::string &path : summary_paths) {
            std::ifstream in(path);
            if (!in) {
                throw ConfigError("cannot open summary file '" + path +
                                  "'");
            }
            std::ostringstream text;
            text << in.rdbuf();
            summaries.push_back(json::parse(text.str()));
        }
    } catch (const ConfigError &e) {
        err << "pl_report: " << e.what() << "\n";
        return kError;
    } catch (const json::ParseError &e) {
        err << "pl_report: " << e.what() << "\n";
        return kError;
    }

    if (streams.size() == 1) {
        os << renderTable(streams[0]);
        return kPass;
    }

    DiffResult diff = diffStreams(streams[0], streams[1]);
    if (summaries.size() == 2)
        diffSummaries(summaries[0], summaries[1], &diff);

    for (const std::string &e : diff.errors)
        err << "pl_report: " << e << "\n";
    const std::vector<WindowDelta> regs = diff.regressions(threshold);
    Table table({"window", "series", "baseline", "current", "ratio"});
    for (const WindowDelta &d : regs) {
        table.addRow({d.cycle < 0 ? std::string("run")
                                  : std::to_string(d.cycle),
                      d.path, Table::num(d.baseline),
                      Table::num(d.current), Table::num(d.ratio())});
    }
    if (!regs.empty()) {
        os << "regressed windows (threshold " << threshold << "x):\n";
        table.print(os);
    } else if (diff.errors.empty()) {
        os << "no regressed windows at threshold " << threshold
           << "x (" << diff.deltas.size() << " series compared)\n";
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        if (!out) {
            err << "pl_report: cannot write '" << json_path << "'\n";
            return kError;
        }
        diff.toJson(threshold).write(out, 2);
        out << "\n";
    }
    return diff.exitCode(threshold);
}

} // namespace report
} // namespace pipelayer
