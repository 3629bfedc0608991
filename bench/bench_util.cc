#include "bench/bench_util.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/bench_merge.hh"
#include "common/isa.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/prof.hh"
#include "common/units.hh"
#include "workloads/model_zoo.hh"

namespace pipelayer {
namespace bench {

EvalRow
evaluateNetwork(const workloads::NetworkSpec &spec, bool training,
                const EvalConfig &config)
{
    EvalRow row;
    row.network = spec.name;
    row.training = training;

    const baseline::GpuModel gpu;
    const baseline::GpuCost gpu_cost =
        training ? gpu.training(spec) : gpu.testing(spec);
    row.gpu_time = gpu_cost.time_per_image;
    row.gpu_energy = gpu_cost.energy_per_image;

    const sim::Simulator simulator(spec, reram::DeviceParams());
    sim::Job job =
        training ? sim::Job::training(config.batch_size, config.num_images)
                 : sim::Job::testing(config.num_images);

    job.pipelined = true;
    const sim::SimReport piped = simulator.run(job);
    row.pl_time = piped.time_per_image;
    row.pl_energy = piped.energy_per_image;
    row.pl_area = piped.area_mm2;

    job.pipelined = false;
    const sim::SimReport serial = simulator.run(job);
    row.pl_time_nopipe = serial.time_per_image;

    return row;
}

std::vector<EvalRow>
evaluateAll(bool training, const EvalConfig &config)
{
    std::vector<EvalRow> rows;
    for (const auto &spec : workloads::evaluationNetworks())
        rows.push_back(evaluateNetwork(spec, training, config));
    return rows;
}

double
geomeanOf(const std::vector<EvalRow> &rows,
          double (EvalRow::*metric)() const)
{
    std::vector<double> values;
    values.reserve(rows.size());
    for (const auto &row : rows)
        values.push_back((row.*metric)());
    return geomean(values.data(), values.size());
}

json::Value
toJson(const EvalRow &row)
{
    json::Value v = json::Value::object();
    v["network"] = json::Value(row.network);
    v["phase"] = json::Value(row.training ? "training" : "testing");
    v["gpu_time_s"] = json::Value(row.gpu_time);
    v["gpu_energy_j"] = json::Value(row.gpu_energy);
    v["pl_time_nopipe_s"] = json::Value(row.pl_time_nopipe);
    v["pl_time_s"] = json::Value(row.pl_time);
    v["pl_energy_j"] = json::Value(row.pl_energy);
    v["pl_area_mm2"] = json::Value(row.pl_area);
    v["speedup_nopipe"] = json::Value(row.speedupNoPipe());
    v["speedup"] = json::Value(row.speedup());
    v["energy_saving"] = json::Value(row.energySaving());
    return v;
}

json::Value
toJson(const std::vector<EvalRow> &rows)
{
    json::Value arr = json::Value::array();
    for (const auto &row : rows)
        arr.push(toJson(row));
    return arr;
}

Runner::Runner(std::string name, int argc, const char *const *argv,
               std::vector<std::string> extra)
    : name_(std::move(name)), args_(argc, argv),
      extra_(std::move(extra))
{
    std::vector<std::string> known = {"json",    "csv",  "threads",
                                      "repeat",  "isa",  "profile",
                                      "help"};
    known.insert(known.end(), extra_.begin(), extra_.end());
    args_.rejectUnknown(known);

    csv_ = args_.flag("csv");
    help_ = args_.flag("help");
    json_path_ = args_.str("json", "BENCH_" + name_ + ".json");
    profile_path_ = args_.str("profile", "");
    if (!profile_path_.empty())
        prof::setEnabled(true);

    repeat_ = args_.integer("repeat", 1);
    if (repeat_ < 1) {
        throw ConfigError("--repeat must be >= 1, got " +
                          std::to_string(repeat_));
    }

    // An explicit --threads wins; otherwise resolve PL_THREADS now, so
    // a bad value fails before the bench body runs.
    if (args_.flag("threads"))
        setThreadCount(parseThreadCount(args_.str("threads"), "--threads"));
    else
        threadCount();

    // --isa overrides PL_ISA / auto-detection for this process.  An
    // unknown or unsupported name is a configuration error, never a
    // silent fallback (results are byte-identical across targets, so
    // a fallback would go unnoticed until someone reads the envelope).
    const std::string isa_arg = args_.str("isa", "");
    if (!isa_arg.empty()) {
        isa::Target target;
        if (!isa::parse(isa_arg, &target)) {
            throw ConfigError(
                "--isa must be one of scalar|avx2|avx512, got '" +
                isa_arg + "'");
        }
        if (!isa::setActive(target)) {
            throw ConfigError("--isa=" + isa_arg +
                              " is not supported on this host");
        }
    }

    if (help_) {
        std::cout << "usage: bench_" << name_
                  << " [--json=PATH] [--csv] [--threads=N]"
                  << " [--repeat=N] [--isa=TARGET] [--profile=PATH]";
        for (const auto &f : extra_)
            std::cout << " [--" << f << "=...]";
        std::cout
            << "\n\nwrites a machine-readable JSON envelope to "
            << "--json (default BENCH_" << name_
            << ".json); see docs/observability.md\n"
            << "  --repeat=N       run the bench body N times; "
               "measured ns/GFLOP/s members\n"
            << "                   keep the best (min-time) run and "
               "the \"timing\" member\n"
            << "                   reports per-run wall times "
               "(min/median)\n"
            << "  --isa=TARGET     force the SIMD dispatch target "
               "(scalar|avx2|avx512,\n"
            << "                   also via PL_ISA); results are "
               "byte-identical across\n"
            << "                   targets, only wall clock changes\n"
            << "  --profile=PATH   enable the host-side profiler "
               "(also via PL_PROFILE=1),\n"
            << "                   write the profile report to PATH "
               "and embed it in the\n"
            << "                   envelope's \"profile\" member\n";
    }
}

EvalConfig
Runner::evalConfig() const
{
    EvalConfig config;
    config.batch_size = args_.integer("batch", config.batch_size);
    config.num_images = args_.integer("images", config.num_images);
    return config;
}

void
Runner::print(const Table &table) const
{
    if (csv_)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
}

void
Runner::setWallTimes(std::vector<double> wall_s)
{
    wall_s_ = std::move(wall_s);
}

int
Runner::finish()
{
    json::Value envelope = json::Value::object();
    envelope["bench"] = json::Value(name_);
    envelope["threads"] = json::Value(threadCount());
    // The dispatched SIMD target that produced the measurements — by
    // contract it never changes the "result" tree, only wall clock.
    envelope["isa"] = json::Value(std::string(isa::name(isa::active())));
    envelope["result"] = std::move(result_);
    if (info_.size() > 0)
        envelope["info"] = std::move(info_);

    // Wall-clock timing over the --repeat runs.  Informational only:
    // tools/bench_compare never gates on the "timing" member, because
    // wall time is machine- and load-dependent.
    {
        std::vector<double> sorted = wall_s_;
        std::sort(sorted.begin(), sorted.end());
        json::Value timing = json::Value::object();
        timing["repeats"] =
            json::Value(static_cast<int64_t>(wall_s_.size()));
        json::Value runs = json::Value::array();
        for (double w : wall_s_)
            runs.push(json::Value(w));
        timing["wall_s"] = std::move(runs);
        timing["min_wall_s"] =
            json::Value(sorted.empty() ? 0.0 : sorted.front());
        timing["median_wall_s"] = json::Value(
            sorted.empty() ? 0.0 : sorted[sorted.size() / 2]);
        envelope["timing"] = std::move(timing);
    }

    if (prof::enabled()) {
        const json::Value profile = prof::snapshot().toJson();
        envelope["profile"] = profile;
        if (!profile_path_.empty()) {
            std::ofstream pout(profile_path_);
            if (pout) {
                profile.write(pout, /*indent=*/1);
                pout << "\n";
            }
            if (!pout) {
                std::cerr << "bench_" << name_ << ": cannot write "
                          << profile_path_ << "\n";
                return 1;
            }
            std::cout << "wrote " << profile_path_ << "\n";
        }
    }

    std::ofstream out(json_path_);
    if (!out) {
        std::cerr << "bench_" << name_ << ": cannot write " << json_path_
                  << "\n";
        return 1;
    }
    envelope.write(out, /*indent=*/1);
    out << "\n";
    if (!out) {
        std::cerr << "bench_" << name_ << ": write to " << json_path_
                  << " failed\n";
        return 1;
    }
    std::cout << "\nwrote " << json_path_ << "\n";
    return 0;
}

int
Runner::main(const std::string &name, int argc, const char *const *argv,
             const std::vector<std::string> &extra,
             const std::function<int(Runner &)> &body)
{
    try {
        Runner runner(name, argc, argv, extra);
        if (runner.help_)
            return 0;
        // Each repetition re-runs the full bench body into a fresh
        // result()/info(); the trees are then folded together so
        // measured members (ns_per_call, gflops, speedups) report the
        // best run rather than the last one — deterministic members
        // are identical across runs and pass through untouched (see
        // bench_merge.hh).
        std::vector<double> wall_s;
        wall_s.reserve(static_cast<size_t>(runner.repeat()));
        json::Value merged_result = json::Value::object();
        json::Value merged_info = json::Value::object();
        for (int64_t i = 0; i < runner.repeat(); ++i) {
            if (i > 0) {
                runner.result_ = json::Value::object();
                runner.info_ = json::Value::object();
            }
            const auto t0 = std::chrono::steady_clock::now();
            const int rc = body(runner);
            const auto t1 = std::chrono::steady_clock::now();
            if (rc != 0)
                return rc;
            wall_s.push_back(
                std::chrono::duration<double>(t1 - t0).count());
            if (i == 0) {
                merged_result = std::move(runner.result_);
                merged_info = std::move(runner.info_);
            } else {
                merged_result = mergeRuns(merged_result, runner.result_);
                merged_info = mergeRuns(merged_info, runner.info_);
            }
        }
        runner.result_ = std::move(merged_result);
        runner.info_ = std::move(merged_info);
        runner.setWallTimes(std::move(wall_s));
        return runner.finish();
    } catch (const ConfigError &err) {
        std::cerr << "bench_" << name << ": " << err.what() << "\n";
        return 1;
    }
}

} // namespace bench
} // namespace pipelayer
