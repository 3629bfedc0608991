/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses: runs
 * every evaluation network through the PipeLayer simulator and the
 * GPU baseline model and collects per-network speedup/energy rows.
 */

#ifndef PIPELAYER_BENCH_BENCH_UTIL_HH_
#define PIPELAYER_BENCH_BENCH_UTIL_HH_

#include <functional>
#include <string>
#include <vector>

#include "baseline/gpu_model.hh"
#include "common/args.hh"
#include "common/json.hh"
#include "common/table.hh"
#include "sim/simulator.hh"
#include "workloads/layer_spec.hh"

namespace pipelayer {
namespace bench {

/** One evaluation row: a (network, phase) pair's modelled costs. */
struct EvalRow
{
    std::string network;
    bool training = false;

    double gpu_time = 0.0;          //!< s per image
    double gpu_energy = 0.0;        //!< J per image
    double pl_time_nopipe = 0.0;    //!< PipeLayer w/o pipeline
    double pl_time = 0.0;           //!< pipelined PipeLayer
    double pl_energy = 0.0;         //!< J per image (pipelined)
    double pl_area = 0.0;           //!< mm^2 (training provisioning)

    double speedupNoPipe() const { return gpu_time / pl_time_nopipe; }
    double speedup() const { return gpu_time / pl_time; }
    double energySaving() const { return gpu_energy / pl_energy; }
};

/** Evaluation batch/volume settings (paper: batch 64). */
struct EvalConfig
{
    int64_t batch_size = 64;
    int64_t num_images = 256;
};

/**
 * Run one network through GPU model + simulator for one phase.
 */
EvalRow evaluateNetwork(const workloads::NetworkSpec &spec, bool training,
                        const EvalConfig &config);

/** All ten evaluation networks for one phase, in the paper's order. */
std::vector<EvalRow> evaluateAll(bool training, const EvalConfig &config);

/** Geometric mean of a row metric over a set of rows. */
double geomeanOf(const std::vector<EvalRow> &rows,
                 double (EvalRow::*metric)() const);

/** Machine-readable form of one evaluation row. */
json::Value toJson(const EvalRow &row);

/** Machine-readable form of a set of evaluation rows. */
json::Value toJson(const std::vector<EvalRow> &rows);

/**
 * The shared front end of every figure/table reproduction bench.
 *
 * Gives all benches the same command line —
 *
 *   --json=PATH    machine-readable output (default BENCH_<name>.json)
 *   --csv          print tables as CSV instead of aligned text
 *   --threads=N    worker thread count (else PL_THREADS / hardware)
 *   --repeat=N     run the bench body N times; measured members
 *                  (ns_per_call, gflops, speedup_vs_reference) keep
 *                  the best run (bench_merge.hh) and the envelope's
 *                  "timing" member reports per-run wall times plus
 *                  min/median, so committed baselines are less noisy
 *   --isa=TARGET   force the SIMD dispatch target (scalar|avx2|
 *                  avx512, also via PL_ISA); recorded in the
 *                  envelope's "isa" member
 *   --profile=PATH enable the host-side profiler (common/prof.hh),
 *                  write the profile report to PATH, and embed it as
 *                  the envelope's "profile" member
 *   --help         usage
 *
 * plus any bench-specific flags declared at construction — and the
 * same exit codes: 0 on success, 1 on a configuration error
 * (ConfigError) or unwritable output.  Every run writes a JSON
 * envelope {"bench", "threads", "isa", "result", "timing"[, "info"]
 * [, "profile"]} whose "result" member the bench fills via result()
 * (schema in docs/observability.md); "result" must be deterministic
 * — machine-dependent numbers go in info() or the timing member.
 *
 * @code
 *   int main(int argc, char **argv)
 *   {
 *       return bench::Runner::main(
 *           "fig15_speedup", argc, argv, {"batch", "images"},
 *           [](bench::Runner &r) {
 *               Table t = ...;
 *               r.print(t);
 *               r.result()["rows"] = t.toJson();
 *               return 0;
 *           });
 *   }
 * @endcode
 */
class Runner
{
  public:
    /**
     * Parse the command line.  @p extra lists bench-specific option
     * names accepted in addition to the common set; anything else is
     * rejected as a typo.
     */
    Runner(std::string name, int argc, const char *const *argv,
           std::vector<std::string> extra = {});

    const std::string &name() const { return name_; }
    const ArgParser &args() const { return args_; }
    bool csv() const { return csv_; }

    /** Requested bench-body repetitions (--repeat, >= 1). */
    int64_t repeat() const { return repeat_; }

    /**
     * The --batch/--images evaluation volume (paper defaults).  Only
     * meaningful when "batch"/"images" were declared in @p extra.
     */
    EvalConfig evalConfig() const;

    /** Print @p table as aligned text, or CSV under --csv. */
    void print(const Table &table) const;

    /** The "result" member of the JSON envelope — fill me. */
    json::Value &result() { return result_; }

    /**
     * The "info" member of the JSON envelope: machine-dependent
     * measurements (wall clocks, speedups) that belong next to the
     * result but must not pollute it — "result" is deterministic by
     * contract, so CI can byte-compare it against committed goldens
     * and tools/bench_compare can gate its metrics.  Omitted from the
     * envelope when left empty.
     */
    json::Value &info() { return info_; }

    /** Per-repetition wall times recorded by main() (seconds). */
    void setWallTimes(std::vector<double> wall_s);

    /** Write the JSON envelope; returns the process exit code. */
    int finish();

    /**
     * Run @p body with a Runner --repeat times (timing each run),
     * then finish().  ConfigError is caught and reported as exit
     * code 1; --help short-circuits to exit code 0.  This is the
     * whole main() of a bench.
     */
    static int main(const std::string &name, int argc,
                    const char *const *argv,
                    const std::vector<std::string> &extra,
                    const std::function<int(Runner &)> &body);

  private:
    std::string name_;
    ArgParser args_;
    std::vector<std::string> extra_;
    bool csv_ = false;
    bool help_ = false;
    int64_t repeat_ = 1;
    std::string json_path_;
    std::string profile_path_;
    std::vector<double> wall_s_;
    json::Value result_ = json::Value::object();
    json::Value info_ = json::Value::object();
};

} // namespace bench
} // namespace pipelayer

#endif // PIPELAYER_BENCH_BENCH_UTIL_HH_
