/**
 * @file
 * perfbench: one run of one workload of the host-time benchmark.
 *
 *   perfbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
 *             [--spans=FILE]
 *
 * Prints a human-readable report, then as its last line one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace=0, the per-layer metrics with --trace=1 (whose
 * spans go to --spans=FILE when given).  perfbench/run.py builds this
 * program and is the benchmark's command line.
 *
 * Exit status: 0 when the run completed (check "correct"), 2 on bad
 * usage.
 */

#include <fstream>
#include <iomanip>
#include <iostream>

#include "common/args.hh"
#include "common/isa.hh"
#include "harness.hh"
#include "workloads.hh"

int
main(int argc, char **argv)
{
    using namespace pipelayer;
    using namespace perfbench;

    ArgParser args(argc, argv);
    args.rejectUnknown({"workload", "seed", "seconds", "trace", "spans"});
    const std::string name = args.str("workload");
    const auto workload = makeWorkload(name);
    const int64_t seed = args.integer("seed", 1);
    const double seconds = args.number("seconds", 10.0);
    const int64_t trace = args.integer("trace", 0);
    if (!workload || seed < 0 || !(seconds > 0.0) ||
        (trace != 0 && trace != 1)) {
        std::cerr << "usage: perfbench --workload=NAME [--seed=N >= 0] "
                     "[--seconds=S > 0] [--trace=0|1] [--spans=FILE]\n"
                     "workloads:";
        for (const std::string &w : workloadNames())
            std::cerr << " " << w;
        std::cerr << "\n";
        return 2;
    }

    RunOptions opt;
    opt.seed = static_cast<uint64_t>(seed);
    opt.seconds = seconds;
    Tracer tracer;
    const Result result = trace ? runTraced(*workload, opt, tracer)
                                : runUntraced(*workload, opt);

    std::cout << "perfbench " << name << ": seed " << seed << ", "
              << workload->threads() << " thread(s), isa "
              << isa::name(isa::active()) << ", "
              << (trace ? "traced" : "untraced") << "\n";
    for (const std::string &note : result.notes)
        std::cout << "  " << note << "\n";
    for (const Metric &m : result.metrics) {
        std::cout << "  " << std::left << std::setw(36) << m.name
                  << std::right << std::setw(16) << m.value << " " << m.unit
                  << "\n";
    }
    std::cout << "  " << std::left << std::setw(36) << "error_rate"
              << std::right << std::setw(16)
              << static_cast<double>(result.failed) /
                     static_cast<double>(result.attempted)
              << " ratio (" << result.failed << " failed of "
              << result.attempted << " checked steps)\n";
    for (const std::string &error : result.errors)
        std::cout << "  FAILED: " << error << "\n";

    const std::string spans_path = args.str("spans");
    if (trace && !spans_path.empty()) {
        std::ofstream out(spans_path);
        tracer.toJson().write(out);
        out << "\n";
    }
    std::cout << result.toJson().dump() << std::endl;
    return 0;
}
