/**
 * @file
 * Multi-chip scale-out curve (ROADMAP item 1, docs/scaling.md): run
 * one training job on clusters of growing chip count and report the
 * simulated-cycle speedup and parallel efficiency of data-parallel
 * batch sharding, aggregation overhead included.
 *
 * The speedup ceiling is structural, not linear: a C-chip cluster
 * shrinks the per-batch image stream B to B/C but still pays the
 * 2L+1 pipeline fill/drain per batch, so the pipelined-cycle ratio
 * approaches (1 + (2L+1)/B) / (1/C + (2L+1)/B) — plus the
 * interconnect aggregation cycles the cluster model stacks on top.
 * The table prints both the ideal ceiling and the modelled speedup.
 *
 * Every row in the result subtree is logical-cycle arithmetic —
 * deterministic at any PL_THREADS and any host — so CI gates the
 * *_cycles members with tools/bench_compare against
 * bench/baselines/BENCH_fig_scaling.json.  Host wall clocks live in
 * the envelope's never-gated info member.
 *
 * Flags: --network=NAME (default Mnist-A, the Fig. 15 MLP),
 * --chips=LIST (comma-separated counts, default 1,2,4,8),
 * --report=FILE (write the last point's full ClusterReport envelope
 * for json_lint's cluster checks), plus the common --batch/--images
 * volume.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "sim/job.hh"
#include "workloads/model_zoo.hh"

namespace {

using namespace pipelayer;

std::vector<int64_t>
parseChipList(const std::string &arg)
{
    if (arg.empty())
        return {1, 2, 4, 8};
    std::vector<int64_t> chips;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, ',')) {
        try {
            chips.push_back(std::stoll(item));
        } catch (const std::exception &) {
            throw ConfigError("--chips: '" + item +
                              "' is not a chip count");
        }
    }
    if (chips.empty())
        throw ConfigError("--chips: empty list");
    return chips;
}

int
body(bench::Runner &r)
{
    const bench::EvalConfig volume = r.evalConfig();
    std::string name = r.args().str("network");
    if (name.empty())
        name = "Mnist-A";
    const std::vector<int64_t> chip_counts =
        parseChipList(r.args().str("chips"));

    const workloads::NetworkSpec spec = workloads::networkByName(name);
    const reram::DeviceParams params;
    const sim::Simulator simulator(spec, params);

    std::cout << "Scale-out: " << spec.name << " training, batch "
              << volume.batch_size << ", " << volume.num_images
              << " images, ring all-reduce interconnect (defaults)\n\n";

    Table table({"chips", "chip cycles", "agg cycles", "total cycles",
                 "speedup", "efficiency", "ideal"});
    json::Value rows = json::Value::array();
    json::Value walls = json::Value::array();

    int64_t single_chip_cycles = 0;
    // Pipeline depth for the ideal-ceiling print: array layers.
    const int64_t depth = spec.pipelineDepth();

    for (const int64_t chips : chip_counts) {
        sim::Job job;
        job.network = spec.name;
        job.phase = sim::Phase::Training;
        job.pipelined = true;
        job.batch_size = volume.batch_size;
        job.num_images = volume.num_images;
        job.num_chips = chips;

        const auto t0 = std::chrono::steady_clock::now();
        const sim::ClusterReport rep = simulator.runCluster(job);
        const auto t1 = std::chrono::steady_clock::now();

        // The last point's full envelope doubles as a lintable
        // artifact (json_lint's cluster_version checks).
        const std::string report_path = r.args().str("report");
        if (!report_path.empty() && chips == chip_counts.back()) {
            std::ofstream out(report_path);
            if (!out) {
                std::cerr << "bench_fig_scaling: cannot write "
                          << report_path << "\n";
                return 1;
            }
            rep.toJson().write(out, /*indent=*/1);
            out << "\n";
            std::cout << "wrote " << report_path << "\n";
        }

        if (chips == 1)
            single_chip_cycles = rep.total_cycles;
        PL_ASSERT(single_chip_cycles > 0,
                  "--chips list must start with 1 for speedup rows");
        const double speedup =
            static_cast<double>(single_chip_cycles) /
            static_cast<double>(rep.total_cycles);
        const double efficiency =
            speedup / static_cast<double>(chips);
        // Structural ceiling, aggregation excluded.
        const double fill = static_cast<double>(2 * depth + 1) /
                            static_cast<double>(volume.batch_size);
        const double ideal = (1.0 + fill) /
                             (1.0 / static_cast<double>(chips) + fill);

        table.addRow({std::to_string(chips),
                      std::to_string(rep.sched.chip_cycles),
                      std::to_string(rep.sched.aggregation_cycles),
                      std::to_string(rep.total_cycles),
                      Table::num(speedup, 2), Table::num(efficiency, 2),
                      Table::num(ideal, 2)});

        json::Value row = json::Value::object();
        row["chips"] = json::Value(chips);
        row["chip_cycles"] = json::Value(rep.sched.chip_cycles);
        row["aggregation_cycles"] =
            json::Value(rep.sched.aggregation_cycles);
        row["total_cycles"] = json::Value(rep.total_cycles);
        row["aggregation_rounds_count"] =
            json::Value(rep.sched.aggregation_rounds);
        row["payload_bytes"] = json::Value(rep.sched.payload_bytes);
        row["wire_bytes"] = json::Value(rep.sched.wire_bytes);
        row["aggregation_energy_j"] =
            json::Value(rep.sched.aggregation_energy_j);
        rows.push(std::move(row));

        json::Value wall = json::Value::object();
        wall["chips"] = json::Value(chips);
        wall["wall_s"] = json::Value(
            std::chrono::duration<double>(t1 - t0).count());
        wall["cycle_speedup"] = json::Value(speedup);
        walls.push(std::move(wall));
    }

    r.print(table);
    std::cout << "\nSpeedup is simulated total cycles (aggregation "
                 "included) vs the 1-chip cluster; the ideal column "
                 "is the fill/drain-limited ceiling "
                 "(1 + (2L+1)/B) / (1/C + (2L+1)/B).\n";

    r.result()["network"] = json::Value(spec.name);
    r.result()["batch_size"] = json::Value(volume.batch_size);
    r.result()["num_images"] = json::Value(volume.num_images);
    r.result()["pipeline_depth"] = json::Value(depth);
    r.result()["interconnect"] =
        arch::InterconnectConfig().toJson();
    r.result()["rows"] = std::move(rows);
    r.info()["points"] = std::move(walls);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return pipelayer::bench::Runner::main(
        "fig_scaling", argc, argv,
        {"batch", "images", "network", "chips", "report"}, body);
}
