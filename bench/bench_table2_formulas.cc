/**
 * @file
 * Reproduces paper Table 2 ("Cycle and Cost of PipeLayer
 * Architecture") and the Fig. 7 latency analysis: for a sweep of
 * (L, B, N) the closed-form cycle counts are printed next to the
 * cycle counts *measured* by executing the schedule, plus the
 * array/buffer cost accounting.  Also prints Table 3 (the MNIST
 * network hyper-parameters as reconstructed).
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <limits>

#include "arch/granularity.hh"
#include "arch/mapping.hh"
#include "arch/pipeline.hh"
#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "sim/arrival.hh"
#include "workloads/model_zoo.hh"

namespace {

using namespace pipelayer;

void
printCycleTable(bench::Runner &r)
{
    std::cout << "Table 2 / Fig. 7: training cycles, formula vs "
                 "simulated schedule\n\n";
    Table table({"L", "B", "N", "formula non-pipelined",
                 "simulated", "formula pipelined", "simulated",
                 "speedup"});

    const reram::DeviceParams params;
    for (const int64_t depth : {2, 3, 5, 11, 19}) {
        for (const int64_t batch : {16, 64}) {
            const int64_t images = 4 * batch;
            // Build a synthetic chain of the right depth.
            workloads::NetworkSpec spec;
            spec.name = "chain";
            for (int64_t i = 0; i < depth; ++i) {
                spec.layers.push_back(
                    workloads::LayerSpec::innerProduct(64, 64));
            }
            const auto g = arch::GranularityConfig::naive(spec);
            const arch::NetworkMapping map(spec, g, params, true,
                                           batch);

            arch::ScheduleConfig config;
            config.training = true;
            config.batch_size = batch;
            config.num_images = images;

            config.pipelined = false;
            const int64_t serial_sim =
                arch::PipelineScheduler(map.depth(), config).run().total_cycles;
            const int64_t serial_formula =
                arch::PipelineScheduler::analyticTrainingCycles(
                    depth, images, batch, false);

            config.pipelined = true;
            const int64_t piped_sim =
                arch::PipelineScheduler(map.depth(), config).run().total_cycles;
            const int64_t piped_formula =
                arch::PipelineScheduler::analyticTrainingCycles(
                    depth, images, batch, true);

            table.addRow({std::to_string(depth), std::to_string(batch),
                          std::to_string(images),
                          std::to_string(serial_formula),
                          std::to_string(serial_sim),
                          std::to_string(piped_formula),
                          std::to_string(piped_sim),
                          Table::num(static_cast<double>(serial_sim) /
                                         static_cast<double>(piped_sim),
                                     2)});
            PL_ASSERT(serial_sim == serial_formula &&
                      piped_sim == piped_formula,
                      "scheduler diverged from the paper formulas");
        }
    }
    r.print(table);
    r.result()["cycles"] = table.toJson();
    std::cout << "\nnon-pipelined formula: (2L+1)N + N/B    pipelined "
                 "formula: (N/B)(2L+B+1)\n\n";
}

void
printArrayCostTable(bench::Runner &r)
{
    std::cout << "Table 2 (cost rows): morphable arrays and memory "
                 "buffer entries per network (B = 64)\n\n";
    Table table({"network", "L", "arrays (testing)",
                 "arrays (training)", "mem entries non-pipelined",
                 "mem entries pipelined"});
    const reram::DeviceParams params;
    for (const auto &spec : workloads::evaluationNetworks()) {
        const auto g = arch::GranularityConfig::balanced(spec);
        const arch::NetworkMapping testing(spec, g, params, false, 64);
        const arch::NetworkMapping training(spec, g, params, true, 64);
        table.addRow(
            {spec.name, std::to_string(testing.depth()),
             std::to_string(testing.morphableArrays()),
             std::to_string(training.morphableArrays()),
             std::to_string(training.memoryBufferEntries(false)),
             std::to_string(training.memoryBufferEntries(true))});
    }
    r.print(table);
    r.result()["costs"] = table.toJson();
    std::cout << "\nbuffer sizing per stage: 2(L-l)+1 entries "
                 "(validated cycle-by-cycle in tests/test_pipeline)\n\n";
}

void
printTable3(bench::Runner &r)
{
    std::cout << "Table 3: MNIST network hyper-parameters "
                 "(reconstruction; see DESIGN.md)\n\n";
    Table table({"network", "topology", "params", "fwd ops/img"});
    for (const char *name :
         {"Mnist-A", "Mnist-B", "Mnist-C", "Mnist-0"}) {
        const auto spec = workloads::networkByName(name);
        std::string topo;
        for (size_t i = 0; i < spec.layers.size(); ++i) {
            if (i)
                topo += " ";
            topo += spec.layers[i].describe();
        }
        table.addRow({name, topo, std::to_string(spec.paramCount()),
                      std::to_string(spec.forwardOps())});
    }
    r.print(table);
    r.result()["table3"] = table.toJson();
}

void
printLargeN(bench::Runner &r)
{
    // Large-N scaling of the cycle loop itself: the cost of run()
    // (the "event core" column, which walks only busy cycles) follows
    // the scheduled ops, the dense reference walk's follows the
    // horizon (one cycle visit + one vector allocation per cycle,
    // busy or idle).  With back-to-back arrivals the two coincide —
    // every cycle of a PipeLayer schedule is busy — so the serving
    // shape (ROADMAP item 2: a fixed ArrivalTrace spacing images k
    // cycles apart, horizon >> ops) is where run() pulls away.
    const int64_t images = 100000;
    const int64_t depth = 3;
    workloads::NetworkSpec spec;
    spec.name = "chain";
    for (int64_t i = 0; i < depth; ++i)
        spec.layers.push_back(workloads::LayerSpec::innerProduct(64, 64));
    const reram::DeviceParams params;
    const auto g = arch::GranularityConfig::naive(spec);
    const arch::NetworkMapping map(spec, g, params, false, 1);

    // A walk's wall is the best of three runs after one untimed
    // warm-up, so it does not include faulting in a fresh op list.
    const auto timed = [](auto &&body) {
        body();
        double best = std::numeric_limits<double>::infinity();
        for (int rep = 0; rep < 3; ++rep) {
            const auto t0 = std::chrono::steady_clock::now();
            body();
            const auto t1 = std::chrono::steady_clock::now();
            best = std::min(best,
                            std::chrono::duration<double>(t1 - t0).count());
        }
        return best;
    };

    std::cout << "Large-N cycle-loop scaling (testing schedule, N = "
              << images << ", L = " << depth
              << "): event core vs dense walk\n\n";
    Table table({"arrival interval", "event iters", "dense iters",
                 "event wall s", "dense wall s", "speedup"});
    json::Value rows = json::Value::array();
    json::Value walls = json::Value::array();
    for (const int64_t interval :
         {int64_t{1}, int64_t{64}, int64_t{256}}) {
        arch::ScheduleConfig config;
        config.pipelined = true;
        config.training = false;
        config.num_images = images;
        config.arrival_cycles =
            sim::ArrivalTrace::fixed(images, interval).cycles();

        arch::PipelineScheduler event(map.depth(), config);
        arch::ScheduleStats event_stats;
        const double event_wall =
            timed([&] { event_stats = event.run(); });
        const int64_t event_iters = event.lastRunCycleIters();

        arch::PipelineScheduler dense(map.depth(), config);
        arch::ScheduleStats dense_stats;
        const double dense_wall =
            timed([&] { dense_stats = dense.runReference(); });
        const int64_t dense_iters = dense.lastRunCycleIters();

        PL_ASSERT(event_stats.total_cycles == dense_stats.total_cycles &&
                      event_stats.forward_ops == dense_stats.forward_ops,
                  "event core diverged from the dense reference walk");
        PL_ASSERT(event_iters <= dense_iters,
                  "event core iterated more cycles than the dense walk");

        const double speedup =
            event_wall > 0.0 ? dense_wall / event_wall : 0.0;
        table.addRow({std::to_string(interval),
                      std::to_string(event_iters),
                      std::to_string(dense_iters),
                      Table::num(event_wall, 4),
                      Table::num(dense_wall, 4),
                      Table::num(speedup, 2) + "x"});

        // Deterministic counters carry the _iters suffix so
        // tools/bench_compare gates them and CI can byte-compare the
        // result subtree; wall times and speedups are machine-
        // dependent and go in the envelope's info member.
        json::Value row = json::Value::object();
        row["arrival_interval"] = json::Value(interval);
        row["logical_cycles"] = json::Value(event_stats.total_cycles);
        row["event_cycle_iters"] = json::Value(event_iters);
        row["dense_cycle_iters"] = json::Value(dense_iters);
        row["events_dispatched"] = json::Value(event.lastRunEvents());
        rows.push(std::move(row));

        json::Value wall = json::Value::object();
        wall["arrival_interval"] = json::Value(interval);
        wall["event_wall_seconds"] = json::Value(event_wall);
        wall["dense_wall_seconds"] = json::Value(dense_wall);
        wall["speedup"] = json::Value(speedup);
        walls.push(std::move(wall));
    }
    r.print(table);
    std::cout << "\nback-to-back arrivals (interval 1) keep every "
                 "cycle busy; the serving shape leaves the dense walk "
                 "visiting (N-1) x interval + L mostly-idle cycles\n\n";
    json::Value large = json::Value::object();
    large["images"] = json::Value(images);
    large["rows"] = std::move(rows);
    r.result()["large_n"] = std::move(large);
    r.info()["large_n_walls"] = std::move(walls);
}

} // namespace

int
main(int argc, char **argv)
{
    return bench::Runner::main(
        "table2_formulas", argc, argv, {},
        [](bench::Runner &r) {
        printCycleTable(r);
        printArrayCostTable(r);
        printTable3(r);
        printLargeN(r);
        return 0;
        });
}
