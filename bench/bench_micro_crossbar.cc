/**
 * @file
 * Microbenchmarks of the ReRAM functional model and the pipeline
 * scheduler.
 *
 * Built on the shared bench runner: the envelope's "kernels" array
 * carries per-kernel giga-MACs/s ("gflops"), the deterministic
 * inner-iteration count of the fast path (`inner_iters`, gated by
 * tools/bench_compare), and the measured speedup over an in-bench
 * pulse-walk reference that replays the pre-collapse per-bit-plane
 * IntegrateFire walk.  The two crossbar_matvec_* rows time one
 * window through one array (CrossbarArray::matVecCodesBatch, which
 * the device runs only for a tile row that could saturate a counter);
 * the arraygroup_* rows time the device's path, ArrayGroup::
 * matVecBatch: one signed product per tile row.  The
 * arraygroup_mnist0_* rows run it at two Mnist-0 layer shapes, and
 * the quantize_i32 row times the pass that quantises and counts one
 * tile row of conv2's windows (gemmk::Kernels::quantize_i32; "GMAC/s"
 * there is giga-codes/s).  Every row times each available dispatch
 * target as gflops_<isa>.  Run with --threads=1 and read
 * `speedup_vs_reference`.
 *
 * The scheduler row reports `logical_cycles` — a deterministic model
 * output gated against the committed baseline like the figure benches.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "arch/granularity.hh"
#include "arch/mapping.hh"
#include "arch/pipeline.hh"
#include "bench/bench_threads.hh"
#include "bench/bench_util.hh"
#include "common/isa.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "quant/quantize.hh"
#include "reram/array_group.hh"
#include "reram/crossbar.hh"
#include "support/spike.hh"
#include "tensor/gemm_kernels.hh"
#include "workloads/model_zoo.hh"

namespace {

using namespace pipelayer;

/** One kernel's measurements; ref_ns == 0 means "no reference". */
struct KernelRow
{
    std::string name;
    int64_t inner_iters = 0; //!< innermost-loop iterations per call
    double flops = 0.0;      //!< MAC-equivalent ops per call
    double ns = 0.0;         //!< ns per call, fast path
    double ref_ns = 0.0;     //!< ns per call, pulse-walk reference
    /** (target name, GMAC/s) per available dispatch target. */
    std::vector<std::pair<std::string, double>> isa_gflops;
};

json::Value
toJson(const KernelRow &row)
{
    json::Value v = json::Value::object();
    v["name"] = json::Value(row.name);
    v["inner_iters"] = json::Value(row.inner_iters);
    v["flops"] = json::Value(row.flops);
    v["ns_per_call"] = json::Value(row.ns);
    v["gflops"] = json::Value(row.ns > 0.0 ? row.flops / row.ns : 0.0);
    for (const auto &per : row.isa_gflops)
        v["gflops_" + per.first] = json::Value(per.second);
    if (row.ref_ns > 0.0) {
        v["ref_ns_per_call"] = json::Value(row.ref_ns);
        v["speedup_vs_reference"] = json::Value(row.ref_ns / row.ns);
    }
    return v;
}

/** A programmed array plus the random input codes that drive it. */
struct MatVecSetup
{
    reram::DeviceParams params;
    reram::CrossbarArray array;
    std::vector<int64_t> codes;
    std::vector<int64_t> grid; //!< row-major conductance snapshot
    std::vector<int64_t> out;  //!< one window's IF counts

    MatVecSetup(int64_t rows, int64_t cols, uint64_t seed)
        : params(makeParams(rows, cols)), array(params)
    {
        Rng rng(seed);
        for (int64_t r = 0; r < rows; ++r)
            for (int64_t c = 0; c < cols; ++c)
                array.programCell(
                    r, c, static_cast<int64_t>(rng.uniformInt(16)));
        codes.resize(static_cast<size_t>(rows));
        for (auto &code : codes)
            code = static_cast<int64_t>(rng.uniformInt(
                uint64_t{1} << params.data_bits));
        grid.resize(static_cast<size_t>(rows * cols));
        for (int64_t r = 0; r < rows; ++r)
            for (int64_t c = 0; c < cols; ++c)
                grid[static_cast<size_t>(r * cols + c)] =
                    array.cell(r, c);
        out.resize(static_cast<size_t>(cols));
    }

    /** The collapsed MVM: the codes as one window. */
    void matVec()
    {
        array.matVecCodesBatch(
            reram::SpikeBlock(codes.data(), 1,
                              static_cast<int64_t>(codes.size()),
                              params.data_bits),
            out.data());
    }

    static reram::DeviceParams makeParams(int64_t rows, int64_t cols)
    {
        reram::DeviceParams p;
        p.array_rows = rows;
        p.array_cols = cols;
        return p;
    }

    /**
     * The pre-collapse MVM: walk the data_bits bit planes LSB first,
     * and for every row spiking in a plane integrate that plane's
     * weighted charge into each column's IF counter — exactly the
     * per-pulse loop the crossbar ran before the bit-plane collapse,
     * on a snapshot of the same conductances.
     */
    int64_t pulseWalk() const
    {
        const int64_t cols = params.array_cols;
        std::vector<reram::IntegrateFire> ifs(
            static_cast<size_t>(cols),
            reram::IntegrateFire(params.counter_bits));
        for (int t = 0; t < params.data_bits; ++t) {
            const int64_t weight = int64_t{1} << t;
            for (size_t r = 0; r < codes.size(); ++r) {
                if (((codes[r] >> t) & 1) == 0)
                    continue;
                const int64_t *row =
                    grid.data() + static_cast<int64_t>(r) * cols;
                for (int64_t c = 0; c < cols; ++c) {
                    if (row[c] != 0)
                        ifs[static_cast<size_t>(c)].integrate(
                            weight * row[c]);
                }
            }
        }
        int64_t sum = 0;
        for (const auto &fire : ifs)
            sum += fire.count();
        return sum;
    }
};

KernelRow
measureKernel(const std::string &name, int64_t inner_iters, double flops,
              const std::function<void()> &fast,
              const std::function<void()> &ref)
{
    KernelRow row;
    row.name = name;
    row.inner_iters = inner_iters;
    row.flops = flops;
    row.ns = bench::measureNs(threadCount(), fast);
    // One measurement per available SIMD dispatch target
    // (gflops_<isa>): the crossbar product rides the dispatched integer
    // kernel gemm_i32_i64, so the target changes wall clock, never
    // counts.
    {
        const isa::Target entry = isa::active();
        for (isa::Target t : isa::availableTargets()) {
            isa::setActive(t);
            const double ns = bench::measureNs(threadCount(), fast);
            row.isa_gflops.emplace_back(isa::name(t),
                                        ns > 0.0 ? flops / ns : 0.0);
        }
        isa::setActive(entry);
    }
    if (ref)
        row.ref_ns = bench::measureNs(1, ref);
    return row;
}

int
run(bench::Runner &runner)
{
    std::vector<KernelRow> rows;

    {
        // One window through a default 128x128 array at data_bits=16.
        MatVecSetup s(128, 128, 1);
        rows.push_back(measureKernel(
            "crossbar_matvec_128x128_db16", 128 * 128,
            static_cast<double>(128 * 128),
            [&] { s.matVec(); }, [&] { s.pulseWalk(); }));
    }
    {
        // Large subarray: enough bit lines per worker to parallelise.
        MatVecSetup s(512, 512, 4);
        rows.push_back(measureKernel(
            "crossbar_matvec_512x512_db16", 512 * 512,
            static_cast<double>(512 * 512),
            [&] { s.matVec(); }, nullptr));
    }
    {
        const reram::DeviceParams params;
        Rng rng(2);
        const Tensor w = Tensor::randn({256, 256}, rng);
        reram::ArrayGroup group(params, w);
        Tensor x({1, 256});
        for (int64_t i = 0; i < x.numel(); ++i)
            x.at(i) = static_cast<float>(rng.uniform());
        rows.push_back(measureKernel(
            "arraygroup_matvec_256", 256 * 256,
            static_cast<double>(2 * 256 * 256),
            [&] { group.matVecBatch(x); }, nullptr));
    }
    {
        // Batched crossbar-window MVM: the G windows of a logical
        // cycle go through the arrays as one batch (each crossbar
        // sweeps its cells once for all windows).  The reference is
        // the pre-batching path — the same windows pushed through
        // one at a time.
        const reram::DeviceParams params;
        Rng rng(3);
        const Tensor w = Tensor::randn({256, 256}, rng);
        reram::ArrayGroup group(params, w);
        constexpr int64_t kWindows = 8;
        Tensor xb({kWindows, 256});
        for (int64_t b = 0; b < kWindows; ++b)
            for (int64_t j = 0; j < 256; ++j)
                xb(b, j) = static_cast<float>(rng.uniform());
        Tensor one({1, 256});
        rows.push_back(measureKernel(
            "arraygroup_batched_windows_256_g8", kWindows * 256 * 256,
            static_cast<double>(2 * kWindows * 256 * 256),
            [&] { group.matVecBatch(xb); },
            [&] {
                for (int64_t b = 0; b < kWindows; ++b) {
                    for (int64_t j = 0; j < 256; ++j)
                        one(0, j) = xb(b, j);
                    group.matVecBatch(one);
                }
            }));
    }

    {
        // ArrayGroup::matVecBatch at two Mnist-0 shapes (bias column
        // included): conv2's 64 windows of 501 inputs onto 50 outputs,
        // and ip1's one window of 801 inputs onto 500.  The inputs are
        // rectified, so about a third of the codes are zero, as after
        // the network's ReLUs.
        struct Shape
        {
            const char *name;
            int64_t windows, m, n;
        };
        const reram::DeviceParams params;
        Rng rng(5);
        for (const Shape &shape : {Shape{"conv2_64x501x50", 64, 501, 50},
                                   Shape{"ip1_1x801x500", 1, 801, 500}}) {
            reram::ArrayGroup group(
                params, Tensor::randn({shape.n, shape.m}, rng));
            Tensor x({shape.windows, shape.m});
            for (int64_t i = 0; i < x.numel(); ++i)
                x.at(i) = std::max(
                    0.0f, static_cast<float>(rng.uniform(-0.5, 1.0)));
            const int64_t macs = shape.windows * shape.m * shape.n;
            rows.push_back(measureKernel(
                std::string("arraygroup_mnist0_") + shape.name, macs,
                static_cast<double>(macs),
                [&] { group.matVecBatch(x); }, nullptr));
        }
    }

    {
        // One tile row of conv2's windows through the quantiser with
        // the counts on: 64 windows of 128 rectified inputs, each at
        // its own scale, every code counted and added to the drive.
        constexpr int64_t kWindows = 64, kRows = 128;
        Rng rng(6);
        std::vector<float> x(static_cast<size_t>(kWindows * kRows));
        for (float &v : x)
            v = std::max(0.0f, static_cast<float>(rng.uniform(-0.5, 1.0)));
        std::vector<float> scales;
        for (int64_t b = 0; b < kWindows; ++b)
            scales.push_back(quant::Quantizer::forTensor(
                                 {x.data() + b * kRows,
                                  static_cast<size_t>(kRows)},
                                 16)
                                 .scale);
        std::vector<int32_t> codes(x.size());
        std::vector<int64_t> drive(static_cast<size_t>(kRows));
        gemmk::CodeCounts counts;
        rows.push_back(measureKernel(
            "quantize_i32_64x128", kWindows * kRows,
            static_cast<double>(kWindows * kRows),
            [&] {
                const gemmk::Kernels &kern = gemmk::activeKernels();
                std::fill(drive.begin(), drive.end(), int64_t{0});
                for (int64_t b = 0; b < kWindows; ++b) {
                    counts = gemmk::CodeCounts{};
                    kern.quantize_i32(x.data() + b * kRows, kRows,
                                      scales[static_cast<size_t>(b)],
                                      32767, codes.data() + b * kRows,
                                      &counts, drive.data());
                }
            },
            nullptr));
    }

    Table table({"kernel", "inner_iters", "ns/call", "GMAC/s",
                 "ref ns/call", "speedup vs ref"});
    json::Value kernels = json::Value::array();
    for (const auto &row : rows) {
        table.addRow(
            {row.name, std::to_string(row.inner_iters),
             Table::num(row.ns, 0),
             Table::num(row.ns > 0.0 ? row.flops / row.ns : 0.0),
             row.ref_ns > 0.0 ? Table::num(row.ref_ns, 0) : "-",
             row.ref_ns > 0.0 ? Table::num(row.ref_ns / row.ns) + "x"
                              : "-"});
        kernels.push(toJson(row));
    }
    runner.print(table);
    runner.result()["kernels"] = std::move(kernels);

    // Pipeline scheduler: logical_cycles is a deterministic model
    // output, so it is a watched metric like the figure benches'.
    {
        const auto spec = workloads::vggE();
        const reram::DeviceParams params;
        const auto g = arch::GranularityConfig::balanced(spec);
        const arch::NetworkMapping map(spec, g, params, true, 64);
        arch::ScheduleConfig config;
        config.pipelined = true;
        config.training = true;
        config.batch_size = 64;
        config.num_images = 256;

        arch::PipelineScheduler once(map.depth(), config);
        const int64_t cycles = once.run().total_cycles;
        const double ns = bench::measureNs(threadCount(), [&] {
            arch::PipelineScheduler scheduler(map.depth(), config);
            scheduler.run();
        });

        Table sched({"schedule", "images", "logical_cycles", "ns/run"});
        sched.addRow({"vggE training", "256", std::to_string(cycles),
                      Table::num(ns, 0)});
        runner.print(sched);

        json::Value v = json::Value::object();
        v["network"] = json::Value("vggE");
        v["images"] = json::Value(static_cast<int64_t>(256));
        v["logical_cycles"] = json::Value(cycles);
        v["ns_per_run"] = json::Value(ns);
        runner.result()["scheduler"] = std::move(v);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return pipelayer::bench::Runner::main("micro_crossbar", argc, argv,
                                          {}, run);
}
