/**
 * @file
 * Microbenchmarks of the tensor primitives that dominate the
 * functional substrate: convolution, im2col, matrix products.
 *
 * Built on the shared bench runner, so the output is the standard
 * JSON envelope with a "kernels" array — one row per kernel with the
 * measured GFLOP/s, the deterministic inner-iteration count of the
 * fast path (`inner_iters`, gated by tools/bench_compare like any
 * `_s`/`_j` metric: an algorithmic blow-up fails CI even though wall
 * clock is never gated), and the measured speedup over the serial
 * naive `ops::reference` kernels.
 *
 * The conv2d forward row on the 32->32 channel 28x28 shape is the
 * acceptance benchmark for the GEMM-ified compute path: run with
 * --threads=1 and read `speedup_vs_reference`.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_threads.hh"
#include "bench/bench_util.hh"
#include "common/isa.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "tensor/ops.hh"
#include "support/ops_reference.hh"
#include "tensor/tensor.hh"

namespace {

using namespace pipelayer;

/** One kernel's measurements; ref_ns == 0 means "no reference". */
struct KernelRow
{
    std::string name;
    int64_t inner_iters = 0; //!< innermost-loop iterations per call
    double flops = 0.0;      //!< floating-point ops per call
    double ns = 0.0;         //!< ns per call, fast path
    double ref_ns = 0.0;     //!< ns per call, ops::reference path
    /** (target name, GFLOP/s) per available dispatch target. */
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

/**
 * Measure @p fast at the configured thread count and @p ref (when
 * non-null) serially — the reference kernels are single-threaded by
 * construction, so timing them at one thread is what they cost.
 * FLOP-counted kernels are additionally measured once per available
 * SIMD dispatch target (gflops_<isa> members): results are
 * byte-identical across targets, so only the wall clock differs.
 */
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
    if (flops > 0.0) {
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
    Rng rng(1);
    std::vector<KernelRow> rows;

    {
        // Acceptance shape for the GEMM-ified forward convolution.
        const Tensor in = Tensor::randn({32, 28, 28}, rng);
        const Tensor k = Tensor::randn({32, 32, 3, 3}, rng);
        const Tensor b = Tensor::randn({32}, rng);
        const int64_t macs = 32 * 28 * 28 * 32 * 9;
        rows.push_back(measureKernel(
            "conv2d_fwd_32x32_28x28", macs, 2.0 * macs,
            [&] { ops::conv2d(in, k, b, 1, 1); },
            [&] { ops::reference::conv2d(in, k, b, 1, 1); }));
        rows.push_back(measureKernel(
            "im2col_32ch_28x28", 32 * 9 * 28 * 28, 0.0,
            [&] { ops::im2col(in, 3, 3, 1, 1); },
            [&] { ops::reference::im2col(in, 3, 3, 1, 1); }));
    }

    {
        const Tensor in = Tensor::randn({32, 16, 16}, rng);
        const Tensor delta = Tensor::randn({32, 14, 14}, rng);
        const int64_t macs = 32 * 32 * 9 * 14 * 14;
        rows.push_back(measureKernel(
            "conv2d_bwd_kernel_32x32_14x14", macs, 2.0 * macs,
            [&] { ops::conv2dBackwardKernel(in, delta, 3, 3); },
            [&] { ops::reference::conv2dBackwardKernel(in, delta, 3, 3); }));
    }

    {
        const Tensor w = Tensor::randn({1024, 1024}, rng);
        const Tensor x = Tensor::randn({1024}, rng);
        const Tensor y = Tensor::randn({1024}, rng);
        const int64_t macs = 1024 * 1024;
        rows.push_back(measureKernel(
            "matvec_1024", macs, 2.0 * macs,
            [&] { ops::matVec(w, x); },
            [&] { ops::reference::matVec(w, x); }));
        rows.push_back(measureKernel(
            "matvect_1024", macs, 2.0 * macs,
            [&] { ops::matVecT(w, y); },
            [&] { ops::reference::matVecT(w, y); }));
        rows.push_back(measureKernel(
            "outer_1024", macs, static_cast<double>(macs),
            [&] { ops::outer(x, y); },
            [&] { ops::reference::outer(x, y); }));
    }

    {
        // The Fig. 13 study's 8 -> 8 channel layer (C-4's second conv,
        // 16x16, pad 1): forward, δ-input and ∂W.  Appended last, so
        // the rows above keep their inputs and their baseline paths.
        const Tensor in = Tensor::randn({8, 16, 16}, rng);
        const Tensor k = Tensor::randn({8, 8, 3, 3}, rng);
        const Tensor b = Tensor::randn({8}, rng);
        const Tensor delta = Tensor::randn({8, 16, 16}, rng);
        const int64_t macs = 8 * 8 * 9 * 16 * 16;
        rows.push_back(measureKernel(
            "conv2d_fwd_8x8_16x16", macs, 2.0 * macs,
            [&] { ops::conv2d(in, k, b, 1, 1); },
            [&] { ops::reference::conv2d(in, k, b, 1, 1); }));
        rows.push_back(measureKernel(
            "conv2d_bwd_input_8x8_16x16", macs, 2.0 * macs,
            [&] { ops::conv2dBackwardInput(delta, k, 1); },
            [&] { ops::reference::conv2dBackwardInput(delta, k, 1); }));
        rows.push_back(measureKernel(
            "conv2d_bwd_kernel_8x8_16x16", macs, 2.0 * macs,
            [&] { ops::conv2dBackwardKernel(in, delta, 3, 3, 1); },
            [&] {
                ops::reference::conv2dBackwardKernel(in, delta, 3, 3, 1);
            }));
    }

    Table table({"kernel", "inner_iters", "ns/call", "GFLOP/s",
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
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return pipelayer::bench::Runner::main("micro_tensor", argc, argv, {},
                                          run);
}
