/**
 * @file
 * Property/fuzz tests for the GEMM-backed fast kernels (PR: GEMM-ified
 * compute kernels + bit-plane-collapsed crossbar MVM).
 *
 * The fast paths in ops.cc / CrossbarArray promise *bit-identical*
 * results to the naive loops they replaced — not merely close ones —
 * so every comparison here is exact (float bit patterns, integer
 * equality), over randomized shapes, strides and pads, at 1 and 4
 * worker threads and under every SIMD dispatch target the host
 * supports (forced the way a user would: PL_ISA + re-resolve).  The
 * naive loops survive as ops::reference and as a local pulse-walk
 * crossbar model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <utility>
#include <vector>

#include "common/arena.hh"
#include "common/isa.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "quant/quantize.hh"
#include "reram/array_group.hh"
#include "reram/crossbar.hh"
#include "support/group_reference.hh"
#include "support/one_window.hh"
#include "support/ops_reference.hh"
#include "support/spike.hh"
#include "tensor/gemm.hh"
#include "tensor/gemm_kernels.hh"
#include "tensor/ops.hh"

namespace pipelayer {
namespace {

Tensor
randomTensor(const Shape &shape, Rng &rng)
{
    Tensor t(shape);
    for (int64_t i = 0; i < t.numel(); ++i)
        t.at(i) = static_cast<float>(rng.uniform(-1.0, 1.0));
    return t;
}

/**
 * Half the entries uniform in [-1, 1], half ±2^e for e in {-30, -15,
 * 0, 15, 30}.  Sums of uniform products are mostly exact in double,
 * so on their own they hide the lane assignment and the tree order;
 * equal and opposite powers of two cancel exactly across lanes, and
 * what survives the cancellation depends on both.
 */
Tensor
lanePickyTensor(const Shape &shape, Rng &rng)
{
    Tensor t = randomTensor(shape, rng);
    for (int64_t i = 0; i < t.numel(); ++i) {
        if (rng.uniform() < 0.5) {
            const int e = 15 * static_cast<int>(rng.uniformInt(5)) - 30;
            t.at(i) = std::ldexp(t.at(i) < 0.0f ? -1.0f : 1.0f, e);
        }
    }
    return t;
}

/** Exact equality: same shape and the same float bit patterns. */
void
expectBitIdentical(const Tensor &fast, const Tensor &ref,
                   const char *what)
{
    ASSERT_EQ(fast.shape(), ref.shape()) << what;
    ASSERT_EQ(0, std::memcmp(fast.data(), ref.data(),
                             static_cast<size_t>(fast.numel()) *
                                 sizeof(float)))
        << what << ": fast path diverged from the naive reference";
}

/**
 * Run @p body at 1 and 4 worker threads under every dispatch target
 * this host supports, forcing each target through the user-facing
 * mechanism (PL_ISA + isa::reresolveFromEnv) rather than setActive so
 * the fatal-on-unsupported env path is exercised too.  Targets the
 * host lacks are noted and skipped — the contract they would have to
 * satisfy is the same lane-based reduction every present target is
 * held to here.
 */
template <typename Fn>
void
atThreadCounts(Fn &&body)
{
    const int64_t saved = threadCount();
    for (int i = 0; i < isa::kTargetCount; ++i) {
        const isa::Target target = static_cast<isa::Target>(i);
        if (!isa::supported(target)) {
            std::cout << "[   NOTE   ] dispatch target '"
                      << isa::name(target)
                      << "' is not supported on this host; skipped\n";
            continue;
        }
        ::setenv("PL_ISA", isa::name(target), /*overwrite=*/1);
        isa::reresolveFromEnv();
        SCOPED_TRACE(std::string("isa=") + isa::name(target));
        for (int64_t threads : {int64_t{1}, int64_t{4}}) {
            setThreadCount(threads);
            body(threads);
        }
    }
    ::unsetenv("PL_ISA");
    isa::reresolveFromEnv();
    setThreadCount(saved);
}

/**
 * The 'same'-padding regime of the conv fuzz: stride 1, an odd square
 * kernel K in {1, 3, 5} at pad (K-1)/2, so the output is as wide as
 * the input (packWindows' one-copy tap planes), and h != w down to 1,
 * so the planes clip rows and columns on both sides, and below K some
 * planes lie wholly in the padding.
 */
struct SameGeometry
{
    int64_t k, pad, h, w;
};

SameGeometry
drawSameGeometry(Rng &rng)
{
    SameGeometry g;
    g.k = 1 + 2 * static_cast<int64_t>(rng.uniformInt(3));
    g.pad = (g.k - 1) / 2;
    g.h = 1 + static_cast<int64_t>(rng.uniformInt(
                  static_cast<uint64_t>(g.k) + 5));
    g.w = g.h + 1 + static_cast<int64_t>(rng.uniformInt(5));
    if (rng.uniform() < 0.5)
        std::swap(g.h, g.w);
    return g;
}

TEST(GemmFuzz, Conv2dForwardMatchesReferenceBitExact)
{
    // Iterations from 24 on draw the 'same'-padding regime.
    Rng rng(0xC04Fu);
    atThreadCounts([&](int64_t threads) {
        for (int iter = 0; iter < 32; ++iter) {
            const int64_t ci = 1 + static_cast<int64_t>(rng.uniformInt(4));
            const int64_t co = 1 + static_cast<int64_t>(rng.uniformInt(5));
            int64_t kh = 1 + static_cast<int64_t>(rng.uniformInt(3));
            int64_t kw = 1 + static_cast<int64_t>(rng.uniformInt(3));
            int64_t pad = static_cast<int64_t>(rng.uniformInt(3));
            int64_t stride = 1 + static_cast<int64_t>(rng.uniformInt(3));
            // Input large enough for the padded kernel.
            int64_t h = kh + static_cast<int64_t>(rng.uniformInt(9));
            int64_t w = kw + static_cast<int64_t>(rng.uniformInt(9));
            if (iter >= 24) {
                const SameGeometry g = drawSameGeometry(rng);
                kh = kw = g.k;
                pad = g.pad;
                stride = 1;
                h = g.h;
                w = g.w;
            }
            const Tensor input = randomTensor({ci, h, w}, rng);
            const Tensor kernel = randomTensor({co, ci, kh, kw}, rng);
            const bool has_bias = rng.uniform() < 0.5;
            const Tensor bias =
                has_bias ? randomTensor({co}, rng) : Tensor();

            const Tensor fast =
                ops::conv2d(input, kernel, bias, stride, pad);
            const Tensor ref =
                ops::reference::conv2d(input, kernel, bias, stride, pad);
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " iter=" + std::to_string(iter));
            expectBitIdentical(fast, ref, "conv2d");
        }
    });
}

TEST(GemmFuzz, Conv2dBackwardKernelMatchesReferenceBitExact)
{
    // ∂W vectorises over output channels, so Co reaches past two
    // AVX-512 vectors (8 outputs) into the scalar leftover columns;
    // lane-picky operands expose a wrong lane or tree.  Iterations
    // from 20 on draw the 'same'-padding regime.
    Rng rng(0xBDADu);
    atThreadCounts([&](int64_t threads) {
        for (int iter = 0; iter < 28; ++iter) {
            const int64_t ci = 1 + static_cast<int64_t>(rng.uniformInt(4));
            const int64_t co = 1 + static_cast<int64_t>(rng.uniformInt(17));
            int64_t kh = 1 + static_cast<int64_t>(rng.uniformInt(3));
            int64_t kw = 1 + static_cast<int64_t>(rng.uniformInt(3));
            int64_t pad = static_cast<int64_t>(rng.uniformInt(3));
            int64_t h = kh + static_cast<int64_t>(rng.uniformInt(8));
            int64_t w = kw + static_cast<int64_t>(rng.uniformInt(8));
            if (iter >= 20) {
                const SameGeometry g = drawSameGeometry(rng);
                kh = kw = g.k;
                pad = g.pad;
                h = g.h;
                w = g.w;
            }
            const int64_t ho = h + 2 * pad - kh + 1;
            const int64_t wo = w + 2 * pad - kw + 1;
            const Tensor input = lanePickyTensor({ci, h, w}, rng);
            const Tensor delta = lanePickyTensor({co, ho, wo}, rng);

            const Tensor fast =
                ops::conv2dBackwardKernel(input, delta, kh, kw, pad);
            const Tensor ref = ops::reference::conv2dBackwardKernel(
                input, delta, kh, kw, pad);
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " iter=" + std::to_string(iter));
            expectBitIdentical(fast, ref, "conv2dBackwardKernel");
        }
    });
}

TEST(GemmFuzz, Conv2dBackwardInputMatchesReferenceBitExact)
{
    // The direct form pads δ by K-1-pad per axis, so each iteration
    // draws one of its regimes explicitly: pad < K-1 (windows reach
    // into the zero border), pad = K-1 (no border), pad > K-1 (windows
    // start inside δ), kh != kw at pad 0, and kh != kw padded; from
    // iteration 20 on, 'same' padding.
    Rng rng(0xB1Du);
    atThreadCounts([&](int64_t threads) {
        for (int iter = 0; iter < 28; ++iter) {
            const int regime = iter < 20 ? iter % 5 : 5;
            const int64_t ci = 1 + static_cast<int64_t>(rng.uniformInt(3));
            const int64_t co = 1 + static_cast<int64_t>(rng.uniformInt(4));
            int64_t kh = 1 + static_cast<int64_t>(rng.uniformInt(3));
            int64_t kw = kh;
            int64_t pad = 0;
            if (regime == 0) {
                kh = kw = 2 + static_cast<int64_t>(rng.uniformInt(2));
                pad = static_cast<int64_t>(rng.uniformInt(
                    static_cast<uint64_t>(kh - 1)));
            } else if (regime == 1) {
                pad = kh - 1;
            } else if (regime == 2) {
                pad = kh + static_cast<int64_t>(rng.uniformInt(2));
            } else if (regime < 5) {
                kw = 1 + (kh + static_cast<int64_t>(rng.uniformInt(2))) % 3;
                pad = regime == 3
                    ? 0
                    : 1 + static_cast<int64_t>(rng.uniformInt(2));
            }
            int64_t h = kh + static_cast<int64_t>(rng.uniformInt(8));
            int64_t w = kw + static_cast<int64_t>(rng.uniformInt(8));
            if (regime == 5) {
                const SameGeometry g = drawSameGeometry(rng);
                kh = kw = g.k;
                pad = g.pad;
                h = g.h;
                w = g.w;
            }
            const int64_t ho = h + 2 * pad - kh + 1;
            const int64_t wo = w + 2 * pad - kw + 1;
            const Tensor kernel = randomTensor({co, ci, kh, kw}, rng);
            const Tensor delta = randomTensor({co, ho, wo}, rng);

            const Tensor fast =
                ops::conv2dBackwardInput(delta, kernel, pad);
            const Tensor ref =
                ops::reference::conv2dBackwardInput(delta, kernel, pad);
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " iter=" + std::to_string(iter) + " kh=" +
                         std::to_string(kh) + " kw=" + std::to_string(kw) +
                         " pad=" + std::to_string(pad));
            ASSERT_EQ(fast.shape(), (Shape{ci, h, w}));
            expectBitIdentical(fast, ref, "conv2dBackwardInput");
        }
    });
}

/**
 * gemm::gemmNN's recipe written out naively: output (i, j) adds
 * float(a[i][p] * b[p][j]) to double lane p mod 8 in ascending p, the
 * lanes reduce in the pinned tree and the bias comes last.
 */
void
naiveGemmNN(int64_t m, int64_t n, int64_t k, const float *a, int64_t lda,
            const float *b, int64_t ldb, const float *bias, float *c,
            int64_t ldc)
{
    for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
            double lanes[8] = {};
            for (int64_t p = 0; p < k; ++p)
                lanes[p & 7] +=
                    static_cast<double>(a[i * lda + p] * b[p * ldb + j]);
            const double l01 = lanes[0] + lanes[1];
            const double l23 = lanes[2] + lanes[3];
            const double l45 = lanes[4] + lanes[5];
            const double l67 = lanes[6] + lanes[7];
            const double bi = bias ? static_cast<double>(bias[i]) : 0.0;
            c[i * ldc + j] =
                static_cast<float>(bi + ((l01 + l23) + (l45 + l67)));
        }
    }
}

TEST(GemmFuzz, GemmNNMatchesScalarDefinitionAndNaiveLanesBitExact)
{
    // Column counts with n % 8 and n % 4 tails (and n below one
    // vector), k < 8 and k % 8 != 0, odd m, padded leading dimensions,
    // with and without a bias.  The ∂W shapes (panel times δᵀ: m taps,
    // n output channels, k pixels) read B unpadded, ldb == n.  The
    // last shape carries m * k = 7217 multiply-adds per column, so at
    // 4 threads parallel_for splits its 587 columns into chunks
    // starting at 146, 293 and 440; the first two are off both the 4-
    // and the 8-wide vector boundaries.
    struct Shape3
    {
        int64_t m, n, k;
        int64_t ldb_pad = 3;
    };
    const Shape3 shapes[] = {{1, 1, 1},     {3, 5, 7},      {2, 8, 8},
                             {5, 12, 9},    {4, 19, 16},    {7, 36, 23},
                             {1, 3, 3},     {6, 64, 72},    {144, 16, 64, 0},
                             {9, 8, 256, 0}, {7, 587, 1031}};
    Rng rng(0x6E77u);
    atThreadCounts([&](int64_t threads) {
        for (const Shape3 &s : shapes) {
            for (const bool has_bias : {false, true}) {
                const int64_t lda = s.k + 1, ldb = s.n + s.ldb_pad;
                const int64_t ldc = s.n + 2;
                const Tensor a = lanePickyTensor({s.m, lda}, rng);
                const Tensor b = lanePickyTensor({s.k, ldb}, rng);
                const Tensor bias = lanePickyTensor({s.m}, rng);
                const float *bp = has_bias ? bias.data() : nullptr;
                // NaN fill: an output the kernel skips cannot match.
                Tensor fast({s.m, ldc}, std::nanf(""));
                Tensor scalar = fast, naive = fast;
                gemm::gemmNN(s.m, s.n, s.k, a.data(), lda, b.data(), ldb,
                             bp, fast.data(), ldc);
                gemmk::scalarKernels().gemm_nn(s.m, s.n, s.k, a.data(),
                                               lda, b.data(), ldb, bp,
                                               scalar.data(), ldc);
                naiveGemmNN(s.m, s.n, s.k, a.data(), lda, b.data(), ldb,
                            bp, naive.data(), ldc);
                SCOPED_TRACE("threads=" + std::to_string(threads) +
                             " m=" + std::to_string(s.m) +
                             " n=" + std::to_string(s.n) +
                             " k=" + std::to_string(s.k) +
                             " bias=" + std::to_string(has_bias));
                expectBitIdentical(scalar, naive, "gemm_nn scalar");
                expectBitIdentical(fast, scalar, "gemmNN");
            }
        }
    });
}

TEST(GemmFuzz, MatVecFamilyMatchesReferenceBitExact)
{
    Rng rng(0x3A7u);
    atThreadCounts([&](int64_t threads) {
        for (int iter = 0; iter < 24; ++iter) {
            // Sizes straddling every unroll/grain boundary (1, the
            // 4-row unroll, the 16/64 parallel grains).
            const int64_t n =
                1 + static_cast<int64_t>(rng.uniformInt(130));
            const int64_t m =
                1 + static_cast<int64_t>(rng.uniformInt(130));
            const Tensor weight = randomTensor({n, m}, rng);
            const Tensor x = randomTensor({m}, rng);
            const Tensor y = randomTensor({n}, rng);
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " iter=" + std::to_string(iter));
            expectBitIdentical(ops::matVec(weight, x),
                               ops::reference::matVec(weight, x),
                               "matVec");
            expectBitIdentical(ops::matVecT(weight, y),
                               ops::reference::matVecT(weight, y),
                               "matVecT");
            expectBitIdentical(ops::outer(x, y),
                               ops::reference::outer(x, y), "outer");
        }
    });
}

TEST(GemmFuzz, Im2colMatchesReferenceBitExact)
{
    Rng rng(0x12C07u);
    atThreadCounts([&](int64_t threads) {
        for (int iter = 0; iter < 16; ++iter) {
            const int64_t c = 1 + static_cast<int64_t>(rng.uniformInt(4));
            const int64_t kh = 1 + static_cast<int64_t>(rng.uniformInt(3));
            const int64_t kw = 1 + static_cast<int64_t>(rng.uniformInt(3));
            const int64_t pad = static_cast<int64_t>(rng.uniformInt(3));
            const int64_t stride =
                1 + static_cast<int64_t>(rng.uniformInt(3));
            const int64_t h = kh + static_cast<int64_t>(rng.uniformInt(9));
            const int64_t w = kw + static_cast<int64_t>(rng.uniformInt(9));
            const Tensor input = randomTensor({c, h, w}, rng);
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " iter=" + std::to_string(iter));
            expectBitIdentical(
                ops::im2col(input, kh, kw, stride, pad),
                ops::reference::im2col(input, kh, kw, stride, pad),
                "im2col");
        }
    });
}

// ---------------------------------------------------------------------
// Crossbar: collapsed bit-plane pass vs the per-pulse emulation
// ---------------------------------------------------------------------

/**
 * The original pulse-by-pulse LSBF walk, preserved as the semantic
 * reference: slot t of train r injects charge 2^t * g[r][c] into each
 * bit line's saturating integrate-and-fire counter.
 */
struct PulseWalkResult
{
    std::vector<int64_t> counts;
    int64_t input_spikes = 0;
};

PulseWalkResult
pulseWalk(const reram::CrossbarArray &array,
          const std::vector<reram::SpikeTrain> &inputs, int counter_bits)
{
    PulseWalkResult res;
    int max_bits = 0;
    for (const auto &train : inputs)
        max_bits = std::max(max_bits, train.bits());
    std::vector<reram::IntegrateFire> ifs(
        static_cast<size_t>(array.cols()),
        reram::IntegrateFire(counter_bits));
    for (int t = 0; t < max_bits; ++t) {
        const int64_t weight = int64_t{1} << t;
        for (size_t r = 0; r < inputs.size(); ++r) {
            if (t >= inputs[r].bits() ||
                !inputs[r].slots[static_cast<size_t>(t)])
                continue;
            ++res.input_spikes;
            for (int64_t c = 0; c < array.cols(); ++c) {
                const int64_t g =
                    array.cell(static_cast<int64_t>(r), c);
                if (g != 0)
                    ifs[static_cast<size_t>(c)].integrate(weight * g);
            }
        }
    }
    for (const auto &fire : ifs)
        res.counts.push_back(fire.count());
    return res;
}

/** Random codes below 2^data_bits, and their spike trains. */
void
randomCodes(Rng &rng, int data_bits, int64_t n, std::vector<int64_t> &codes,
            std::vector<reram::SpikeTrain> &trains)
{
    const reram::SpikeDriver driver(data_bits);
    codes.clear();
    trains.clear();
    for (int64_t r = 0; r < n; ++r) {
        codes.push_back(static_cast<int64_t>(
            rng.uniformInt(uint64_t{1} << data_bits)));
        trains.push_back(driver.encode(codes.back()));
    }
}

TEST(CrossbarCollapse, MatchesPulseWalkIncludingSaturation)
{
    // Every cell width, bit-line counts around the 4-, 8- and 16-wide
    // SIMD blocks (0 = a random width), arrays whose weights fill only
    // the first k columns (k = 0, all, or in between), a programmed
    // column zeroed again, stuck-high cells and write noise outside the
    // programmed columns, and the batch entry over fewer rows than the
    // array has.  The MVM sweeps only the live bit lines, so each case
    // checks that the columns past them still count exactly zero.
    Rng rng(0xC0BAu);
    atThreadCounts([&](int64_t threads) {
        int iter = 0;
        for (const int cell_bits : {1, 2, 4, 8}) {
            for (const int64_t width : {1, 7, 8, 9, 15, 16, 17, 0}) {
                ++iter;
                reram::DeviceParams params;
                params.cell_bits = cell_bits;
                params.array_rows =
                    4 + static_cast<int64_t>(rng.uniformInt(29));
                params.array_cols = width > 0
                    ? width
                    : 4 + static_cast<int64_t>(rng.uniformInt(29));
                params.data_bits =
                    1 + static_cast<int>(rng.uniformInt(12));
                // Narrow counters on odd iterations force saturation.
                params.counter_bits =
                    (iter % 2 == 0)
                        ? 48
                        : 4 + static_cast<int>(rng.uniformInt(8));
                if (iter % 4 == 3)
                    params.stuck_at_fault_rate = 0.1;
                if (iter % 4 == 1)
                    params.write_noise_sigma = 0.05;
                reram::CrossbarArray array(params,
                                           static_cast<uint64_t>(iter));
                const int64_t cols = array.cols();
                const int64_t k = iter % 3 == 0 ? 0
                    : iter % 3 == 1
                        ? cols
                        : 1 + static_cast<int64_t>(rng.uniformInt(
                                  static_cast<uint64_t>(cols)));
                for (int64_t r = 0; r < array.rows(); ++r)
                    for (int64_t c = 0; c < k; ++c)
                        array.programCell(
                            r, c,
                            static_cast<int64_t>(rng.uniformInt(
                                static_cast<uint64_t>(
                                    params.maxCellCode()) +
                                1)));
                if (k > 0 && iter % 2 == 0) {
                    for (int64_t r = 0; r < array.rows(); ++r)
                        array.programCell(r, k - 1, 0);
                }

                SCOPED_TRACE("threads=" + std::to_string(threads) +
                             " iter=" + std::to_string(iter) +
                             " cell_bits=" + std::to_string(cell_bits) +
                             " cols=" + std::to_string(cols) +
                             " k=" + std::to_string(k));
                ASSERT_LE(array.liveCols(), cols);
                for (int64_t r = 0; r < array.rows(); ++r)
                    for (int64_t c = array.liveCols(); c < cols; ++c)
                        ASSERT_EQ(array.cell(r, c), 0);

                std::vector<int64_t> codes;
                std::vector<reram::SpikeTrain> trains;
                randomCodes(rng, params.data_bits, array.rows(), codes,
                            trains);
                const PulseWalkResult ref =
                    pulseWalk(array, trains, params.counter_bits);
                const auto before = array.activity();
                const std::vector<int64_t> fast = reram::matVecCodesOnce(
                    array, codes, params.data_bits);
                const auto after = array.activity();

                EXPECT_EQ(fast, ref.counts);
                EXPECT_EQ(after.input_spikes - before.input_spikes,
                          ref.input_spikes);
                EXPECT_EQ(after.mvm_ops - before.mvm_ops, 1);
                int64_t fires = 0;
                for (int64_t count : ref.counts)
                    fires += count;
                EXPECT_EQ(after.if_fires - before.if_fires, fires);

                // The batch entry over rows_used < rows word lines:
                // each window matches its own pulse walk, and the
                // activity is the sum.
                for (const int64_t batch : {1, 3, 8}) {
                    const int64_t rows_used = 1 +
                        static_cast<int64_t>(rng.uniformInt(
                            static_cast<uint64_t>(array.rows() - 1)));
                    std::vector<int64_t> block_codes;
                    std::vector<PulseWalkResult> refs;
                    for (int64_t b = 0; b < batch; ++b) {
                        randomCodes(rng, params.data_bits, rows_used,
                                    codes, trains);
                        block_codes.insert(block_codes.end(),
                                           codes.begin(), codes.end());
                        refs.push_back(pulseWalk(array, trains,
                                                 params.counter_bits));
                    }
                    std::vector<int64_t> out(
                        static_cast<size_t>(batch * cols), -1);
                    const auto pre = array.activity();
                    array.matVecCodesBatch(
                        reram::SpikeBlock(block_codes.data(), batch,
                                          rows_used, params.data_bits),
                        out.data());
                    const auto post = array.activity();
                    int64_t spikes = 0, batch_fires = 0;
                    for (int64_t b = 0; b < batch; ++b) {
                        const PulseWalkResult &want =
                            refs[static_cast<size_t>(b)];
                        EXPECT_EQ(std::vector<int64_t>(
                                      out.begin() + b * cols,
                                      out.begin() + (b + 1) * cols),
                                  want.counts)
                            << "batch=" << batch << " window=" << b;
                        spikes += want.input_spikes;
                        for (int64_t count : want.counts)
                            batch_fires += count;
                    }
                    EXPECT_EQ(post.input_spikes - pre.input_spikes, spikes);
                    EXPECT_EQ(post.mvm_ops - pre.mvm_ops, batch);
                    EXPECT_EQ(post.if_fires - pre.if_fires, batch_fires);
                }
            }
        }
    });
}

/**
 * The largest code sum of one sign that any window puts on any tile
 * row of a group on @p p with @p x as its input: the S of the clamp
 * bound S · maxCellCode() <= 2^counter_bits - 1.
 */
int64_t
largestChunkSum(const reram::DeviceParams &p, const Tensor &x)
{
    const int64_t m = x.dim(1);
    int64_t largest = 0;
    for (int64_t b = 0; b < x.dim(0); ++b) {
        const float *in = x.data() + b * m;
        const quant::Quantizer q = quant::Quantizer::forTensor(
            {in, static_cast<size_t>(m)}, p.data_bits);
        for (int64_t row0 = 0; row0 < m; row0 += p.array_rows) {
            int64_t sums[2] = {0, 0};
            for (int64_t r = row0; r < std::min(m, row0 + p.array_rows); ++r) {
                const int64_t code = q.code(in[r]);
                sums[code < 0 ? 1 : 0] += std::llabs(code);
            }
            largest = std::max({largest, sums[0], sums[1]});
        }
    }
    return largest;
}

/**
 * A (batch, m) input whose windows take turns at being all zero,
 * non-negative with zeros (ReLU output), signed, and of one sign per
 * tile row (positive on even rows of @p rows inputs, negative on odd
 * ones), so tile-row chunks with no code of one sign are common.
 */
Tensor
mixedWindows(int64_t batch, int64_t m, int64_t rows, Rng &rng)
{
    Tensor x({batch, m});
    for (int64_t b = 0; b < batch; ++b) {
        const int64_t kind = b % 4;
        for (int64_t j = 0; j < m; ++j) {
            const auto v = static_cast<float>(rng.uniform(-1.0, 1.0));
            float &e = x(b, j);
            if (kind == 0)
                e = 0.0f;
            else if (kind == 1)
                e = v > 0.0f ? v : 0.0f;
            else if (kind == 2)
                e = v;
            else
                e = ((j / rows) % 2 == 0) == (v > 0.0f) ? v : -v;
        }
    }
    return x;
}

/** Every array's four counters of @p a and @p b agree. */
void
expectSameActivity(const reram::ArrayGroup &a, const reram::ArrayGroup &b)
{
    const reram::DeviceParams &p = a.params();
    const int64_t tiles =
        ((a.inputSize() + p.array_rows - 1) / p.array_rows) *
        ((a.outputSize() + p.array_cols - 1) / p.array_cols);
    for (int sign = 0; sign < 2; ++sign) {
        for (int64_t t = 0; t < tiles; ++t) {
            const auto got = a.tileSlices(sign, t);
            const auto want = b.tileSlices(sign, t);
            for (size_t g = 0; g < got.size(); ++g) {
                SCOPED_TRACE("sign=" + std::to_string(sign) + " tile=" +
                             std::to_string(t) + " slice=" +
                             std::to_string(g));
                const reram::ArrayActivity &x = got[g].activity();
                const reram::ArrayActivity &y = want[g].activity();
                EXPECT_EQ(x.input_spikes, y.input_spikes);
                EXPECT_EQ(x.write_pulses, y.write_pulses);
                EXPECT_EQ(x.mvm_ops, y.mvm_ops);
                EXPECT_EQ(x.if_fires, y.if_fires);
            }
        }
    }
}

TEST(CrossbarCollapse, GroupProductMatchesTileByTileOracle)
{
    // The signed product over the stored codes against the tile-by-
    // tile, slice-by-slice sweeps it replaced (reram::
    // referenceMatVecBatch): m_in and n_out on and off tile edges,
    // 1 to 600 windows (all-zero ones, ReLU-like ones, signed ones and
    // ones of one sign per tile row), every cell width, write noise
    // and stuck cells on and off, and counters that hold every tile
    // row's bound (the product everywhere), one bit short of the
    // largest (that row sweeps its slices), four bits short (counts
    // clamp) and 48 bits wide.  Each group is driven, updated and
    // driven again; outputs and every array's four counters must
    // match, and readWeights must read what the cells hold, recombined
    // cell by cell (reram::referenceReadWeights).  One case is large
    // enough for parallel chunks at 4 threads.
    Rng rng(0x6E0Bu);
    atThreadCounts([&](int64_t threads) {
        for (int iter = 0; iter < 16; ++iter) {
            const bool large = iter == 15;
            reram::DeviceParams p;
            const int cell_bits[] = {4, 2, 1, 8};
            p.cell_bits = cell_bits[iter % 4];
            p.data_bits = p.cell_bits == 8 ? 8 : p.cell_bits == 1 ? 4 : 16;
            p.array_rows = large
                ? 128
                : 4 + static_cast<int64_t>(rng.uniformInt(29));
            p.array_cols = large
                ? 64
                : 4 + static_cast<int64_t>(rng.uniformInt(29));
            if (iter % 3 == 1)
                p.write_noise_sigma = 0.05;
            if (iter % 6 == 2 || iter % 6 == 5)
                p.stuck_at_fault_rate = 0.05;
            // On a tile edge, just past one, or anywhere below three.
            const auto extent = [&](int64_t tile) {
                const int64_t k = 1 + static_cast<int64_t>(rng.uniformInt(2));
                switch (rng.uniformInt(3)) {
                case 0: return k * tile;
                case 1: return k * tile + 1;
                default:
                    return 1 + static_cast<int64_t>(rng.uniformInt(
                                   static_cast<uint64_t>(3 * tile)));
                }
            };
            const int64_t m_in = large ? 128 : extent(p.array_rows);
            const int64_t n_out = large ? 160 : extent(p.array_cols);
            const int64_t batches[] = {1, 2, 3, 5, 8, 64, 1, 600};
            const int64_t batch = large ? 300 : batches[iter % 8];

            const Tensor w = randomTensor({n_out, m_in}, rng);
            const Tensor x = mixedWindows(batch, m_in, p.array_rows, rng);
            const Tensor x2 = mixedWindows(batch, m_in, p.array_rows, rng);
            const int counter_case = iter % 4;
            const int width = std::bit_width(static_cast<uint64_t>(
                std::max(largestChunkSum(p, x), largestChunkSum(p, x2)) *
                p.maxCellCode()));
            p.counter_bits = std::max(1, counter_case == 0 ? width
                                         : counter_case == 1 ? width - 1
                                         : counter_case == 2 ? width - 4
                                                             : 48);

            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " iter=" + std::to_string(iter) + " cell_bits=" +
                         std::to_string(p.cell_bits) + " counter_bits=" +
                         std::to_string(p.counter_bits) + " rows=" +
                         std::to_string(p.array_rows) + " cols=" +
                         std::to_string(p.array_cols) + " m_in=" +
                         std::to_string(m_in) + " n_out=" +
                         std::to_string(n_out) + " batch=" +
                         std::to_string(batch));
            reram::ArrayGroup group(p, w);
            reram::ArrayGroup oracle = group;
            expectBitIdentical(group.readWeights(),
                               reram::referenceReadWeights(group),
                               "programmed weights");
            expectBitIdentical(group.matVecBatch(x),
                               reram::referenceMatVecBatch(oracle, x),
                               "first batch");
            expectSameActivity(group, oracle);

            const Tensor grad = randomTensor({n_out, m_in}, rng);
            group.updateWeights(grad, 0.5f, 2);
            oracle.updateWeights(grad, 0.5f, 2);
            expectBitIdentical(group.readWeights(),
                               reram::referenceReadWeights(group),
                               "stored weights");
            expectBitIdentical(group.matVecBatch(x2),
                               reram::referenceMatVecBatch(oracle, x2),
                               "after the update");
            expectSameActivity(group, oracle);
        }
    });
}

/**
 * The quantiser as it read before the shared rule: std::lround of the
 * quotient, clamped to ±levels, wherever std::lround is defined (a
 * finite quotient below 2^63 in magnitude); a larger or infinite
 * quotient saturates at its sign's end.  @pre the quotient is not NaN.
 */
int32_t
lroundCode(float v, float scale, int32_t levels)
{
    const float q = v / scale;
    if (std::fabs(q) >= 0x1p63f)
        return q > 0.0f ? levels : -levels;
    return static_cast<int32_t>(
        std::clamp<long>(std::lround(q), -levels, levels));
}

/**
 * Values whose codes at @p scale probe the rule: every tie k + 1/2
 * and code k for |k| up to levels + 2 (a random 600 of them above
 * 300 levels) with the floats on either side, quotients on both sides
 * of 2^22, 2^23, 2^31 and 2^63 and far past them, and signed zeros,
 * subnormals, ±inf and NaN.  Some products overflow or underflow at
 * the extreme scales; they stay in as more probes.
 */
std::vector<float>
quantizerProbes(int32_t levels, float scale, Rng &rng)
{
    const float inf = std::numeric_limits<float>::infinity();
    std::vector<float> v;
    const auto near = [&](float x) {
        v.push_back(x);
        v.push_back(std::nextafter(x, inf));
        v.push_back(std::nextafter(x, -inf));
    };
    const int64_t span = levels + 2;
    const auto probeK = [&](int64_t k) {
        near((static_cast<float>(k) + 0.5f) * scale);
        near(static_cast<float>(k) * scale);
    };
    if (span <= 300) {
        for (int64_t k = -span; k <= span; ++k)
            probeK(k);
    } else {
        for (int64_t k : {-span, -span + 1, int64_t{-1}, int64_t{0},
                          span - 1, span})
            probeK(k);
        for (int i = 0; i < 600; ++i)
            probeK(static_cast<int64_t>(rng.uniformInt(
                       static_cast<uint64_t>(2 * span + 1))) - span);
    }
    for (const float q : {4194303.5f, 0x1p22f, 8388607.5f, 0x1p23f,
                          0x1p24f, 0x1p31f, 0x1p62f, 0x1p63f, 0x1p64f,
                          0x1.5fd1p+107f, 0x1p127f}) {
        near(q * scale);
        near(-q * scale);
    }
    for (const float x : {0.0f, -0.0f,
                          std::numeric_limits<float>::denorm_min(),
                          -std::numeric_limits<float>::denorm_min(),
                          std::numeric_limits<float>::min(),
                          std::numeric_limits<float>::max(),
                          -std::numeric_limits<float>::max(), inf, -inf,
                          std::numeric_limits<float>::quiet_NaN()})
        v.push_back(x);
    for (int i = 0; i < 200; ++i)
        v.push_back(static_cast<float>(
            rng.uniform(-1.0, 1.0) * static_cast<double>(span) * scale));
    return v;
}

/** Scales: unit, awkward, power of two, subnormal, tiny and huge. */
const float kProbeScales[] = {1.0f,    0.0137f, 0x1p-3f,
                              std::numeric_limits<float>::denorm_min(),
                              1e-30f,  3e37f};

TEST(QuantizeKernel, SharedRuleIsLroundBelow2To63AndSaturatesAbove)
{
    // quantizeCode clamps the quotient to ±(levels + 1) before it
    // rounds: bit for bit the old std::lround rule wherever that was
    // defined, and saturation where std::lround overflowed (2^63 and
    // up, which coded as LONG_MIN, the most negative code).  NaN codes
    // -levels on every backend.
    Rng rng(0x0C0DEu);
    for (int bits = 2; bits <= 16; ++bits) {
        const int32_t levels = (int32_t{1} << (bits - 1)) - 1;
        for (const float scale : kProbeScales) {
            SCOPED_TRACE("bits=" + std::to_string(bits) +
                         " scale=" + std::to_string(scale));
            for (const float v : quantizerProbes(levels, scale, rng)) {
                const int32_t got = gemmk::quantizeCode(v, scale, levels);
                if (std::isnan(v / scale))
                    EXPECT_EQ(got, -levels);
                else
                    ASSERT_EQ(got, lroundCode(v, scale, levels))
                        << "v=" << v;
            }
        }
    }
    // The overflow the clamp removes: at scale 1 and 2 bits, a
    // quotient of 0x1.5fd1p+107 coded as -1.
    const quant::Quantizer two_bits{2, 1.0f};
    EXPECT_EQ(two_bits.code(0x1.5fd1p+107f), 1);
}

/** CodeCounts and drive of @p codes, the slow way. */
void
naiveCounts(const std::vector<int32_t> &codes, gemmk::CodeCounts &cc,
            std::vector<int64_t> &drive)
{
    for (size_t j = 0; j < codes.size(); ++j) {
        const int32_t c = codes[j];
        const int32_t mag = std::abs(c);
        cc.spikes += std::popcount(static_cast<uint32_t>(mag));
        cc.pos_sum += std::max(c, 0);
        cc.neg_sum += std::max(-c, 0);
        cc.max_abs = std::max(cc.max_abs, mag);
        drive[j] += mag;
    }
}

void
expectSameCounts(const gemmk::CodeCounts &got,
                 const gemmk::CodeCounts &want)
{
    EXPECT_EQ(got.spikes, want.spikes);
    EXPECT_EQ(got.pos_sum, want.pos_sum);
    EXPECT_EQ(got.neg_sum, want.neg_sum);
    EXPECT_EQ(got.max_abs, want.max_abs);
}

TEST(QuantizeKernel, EveryTableMatchesTheSharedRule)
{
    // Every compiled table's quantize_i32, with and without counts, on
    // every span of 0 to 40 probes at three alignments (the vector
    // bodies and their scalar tails), against quantizeCode value by
    // value and the counts recomputed from its codes.  Counts add into
    // what the caller passes, and drive adds into a non-zero start.
    Rng rng(0x9A17u);
    for (const isa::Target target : isa::availableTargets()) {
        const gemmk::Kernels &kern = gemmk::kernelsFor(target);
        for (int bits = 2; bits <= 16; ++bits) {
            const int32_t levels = (int32_t{1} << (bits - 1)) - 1;
            for (const float scale : kProbeScales) {
                SCOPED_TRACE(std::string("isa=") + isa::name(target) +
                             " bits=" + std::to_string(bits) +
                             " scale=" + std::to_string(scale));
                std::vector<float> x = quantizerProbes(levels, scale, rng);
                for (size_t i = x.size() - 1; i > 0; --i)
                    std::swap(x[i], x[static_cast<size_t>(
                                        rng.uniformInt(i + 1))]);
                std::vector<int32_t> want(x.size());
                for (size_t j = 0; j < x.size(); ++j)
                    want[j] = gemmk::quantizeCode(x[j], scale, levels);
                for (int64_t n = 0; n <= 40; ++n) {
                    for (const int64_t off : {int64_t{0}, int64_t{1},
                                              int64_t{3} + n}) {
                        const std::vector<int32_t> ref(
                            want.begin() + off, want.begin() + off + n);
                        std::vector<int32_t> codes(
                            static_cast<size_t>(n), 12345);
                        kern.quantize_i32(x.data() + off, n, scale, levels,
                                          codes.data(), nullptr, nullptr);
                        ASSERT_EQ(codes, ref) << "n=" << n
                                              << " off=" << off;

                        gemmk::CodeCounts cc{3, 5, 7, 1};
                        gemmk::CodeCounts want_cc = cc;
                        std::vector<int64_t> drive(static_cast<size_t>(n));
                        for (int64_t j = 0; j < n; ++j)
                            drive[static_cast<size_t>(j)] = 100 * j - 7;
                        std::vector<int64_t> want_drive = drive;
                        naiveCounts(ref, want_cc, want_drive);
                        codes.assign(static_cast<size_t>(n), 12345);
                        kern.quantize_i32(x.data() + off, n, scale, levels,
                                          codes.data(), &cc, drive.data());
                        ASSERT_EQ(codes, ref);
                        expectSameCounts(cc, want_cc);
                        EXPECT_EQ(drive, want_drive);

                        gemmk::CodeCounts only{};
                        gemmk::CodeCounts want_only{};
                        std::vector<int64_t> unused(static_cast<size_t>(n));
                        naiveCounts(ref, want_only, unused);
                        kern.quantize_i32(x.data() + off, n, scale, levels,
                                          codes.data(), &only, nullptr);
                        expectSameCounts(only, want_only);
                    }
                }
            }
        }
        // A span long enough that the dword lane sums are flushed into
        // int64 several times, every code at ±levels.
        const int32_t levels = 32767;
        const int64_t n = (int64_t{1} << 21) + 37;
        std::vector<float> x(static_cast<size_t>(n));
        for (int64_t j = 0; j < n; ++j)
            x[static_cast<size_t>(j)] = j % 3 == 0 ? -1e9f : 1e9f;
        std::vector<int32_t> codes(static_cast<size_t>(n));
        gemmk::CodeCounts cc{};
        kern.quantize_i32(x.data(), n, 1.0f, levels, codes.data(), &cc,
                          nullptr);
        const int64_t negs = (n + 2) / 3;
        EXPECT_EQ(cc.spikes, 15 * n);
        EXPECT_EQ(cc.neg_sum, negs * levels);
        EXPECT_EQ(cc.pos_sum, (n - negs) * levels);
        EXPECT_EQ(cc.max_abs, levels);
    }
}

TEST(QuantizeKernel, AbsmaxMatchesTheScalarScan)
{
    // Every table's absmax_f32 returns the bits of the scalar scan and
    // flags NaN and ±inf wherever they sit in the span.
    Rng rng(0xAB5u);
    const float specials[] = {
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity()};
    for (const isa::Target target : isa::availableTargets()) {
        SCOPED_TRACE(std::string("isa=") + isa::name(target));
        const gemmk::Kernels &kern = gemmk::kernelsFor(target);
        for (int64_t n = 0; n <= 70; ++n) {
            for (int trial = 0; trial < 8; ++trial) {
                std::vector<float> x(static_cast<size_t>(n));
                for (float &v : x) {
                    const double pick = rng.uniform();
                    v = pick < 0.1   ? -0.0f
                        : pick < 0.2 ? std::numeric_limits<float>::denorm_min()
                        : pick < 0.3 ? -std::numeric_limits<float>::max()
                                     : static_cast<float>(std::ldexp(
                                           rng.uniform(-1.0, 1.0),
                                           static_cast<int>(
                                               rng.uniformInt(80)) - 40));
                }
                if (trial % 2 == 1 && n > 0)
                    x[static_cast<size_t>(rng.uniformInt(
                        static_cast<uint64_t>(n)))] = specials[trial % 3];
                bool want_bad = false;
                const float want =
                    gemmk::absmaxTail(x.data(), 0, n, 0.0f, want_bad);
                bool bad = !want_bad;
                const float got = kern.absmax_f32(x.data(), n, &bad);
                EXPECT_EQ(std::bit_cast<uint32_t>(got),
                          std::bit_cast<uint32_t>(want))
                    << "n=" << n;
                EXPECT_EQ(bad, want_bad) << "n=" << n;
                EXPECT_EQ(std::bit_cast<uint32_t>(
                              kern.absmax_f32(x.data(), n, nullptr)),
                          std::bit_cast<uint32_t>(want));
            }
        }
    }
}

TEST(QuantizeKernel, CountsMatchSpikeBlock)
{
    // What quantize_i32 counts for a tile row, per window, against the
    // x⁺ and x⁻ SpikeBlocks built from the same codes: the spikes, each
    // block's largest window sum and the word lines' drive.
    Rng rng(0x5B10u);
    for (const isa::Target target : isa::availableTargets()) {
        SCOPED_TRACE(std::string("isa=") + isa::name(target));
        const gemmk::Kernels &kern = gemmk::kernelsFor(target);
        for (int iter = 0; iter < 200; ++iter) {
            const int bits = 2 + static_cast<int>(rng.uniformInt(15));
            const int32_t levels = (int32_t{1} << (bits - 1)) - 1;
            const auto batch = 1 + static_cast<int64_t>(rng.uniformInt(9));
            const auto rows = 1 + static_cast<int64_t>(rng.uniformInt(140));
            const Tensor x = mixedWindows(batch, rows, 1 + rows / 3, rng);
            std::vector<int32_t> codes(static_cast<size_t>(batch * rows));
            std::vector<int64_t> drive(static_cast<size_t>(rows), 0);
            int64_t spikes = 0, max_sum[2] = {0, 0};
            std::vector<int64_t> blocks[2];
            int64_t selected[2] = {0, 0};
            for (int64_t b = 0; b < batch; ++b) {
                const float *in = x.data() + b * rows;
                const float scale =
                    quant::Quantizer::forTensor(
                        {in, static_cast<size_t>(rows)}, bits)
                        .scale;
                gemmk::CodeCounts cc{};
                int32_t *c = codes.data() + b * rows;
                kern.quantize_i32(in, rows, scale, levels, c, &cc,
                                  drive.data());
                spikes += cc.spikes;
                max_sum[0] = std::max(max_sum[0], cc.pos_sum);
                max_sum[1] = std::max(max_sum[1], cc.neg_sum);
                for (int s = 0; s < 2; ++s) {
                    if ((s == 0 ? cc.pos_sum : cc.neg_sum) == 0)
                        continue;
                    ++selected[s];
                    for (int64_t r = 0; r < rows; ++r)
                        blocks[s].push_back(
                            std::max<int64_t>(s == 0 ? c[r] : -c[r], 0));
                }
            }
            int64_t block_spikes = 0;
            std::vector<int64_t> row_sums(static_cast<size_t>(rows), 0);
            for (int s = 0; s < 2; ++s) {
                if (selected[s] == 0) {
                    EXPECT_EQ(max_sum[s], 0);
                    continue;
                }
                const reram::SpikeBlock block(blocks[s].data(), selected[s],
                                              rows, bits);
                block_spikes += block.spikes;
                EXPECT_EQ(max_sum[s], block.max_window_sum);
                for (int64_t r = 0; r < rows; ++r)
                    row_sums[static_cast<size_t>(r)] +=
                        block.row_sums[static_cast<size_t>(r)];
            }
            EXPECT_EQ(spikes, block_spikes);
            EXPECT_EQ(drive, row_sums);
        }
    }
}

TEST(SpikeDriverMemo, MemoizedTablesMatchOnTheFlyEncoding)
{
    for (int bits : {1, 4, reram::SpikeDriver::kMemoBits}) {
        const reram::SpikeDriver driver(bits);
        for (int64_t code = 0; code < (int64_t{1} << bits); ++code) {
            const reram::SpikeTrain train = driver.encode(code);
            EXPECT_EQ(train.value(), code);
            EXPECT_EQ(train.bits(), bits);
            const reram::SpikeTrain *memo = driver.memoized(code);
            ASSERT_NE(memo, nullptr);
            EXPECT_EQ(memo->slots, train.slots);
        }
    }
    // Above the memo limit: no table, encode still exact.
    const reram::SpikeDriver wide(16);
    EXPECT_EQ(wide.memoized(12345), nullptr);
    EXPECT_EQ(wide.encode(12345).value(), 12345);
}

// ---------------------------------------------------------------------
// Per-thread scratch
// ---------------------------------------------------------------------

TEST(Arena, SpansAreAlignedAndDisjoint)
{
    // Every span starts on a 64-byte line and the spans of one call
    // follow each other without overlap: each is filled with its own
    // value and read back intact (and ASan sees any overrun).
    const int64_t sizes[] = {0, 1, 7, 16, 100};
    for (const int64_t a : sizes) {
        for (const int64_t b : sizes) {
            for (const int64_t c : sizes) {
                const int64_t n[] = {a, b, c};
                const arena::Scratch scratch({a, b, c});
                for (size_t i = 0; i < 3; ++i) {
                    EXPECT_EQ(reinterpret_cast<uintptr_t>(scratch[i]) %
                                  arena::kAlign,
                              0u);
                    if (i > 0) {
                        EXPECT_GE(scratch[i], scratch[i - 1] + n[i - 1]);
                    }
                    std::fill(scratch[i], scratch[i] + n[i],
                              static_cast<float>(i + 1));
                }
                for (size_t i = 0; i < 3; ++i)
                    for (int64_t k = 0; k < n[i]; ++k)
                        ASSERT_EQ(scratch[i][k], static_cast<float>(i + 1));
            }
        }
    }
    // Three spans of 400 bytes take three whole 448-byte line runs.
    EXPECT_GE(arena::peakBytes(), 3u * 448u);
}

TEST(Arena, SteadyStateReusesTheBuffer)
{
    // Once the buffer has grown to a call's footprint, the same call,
    // and any smaller one, gets the same memory back: the steady
    // state allocates nothing.
    uintptr_t grown = 0;
    {
        const arena::Scratch scratch({int64_t{1} << 16, 300});
        grown = reinterpret_cast<uintptr_t>(scratch[0]);
    }
    for (int i = 0; i < 3; ++i) {
        const arena::Scratch scratch({int64_t{1} << 16, 300});
        EXPECT_EQ(reinterpret_cast<uintptr_t>(scratch[0]), grown);
    }
    const arena::Scratch smaller({12});
    EXPECT_EQ(reinterpret_cast<uintptr_t>(smaller[0]), grown);
}

TEST(ArenaDeathTest, SecondLiveScratchOnOneThreadPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            const arena::Scratch outer({8});
            const arena::Scratch inner({8});
        },
        "second live scratch");
}

TEST(Arena, SteadyStatePeakStabilises)
{
    // The first pass through a working set grows the arena; repeating
    // the identical workload must not move the high-water mark — the
    // "zero steady-state allocation" property the trainer stat
    // (arena.bytes_peak) makes observable.
    Rng rng(0x5EEDu);
    const Tensor input = randomTensor({4, 16, 16}, rng);
    const Tensor kernel = randomTensor({6, 4, 3, 3}, rng);
    const Tensor bias = randomTensor({6}, rng);
    const Tensor delta = randomTensor({6, 16, 16}, rng);

    auto workload = [&] {
        (void)ops::conv2d(input, kernel, bias, 1, 1);
        (void)ops::conv2dBackwardKernel(input, delta, 3, 3, 1);
    };
    workload();
    const size_t peak_after_first = arena::peakBytes();
    for (int i = 0; i < 3; ++i)
        workload();
    EXPECT_EQ(arena::peakBytes(), peak_after_first);
    EXPECT_GT(peak_after_first, 0u);
}

} // namespace
} // namespace pipelayer
