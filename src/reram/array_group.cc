#include "reram/array_group.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/prof.hh"
#include "quant/quantize.hh"
#include "tensor/gemm_kernels.hh"

namespace pipelayer {
namespace reram {

namespace {

int64_t
ceilDiv(int64_t a, int64_t b)
{
    return (a + b - 1) / b;
}

} // namespace

ArrayGroup::ArrayGroup(const DeviceParams &params, const Tensor &weight)
    : params_(params)
{
    PL_ASSERT(weight.rank() == 2, "ArrayGroup weight must be a matrix");
    params_.validate();
    // Weights and inputs become data_bits codes through
    // quant::Quantizer, which holds 2..16 bits; a wider code's
    // shifted slice counts would not fit int64.
    if (params_.data_bits < 2 || params_.data_bits > 16) {
        throw ConfigError("device params: data_bits must be an integer "
                          "in [2, 16] for crossbar arrays, got " +
                          std::to_string(params_.data_bits));
    }
    n_out_ = weight.dim(0);
    m_in_ = weight.dim(1);
    tiles_r_ = ceilDiv(m_in_, params_.array_rows);
    tiles_c_ = ceilDiv(n_out_, params_.array_cols);

    // Quantise the weights to signed data_bits codes, one output row
    // at a time into the word-line-major codes_.  A NaN or ±inf weight
    // has no code: it is named, before any array is allocated.
    const gemmk::Kernels &kern = gemmk::activeKernels();
    const float *w = weight.data();
    bool nonfinite = false;
    const float max_abs = kern.absmax_f32(w, weight.numel(), &nonfinite);
    if (nonfinite) {
        const int64_t at = std::find_if(w, w + weight.numel(),
                                        [](float v) {
                                            return !std::isfinite(v);
                                        }) - w;
        throw ConfigError(
            "crossbar weight (" + std::to_string(at / m_in_) + ", " +
            std::to_string(at % m_in_) + ") of a " +
            std::to_string(n_out_) + " x " + std::to_string(m_in_) +
            " matrix is " + std::to_string(w[at]) +
            "; the arrays hold only finite weights");
    }
    const quant::Quantizer q =
        quant::Quantizer::forMaxAbs(max_abs, params_.data_bits);
    weight_scale_ = q.scale;
    const auto levels = static_cast<int32_t>(q.positiveLevels());
    codes_.resize(static_cast<size_t>(n_out_ * m_in_));
    std::vector<int32_t> row(static_cast<size_t>(m_in_));
    for (int64_t c = 0; c < n_out_; ++c) {
        kern.quantize_i32(w + c * m_in_, m_in_, q.scale, levels, row.data(),
                          nullptr, nullptr);
        for (int64_t r = 0; r < m_in_; ++r)
            codes_[static_cast<size_t>(r * n_out_ + c)] =
                row[static_cast<size_t>(r)];
    }
    if (params_.hasVariation())
        stored_.resize(codes_.size());

    // Allocate the pos/neg x tile x slice subarrays, each with its
    // own variation stream: the instance seeds are distinct and count
    // sign by sign, slice by slice, tile by tile.
    const int groups = params_.sliceGroups();
    const int64_t tiles = tiles_r_ * tiles_c_;
    const uint64_t first = weight.numel() > 0
        ? static_cast<uint64_t>(n_out_ * 131071 + m_in_)
        : 0;
    arrays_.reserve(static_cast<size_t>(2 * tiles * groups));
    for (int sign = 0; sign < 2; ++sign)
        for (int64_t t = 0; t < tiles; ++t)
            for (int g = 0; g < groups; ++g)
                arrays_.emplace_back(
                    params_, first + static_cast<uint64_t>(
                                         (sign * groups + g) * tiles + t));
    programCodes();
}

std::span<CrossbarArray>
ArrayGroup::tileSlices(int sign, int64_t tile)
{
    const auto groups = static_cast<size_t>(params_.sliceGroups());
    return std::span<CrossbarArray>(arrays_).subspan(
        static_cast<size_t>(sign * tiles_r_ * tiles_c_ + tile) * groups,
        groups);
}

std::span<const CrossbarArray>
ArrayGroup::tileSlices(int sign, int64_t tile) const
{
    const auto groups = static_cast<size_t>(params_.sliceGroups());
    return std::span<const CrossbarArray>(arrays_).subspan(
        static_cast<size_t>(sign * tiles_r_ * tiles_c_ + tile) * groups,
        groups);
}

void
ArrayGroup::programCodes()
{
    const int groups = params_.sliceGroups();
    const int64_t slice_mask = params_.maxCellCode();
    const int64_t a_rows = params_.array_rows;
    const int64_t a_cols = params_.array_cols;

    // Each array's cells are written bit line by bit line, rows
    // ascending: the order of the variation draws.  A weight's
    // magnitude goes into its sign's slices and zero into the
    // opposite sign's, so updates that flip a sign are handled.
    // runs[(sign * groups + g) * a_rows + row] holds one bit line.
    std::vector<uint8_t> runs(static_cast<size_t>(2 * groups * a_rows));
    for (int64_t tr = 0; tr < tiles_r_; ++tr) {
        const int64_t row0 = tr * a_rows;
        const int64_t used = std::min(a_rows, m_in_ - row0);
        for (int64_t tc = 0; tc < tiles_c_; ++tc) {
            const int64_t col0 = tc * a_cols;
            const int64_t width = std::min(a_cols, n_out_ - col0);
            const int64_t tile = tr * tiles_c_ + tc;
            const std::span<CrossbarArray> pos = tileSlices(0, tile);
            const std::span<CrossbarArray> neg = tileSlices(1, tile);
            for (int64_t col = 0; col < width; ++col) {
                const int64_t first = row0 * n_out_ + col0 + col;
                const int32_t *w = codes_.data() + first;
                for (int64_t row = 0; row < used; ++row) {
                    const int32_t code = w[row * n_out_];
                    const int64_t mag = std::llabs(code);
                    const int sign = code < 0 ? 1 : 0;
                    for (int g = 0; g < groups; ++g) {
                        runs[static_cast<size_t>(
                            (sign * groups + g) * a_rows + row)] =
                            static_cast<uint8_t>(
                                (mag >> (g * params_.cell_bits)) &
                                slice_mask);
                        runs[static_cast<size_t>(
                            ((1 - sign) * groups + g) * a_rows + row)] = 0;
                    }
                }
                for (int sign = 0; sign < 2; ++sign) {
                    const std::span<CrossbarArray> slices =
                        sign == 0 ? pos : neg;
                    for (int g = 0; g < groups; ++g)
                        slices[static_cast<size_t>(g)].programColumn(
                            col, 0,
                            runs.data() + (sign * groups + g) * a_rows,
                            used);
                }
                if (stored_.empty())
                    continue;
                // Write noise and stuck cells: read back what the bit
                // line now holds.
                int32_t *stored = stored_.data() + first;
                for (int64_t row = 0; row < used; ++row) {
                    const int64_t idx = row * a_cols + col;
                    int64_t code = 0;
                    for (size_t g = 0; g < pos.size(); ++g)
                        code += (int64_t{pos[g].cellData()[idx]} -
                                 int64_t{neg[g].cellData()[idx]})
                                << (static_cast<int>(g) * params_.cell_bits);
                    stored[row * n_out_] = static_cast<int32_t>(code);
                }
            }
        }
    }
}

int64_t
ArrayGroup::arrayCount() const
{
    return 2 * params_.sliceGroups() * tiles_r_ * tiles_c_;
}

Tensor
ArrayGroup::matVecBatch(const Tensor &x)
{
    PL_ASSERT(x.rank() == 2 && x.dim(1) == m_in_,
              "matVecBatch input must be (batch, %lld), got %s",
              (long long)m_in_, shapeToString(x.shape()).c_str());
    const int64_t batch = x.dim(0);
    PL_ASSERT(batch >= 1, "empty batch");
    const int64_t a_rows = params_.array_rows;
    const int64_t a_cols = params_.array_cols;
    const int groups = params_.sliceGroups();
    const float *xp = x.data();
    const gemmk::Kernels &kern = gemmk::activeKernels();

    // Each window is quantised to signed data_bits codes with a scale
    // read from its own values, so its codes do not depend on the
    // other windows.  A NaN or ±inf input has no code; the device API
    // rejects it, so only a diverged training gets here.
    std::vector<float> scales(static_cast<size_t>(batch));
    for (int64_t b = 0; b < batch; ++b) {
        bool nonfinite = false;
        const float max_abs =
            kern.absmax_f32(xp + b * m_in_, m_in_, &nonfinite);
        PL_ASSERT(!nonfinite,
                  "non-finite input in window %lld of a %lld x %lld "
                  "crossbar group", (long long)b, (long long)n_out_,
                  (long long)m_in_);
        scales[static_cast<size_t>(b)] =
            quant::Quantizer::forMaxAbs(max_abs, params_.data_bits).scale;
    }
    const auto levels = static_cast<int32_t>(
        quant::Quantizer{params_.data_bits}.positiveLevels());

    // (W⁺ - W⁻)(x⁺ - x⁻) in one integer accumulator.  Tile row by
    // tile row, each window's chunk is quantised once, straight into
    // the signed codes the product reads, and the same pass counts
    // what the x⁺ and x⁻ passes (input sign s = 0 and 1) would drive:
    // their spikes (popcount of each |code|), each pass's code sum and
    // each word line's drive Σ_b |code|.  A window with no code of
    // sign s in the chunk drives no word line in that pass, so a
    // window's activity is the same whatever else the batch holds.
    const int64_t block_rows = std::min(a_rows, m_in_);
    std::vector<int64_t> acc(static_cast<size_t>(batch * n_out_), 0);
    std::vector<int32_t> xs(static_cast<size_t>(batch * block_rows));
    std::vector<gemmk::CodeCounts> tallies(static_cast<size_t>(batch));
    std::vector<int64_t> drive;     //!< Σ_b |code| per word line
    std::vector<int64_t> driven;    //!< word lines some window drives
    std::vector<int64_t> codes[2];  //!< clamp path: x⁺ and x⁻ blocks
    std::vector<int64_t> sel[2];    //!< the windows each block holds
    std::vector<int64_t> counts;    //!< one slice's counts, sel x a_cols

    // A count is at most a window's code sum S times the largest cell
    // code, and a partial sum of the signed product at most (S⁺ + S⁻)
    // times the largest stored magnitude, 2^data_bits - 1.
    const int64_t max_count = (int64_t{1} << params_.counter_bits) - 1;
    const int64_t max_mag = (int64_t{1} << params_.data_bits) - 1;
    for (int64_t tr = 0; tr < tiles_r_; ++tr) {
        const int64_t row0 = tr * a_rows;
        const int64_t used = std::min(a_rows, m_in_ - row0);
        int64_t spikes = 0, windows = 0;
        int64_t max_sum[2] = {0, 0}; //!< each pass's largest window sum
        drive.assign(static_cast<size_t>(used), 0);
        {
            PL_PROF_SCOPE("reram.spike_encode");
            for (int64_t b = 0; b < batch; ++b) {
                gemmk::CodeCounts &cc = tallies[static_cast<size_t>(b)];
                cc = gemmk::CodeCounts{};
                kern.quantize_i32(xp + b * m_in_ + row0, used,
                                  scales[static_cast<size_t>(b)], levels,
                                  xs.data() + b * used, &cc, drive.data());
                spikes += cc.spikes;
                windows += (cc.pos_sum != 0) + (cc.neg_sum != 0);
                max_sum[0] = std::max(max_sum[0], cc.pos_sum);
                max_sum[1] = std::max(max_sum[1], cc.neg_sum);
            }
        }
        if (windows == 0)
            continue;
        const bool exact =
            max_sum[0] <= max_count / params_.maxCellCode() &&
            max_sum[1] <= max_count / params_.maxCellCode() &&
            max_sum[0] + max_sum[1] <=
                std::numeric_limits<int64_t>::max() / max_mag;

        if (exact) {
            // No counter of the row clamps: its outputs are the signed
            // product over the word lines some window drives, and each
            // array tallies the drive it would have counted.
            PL_PROF_SCOPE("reram.crossbar_matvec");
            driven.clear();
            for (int64_t r = 0; r < used; ++r)
                if (drive[static_cast<size_t>(r)] != 0)
                    driven.push_back(r);
            const int32_t *w = storedCodes() + row0 * n_out_;
            const auto nrows = static_cast<int64_t>(driven.size());
            parallel_for(0, n_out_, /*work_per_index=*/nrows * batch,
                         [&](int64_t c0, int64_t c1) {
                kern.gemm_i32_i64(batch, c1 - c0, xs.data(), used, w + c0,
                                  n_out_, driven.data(), nrows,
                                  acc.data() + c0, n_out_);
            });
            for (int64_t tc = 0; tc < tiles_c_; ++tc)
                for (int sign = 0; sign < 2; ++sign)
                    for (CrossbarArray &array :
                         tileSlices(sign, tr * tiles_c_ + tc))
                        array.tallyDrive(spikes, windows, drive);
            continue;
        }

        // A counter could clamp: the windows with a code of sign s form
        // the row's x⁺ (x⁻) block, in ascending order; every slice
        // array sweeps each block (one "reram.crossbar_matvec" each)
        // and its clamped counts are shift-added (Fig. 14a); x⁺ on W⁺
        // and x⁻ on W⁻ add, the cross terms subtract.
        for (int s = 0; s < 2; ++s) {
            sel[s].clear();
            codes[s].clear();
            for (int64_t b = 0; b < batch; ++b) {
                const gemmk::CodeCounts &cc =
                    tallies[static_cast<size_t>(b)];
                if ((s == 0 ? cc.pos_sum : cc.neg_sum) == 0)
                    continue;
                sel[s].push_back(b);
                const int32_t *signed_codes = xs.data() + b * used;
                for (int64_t r = 0; r < used; ++r)
                    codes[s].push_back(std::max<int64_t>(
                        s == 0 ? signed_codes[r] : -signed_codes[r], 0));
            }
            if (sel[s].empty())
                continue;
            const auto nsel = static_cast<int64_t>(sel[s].size());
            const SpikeBlock block(codes[s].data(), nsel, used,
                                   params_.data_bits);
            counts.resize(static_cast<size_t>(nsel * a_cols));
            for (int64_t tc = 0; tc < tiles_c_; ++tc) {
                const int64_t col0 = tc * a_cols;
                for (int sign = 0; sign < 2; ++sign) {
                    const int64_t scale = sign == s ? 1 : -1;
                    const std::span<CrossbarArray> slices =
                        tileSlices(sign, tr * tiles_c_ + tc);
                    for (int g = 0; g < groups; ++g) {
                        CrossbarArray &array = slices[static_cast<size_t>(g)];
                        array.matVecCodesBatch(block, counts.data());
                        // Counts past the live bit lines are zero.
                        const int64_t col1 =
                            std::min(col0 + array.liveCols(), n_out_);
                        const int shift = g * params_.cell_bits;
                        for (int64_t k = 0; k < nsel; ++k) {
                            int64_t *out_w =
                                acc.data() +
                                sel[s][static_cast<size_t>(k)] * n_out_;
                            const int64_t *cnt = counts.data() + k * a_cols;
                            for (int64_t c = col0; c < col1; ++c)
                                out_w[c] += scale * (cnt[c - col0] << shift);
                        }
                    }
                }
            }
        }
    }

    Tensor out({batch, n_out_});
    float *op = out.data();
    for (int64_t b = 0; b < batch; ++b) {
        const float scale = weight_scale_ * scales[static_cast<size_t>(b)];
        for (int64_t c = 0; c < n_out_; ++c) {
            const auto i = static_cast<size_t>(b * n_out_ + c);
            op[i] = static_cast<float>(acc[i]) * scale;
        }
    }
    return out;
}

Tensor
ArrayGroup::readWeights() const
{
    Tensor out({n_out_, m_in_});
    float *o = out.data();
    const int32_t *stored = storedCodes();
    for (int64_t r = 0; r < m_in_; ++r)
        for (int64_t c = 0; c < n_out_; ++c)
            o[c * m_in_ + r] =
                static_cast<float>(stored[r * n_out_ + c]) * weight_scale_;
    return out;
}

void
ArrayGroup::updateWeights(const Tensor &grad, float lr, int64_t batch_size)
{
    PL_ASSERT(grad.rank() == 2 && grad.dim(0) == n_out_ &&
              grad.dim(1) == m_in_, "gradient shape mismatch");
    PL_ASSERT(batch_size > 0, "batch size must be positive");

    // new = old - lr * (1/B) Σ grad, computed in the code domain.  A
    // NaN or ±inf update has no code; a finite one past the code
    // range saturates the weight at ±max_code, in the direction of
    // -Δ: the shared quantiser rule clamps the update's code to
    // ±2·max_code, which already crosses the whole range.
    const float step = lr / static_cast<float>(batch_size);
    bool nonfinite = false;
    const float *g = grad.data();
    gemmk::activeKernels().absmax_f32(g, grad.numel(), &nonfinite);
    PL_ASSERT(std::isfinite(step) && !nonfinite,
              "non-finite update of a %lld x %lld crossbar group",
              (long long)n_out_, (long long)m_in_);
    const int32_t max_code =
        (int32_t{1} << (params_.data_bits - 1)) - 1;
    for (int64_t r = 0; r < m_in_; ++r) {
        for (int64_t c = 0; c < n_out_; ++c) {
            const float delta = step * g[c * m_in_ + r];
            const int32_t delta_code =
                gemmk::quantizeCode(delta, weight_scale_, 2 * max_code);
            int32_t &code = codes_[static_cast<size_t>(r * n_out_ + c)];
            code = std::clamp(code - delta_code, -max_code, max_code);
        }
    }
    programCodes();
}

ArrayActivity
ArrayGroup::totalActivity() const
{
    ArrayActivity total;
    for (const CrossbarArray &array : arrays_)
        total += array.activity();
    return total;
}

} // namespace reram
} // namespace pipelayer
