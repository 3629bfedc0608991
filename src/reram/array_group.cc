#include "reram/array_group.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "quant/quantize.hh"

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
    n_out_ = weight.dim(0);
    m_in_ = weight.dim(1);
    tiles_r_ = ceilDiv(m_in_, params_.array_rows);
    tiles_c_ = ceilDiv(n_out_, params_.array_cols);

    // Quantise the weights to signed data_bits codes.
    const quant::Quantizer q =
        quant::Quantizer::forTensor(weight, params_.data_bits);
    weight_scale_ = q.scale;
    codes_.resize(static_cast<size_t>(n_out_ * m_in_));
    for (int64_t i = 0; i < n_out_; ++i)
        for (int64_t j = 0; j < m_in_; ++j)
            codes_[static_cast<size_t>(i * m_in_ + j)] =
                static_cast<int32_t>(q.code(weight(i, j)));

    // Allocate the pos/neg x slice x tile subarrays, each with its
    // own variation stream (distinct instance seeds).
    const int groups = params_.sliceGroups();
    uint64_t instance = weight.numel() > 0
        ? static_cast<uint64_t>(n_out_ * 131071 + m_in_)
        : 0;
    arrays_.resize(2);
    for (int sign = 0; sign < 2; ++sign) {
        arrays_[static_cast<size_t>(sign)].resize(
            static_cast<size_t>(groups));
        for (int g = 0; g < groups; ++g) {
            auto &tiles = arrays_[static_cast<size_t>(sign)]
                                 [static_cast<size_t>(g)];
            tiles.reserve(static_cast<size_t>(tiles_r_ * tiles_c_));
            for (int64_t t = 0; t < tiles_r_ * tiles_c_; ++t) {
                tiles.push_back(std::make_unique<CrossbarArray>(
                    params_, instance++));
            }
        }
    }
    programCodes();
}

void
ArrayGroup::programCodes()
{
    const int groups = params_.sliceGroups();
    const int64_t slice_mask = params_.maxCellCode();

    for (int64_t i = 0; i < n_out_; ++i) {
        for (int64_t j = 0; j < m_in_; ++j) {
            const int64_t code = codes_[static_cast<size_t>(i * m_in_ + j)];
            const int64_t mag = std::llabs(code);
            const int sign = code < 0 ? 1 : 0;
            const int64_t tr = j / params_.array_rows;
            const int64_t tc = i / params_.array_cols;
            const int64_t row = j % params_.array_rows;
            const int64_t col = i % params_.array_cols;
            for (int g = 0; g < groups; ++g) {
                const int64_t slice =
                    (mag >> (g * params_.cell_bits)) & slice_mask;
                // Program the magnitude into the sign's arrays and
                // zero into the opposite sign's arrays so updates
                // that flip a weight's sign are handled.
                arrays_[static_cast<size_t>(sign)][static_cast<size_t>(g)]
                       [static_cast<size_t>(tr * tiles_c_ + tc)]
                           ->programCell(row, col, slice);
                arrays_[static_cast<size_t>(1 - sign)]
                       [static_cast<size_t>(g)]
                       [static_cast<size_t>(tr * tiles_c_ + tc)]
                           ->programCell(row, col, 0);
            }
        }
    }
}

int64_t
ArrayGroup::arrayCount() const
{
    return 2 * params_.sliceGroups() * tiles_r_ * tiles_c_;
}

void
ArrayGroup::signedPassBatch(bool positive,
                            const std::vector<int64_t> &codes,
                            const std::vector<int64_t> &windows,
                            int64_t *out)
{
    if (windows.empty())
        return;
    const int groups = params_.sliceGroups();
    const size_t sign = positive ? 0 : 1;
    const int64_t a_rows = params_.array_rows;
    const int64_t a_cols = params_.array_cols;

    std::vector<int64_t> sel;    //!< windows driving this tile row
    std::vector<int64_t> packed; //!< their chunks, sel.size() x used
    std::vector<int64_t> counts; //!< batch outputs, sel.size() x a_cols
    for (int64_t tr = 0; tr < tiles_r_; ++tr) {
        // Chunk of each window's codes feeding this tile row.  A
        // window whose chunk is all zero drives no word line and is
        // dropped from the batch — the same per-(window, tile-row)
        // skip the looped path takes, so activity counts match it
        // exactly.  Ascending window order keeps the per-array call
        // order of the loop.  Every array of the tile row sees the
        // same chunks, so they are range-checked and spike-counted
        // once (SpikeBlock), not once per array.
        const int64_t row0 = tr * a_rows;
        const int64_t row1 = std::min(row0 + a_rows, m_in_);
        const int64_t used = row1 - row0;
        sel.clear();
        packed.clear();
        for (int64_t w : windows) {
            const int64_t *wc = codes.data() + w * m_in_;
            bool all_zero = true;
            for (int64_t r = row0; r < row1; ++r)
                all_zero &= (wc[r] == 0);
            if (all_zero)
                continue;
            sel.push_back(w);
            packed.insert(packed.end(), wc + row0, wc + row1);
        }
        if (sel.empty())
            continue;
        const auto nsel = static_cast<int64_t>(sel.size());
        counts.resize(static_cast<size_t>(nsel * a_cols));
        const SpikeBlock block(packed.data(), nsel, used,
                               params_.data_bits);

        for (int64_t tc = 0; tc < tiles_c_; ++tc) {
            const int64_t col0 = tc * a_cols;
            for (int g = 0; g < groups; ++g) {
                auto &array = *arrays_[sign][static_cast<size_t>(g)]
                    [static_cast<size_t>(tr * tiles_c_ + tc)];
                array.matVecCodesBatch(block, counts.data());
                // Shift-add each window's slice result (Fig. 14a);
                // counts past the live bit lines are zero.
                const int64_t col1 =
                    std::min(col0 + array.liveCols(), n_out_);
                const int64_t shift = g * params_.cell_bits;
                for (int64_t s = 0; s < nsel; ++s) {
                    int64_t *out_w = out + sel[s] * n_out_;
                    const int64_t *cnt = counts.data() + s * a_cols;
                    for (int64_t c = col0; c < col1; ++c)
                        out_w[c] += cnt[c - col0] << shift;
                }
            }
        }
    }
}

Tensor
ArrayGroup::matVec(const Tensor &x)
{
    PL_ASSERT(x.rank() == 1 && x.dim(0) == m_in_,
              "matVec input must be (%lld), got %s", (long long)m_in_,
              shapeToString(x.shape()).c_str());
    return matVecBatch(x.reshape({1, m_in_})).reshape({n_out_});
}

Tensor
ArrayGroup::matVecBatch(const Tensor &x)
{
    PL_ASSERT(x.rank() == 2 && x.dim(1) == m_in_,
              "matVecBatch input must be (batch, %lld), got %s",
              (long long)m_in_, shapeToString(x.shape()).c_str());
    const int64_t batch = x.dim(0);
    PL_ASSERT(batch >= 1, "empty batch");

    // Quantise each window to data_bits codes (signed) with its own
    // scale — exactly the per-call quantisation of the looped path.
    const auto nb = static_cast<size_t>(batch);
    std::vector<int64_t> pos_codes(nb * static_cast<size_t>(m_in_), 0);
    std::vector<int64_t> neg_codes(nb * static_cast<size_t>(m_in_), 0);
    std::vector<float> scales(nb);
    std::vector<int64_t> all_windows(nb);
    std::vector<int64_t> neg_windows;
    Tensor row({m_in_});
    for (int64_t b = 0; b < batch; ++b) {
        for (int64_t j = 0; j < m_in_; ++j)
            row(j) = x(b, j);
        const quant::Quantizer qx =
            quant::Quantizer::forTensor(row, params_.data_bits);
        scales[static_cast<size_t>(b)] = weight_scale_ * qx.scale;
        all_windows[static_cast<size_t>(b)] = b;
        bool any_neg = false;
        const size_t base = static_cast<size_t>(b * m_in_);
        for (int64_t j = 0; j < m_in_; ++j) {
            const int64_t code = qx.code(row(j));
            if (code >= 0) {
                pos_codes[base + static_cast<size_t>(j)] = code;
            } else {
                neg_codes[base + static_cast<size_t>(j)] = -code;
                any_neg = true;
            }
        }
        if (any_neg)
            neg_windows.push_back(b);
    }

    // Four partial results per window: (W⁺ - W⁻)(x⁺ - x⁻).  Negative
    // passes run only for windows that actually have negative inputs.
    const size_t total = nb * static_cast<size_t>(n_out_);
    std::vector<int64_t> pp(total, 0), np(total, 0);
    std::vector<int64_t> pn(total, 0), nn(total, 0);
    signedPassBatch(true, pos_codes, all_windows, pp.data());
    signedPassBatch(false, pos_codes, all_windows, np.data());
    signedPassBatch(true, neg_codes, neg_windows, pn.data());
    signedPassBatch(false, neg_codes, neg_windows, nn.data());

    Tensor out({batch, n_out_});
    for (int64_t b = 0; b < batch; ++b) {
        const float scale = scales[static_cast<size_t>(b)];
        const size_t base = static_cast<size_t>(b * n_out_);
        for (int64_t c = 0; c < n_out_; ++c) {
            const int64_t acc = pp[base + static_cast<size_t>(c)] -
                                np[base + static_cast<size_t>(c)] -
                                pn[base + static_cast<size_t>(c)] +
                                nn[base + static_cast<size_t>(c)];
            out(b, c) = static_cast<float>(acc) * scale;
        }
    }
    return out;
}

Tensor
ArrayGroup::readWeights() const
{
    Tensor out({n_out_, m_in_});
    const int groups = params_.sliceGroups();
    for (int64_t i = 0; i < n_out_; ++i) {
        for (int64_t j = 0; j < m_in_; ++j) {
            const int64_t tr = j / params_.array_rows;
            const int64_t tc = i / params_.array_cols;
            const int64_t row = j % params_.array_rows;
            const int64_t col = i % params_.array_cols;
            int64_t pos = 0, neg = 0;
            for (int g = 0; g < groups; ++g) {
                const int64_t shift = g * params_.cell_bits;
                pos += arrays_[0][static_cast<size_t>(g)]
                              [static_cast<size_t>(tr * tiles_c_ + tc)]
                                  ->cell(row, col) << shift;
                neg += arrays_[1][static_cast<size_t>(g)]
                              [static_cast<size_t>(tr * tiles_c_ + tc)]
                                  ->cell(row, col) << shift;
            }
            out(i, j) = static_cast<float>(pos - neg) * weight_scale_;
        }
    }
    return out;
}

void
ArrayGroup::updateWeights(const Tensor &grad, float lr, int64_t batch_size)
{
    PL_ASSERT(grad.rank() == 2 && grad.dim(0) == n_out_ &&
              grad.dim(1) == m_in_, "gradient shape mismatch");
    PL_ASSERT(batch_size > 0, "batch size must be positive");

    // new = old - lr * (1/B) Σ grad, computed in the code domain.
    const float step = lr / static_cast<float>(batch_size);
    const int64_t max_code =
        (int64_t{1} << (params_.data_bits - 1)) - 1;
    for (int64_t i = 0; i < n_out_; ++i) {
        for (int64_t j = 0; j < m_in_; ++j) {
            const float delta = step * grad(i, j);
            const auto delta_code = static_cast<int64_t>(
                std::lround(delta / weight_scale_));
            int32_t &code = codes_[static_cast<size_t>(i * m_in_ + j)];
            code = static_cast<int32_t>(
                std::clamp(code - delta_code, -max_code, max_code));
        }
    }
    programCodes();
}

ArrayActivity
ArrayGroup::totalActivity() const
{
    ArrayActivity total;
    for (const auto &sign : arrays_)
        for (const auto &slice : sign)
            for (const auto &array : slice)
                total += array->activity();
    return total;
}

} // namespace reram
} // namespace pipelayer
