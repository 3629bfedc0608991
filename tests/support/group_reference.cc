#include "support/group_reference.hh"

#include <algorithm>
#include <span>
#include <vector>

#include "quant/quantize.hh"

namespace pipelayer {
namespace reram {

namespace {

/**
 * out[b][c] = Σ_g slices[g].matVecCodesBatch(block)[b][c] <<
 * (g·cell_bits); returns 1 + the highest live bit line of any slice.
 */
int64_t
tileBatch(std::span<CrossbarArray> slices, int cell_bits,
          const SpikeBlock &block, int64_t *out)
{
    const int64_t cols = slices.front().cols();
    std::fill(out, out + block.batch * cols, int64_t{0});
    std::vector<int64_t> counts(static_cast<size_t>(block.batch * cols));
    int64_t live = 0;
    for (size_t g = 0; g < slices.size(); ++g) {
        CrossbarArray &array = slices[g];
        array.matVecCodesBatch(block, counts.data());
        // Counts past the live bit lines are zero.
        const int64_t shift = static_cast<int64_t>(g) * cell_bits;
        for (int64_t b = 0; b < block.batch; ++b)
            for (int64_t c = 0; c < array.liveCols(); ++c)
                out[b * cols + c] +=
                    counts[static_cast<size_t>(b * cols + c)] << shift;
        live = std::max(live, array.liveCols());
    }
    return live;
}

} // namespace

Tensor
referenceMatVecBatch(ArrayGroup &group, const Tensor &x)
{
    const DeviceParams &p = group.params();
    const int64_t m_in = group.inputSize();
    const int64_t n_out = group.outputSize();
    const int64_t batch = x.dim(0);
    const int64_t a_rows = p.array_rows;
    const int64_t a_cols = p.array_cols;
    const int64_t tiles_r = (m_in + a_rows - 1) / a_rows;
    const int64_t tiles_c = (n_out + a_cols - 1) / a_cols;
    const float *xp = x.data();

    // Per-window scales, then tile row by tile row the x⁺ and x⁻
    // blocks of the windows with a code of that sign in the chunk.
    std::vector<quant::Quantizer> qx;
    for (int64_t b = 0; b < batch; ++b)
        qx.push_back(quant::Quantizer::forTensor(
            {xp + b * m_in, static_cast<size_t>(m_in)}, p.data_bits));
    std::vector<int64_t> acc(static_cast<size_t>(batch * n_out), 0);
    std::vector<int64_t> codes[2];
    std::vector<int64_t> sel[2];
    std::vector<int64_t> counts;
    for (std::vector<int64_t> &block : codes)
        block.resize(static_cast<size_t>(batch * std::min(a_rows, m_in)));
    for (int64_t tr = 0; tr < tiles_r; ++tr) {
        const int64_t row0 = tr * a_rows;
        const int64_t used = std::min(a_rows, m_in - row0);
        sel[0].clear();
        sel[1].clear();
        for (int64_t b = 0; b < batch; ++b) {
            const quant::Quantizer &q = qx[static_cast<size_t>(b)];
            const float *in = xp + b * m_in + row0;
            int64_t *pos = codes[0].data() +
                           static_cast<int64_t>(sel[0].size()) * used;
            int64_t *neg = codes[1].data() +
                           static_cast<int64_t>(sel[1].size()) * used;
            int64_t any_pos = 0, any_neg = 0;
            for (int64_t r = 0; r < used; ++r) {
                const int64_t code = q.code(in[r]);
                pos[r] = std::max<int64_t>(code, 0);
                neg[r] = std::max<int64_t>(-code, 0);
                any_pos |= pos[r];
                any_neg |= neg[r];
            }
            if (any_pos != 0)
                sel[0].push_back(b);
            if (any_neg != 0)
                sel[1].push_back(b);
        }

        for (int s = 0; s < 2; ++s) {
            if (sel[s].empty())
                continue;
            const auto nsel = static_cast<int64_t>(sel[s].size());
            const SpikeBlock block(codes[s].data(), nsel, used, p.data_bits);
            counts.resize(static_cast<size_t>(nsel * a_cols));
            for (int64_t tc = 0; tc < tiles_c; ++tc) {
                const int64_t col0 = tc * a_cols;
                for (int sign = 0; sign < 2; ++sign) {
                    const int64_t live = tileBatch(
                        group.tileSlices(sign, tr * tiles_c + tc),
                        p.cell_bits, block, counts.data());
                    const int64_t col1 = std::min(col0 + live, n_out);
                    const int64_t scale = sign == s ? 1 : -1;
                    for (int64_t k = 0; k < nsel; ++k) {
                        int64_t *out_w = acc.data() +
                                         sel[s][static_cast<size_t>(k)] *
                                             n_out;
                        const int64_t *cnt = counts.data() + k * a_cols;
                        for (int64_t c = col0; c < col1; ++c)
                            out_w[c] += scale * cnt[c - col0];
                    }
                }
            }
        }
    }

    Tensor out({batch, n_out});
    float *op = out.data();
    for (int64_t b = 0; b < batch; ++b) {
        const float scale =
            group.weightScale() * qx[static_cast<size_t>(b)].scale;
        for (int64_t c = 0; c < n_out; ++c) {
            const auto i = static_cast<size_t>(b * n_out + c);
            op[i] = static_cast<float>(acc[i]) * scale;
        }
    }
    return out;
}

Tensor
referenceReadWeights(const ArrayGroup &group)
{
    const DeviceParams &p = group.params();
    const int64_t m_in = group.inputSize();
    const int64_t n_out = group.outputSize();
    const int64_t a_rows = p.array_rows;
    const int64_t a_cols = p.array_cols;
    const int64_t tiles_c = (n_out + a_cols - 1) / a_cols;
    Tensor out({n_out, m_in});
    for (int64_t r = 0; r < m_in; ++r) {
        for (int64_t c = 0; c < n_out; ++c) {
            const int64_t tile = (r / a_rows) * tiles_c + c / a_cols;
            const int64_t idx = (r % a_rows) * a_cols + c % a_cols;
            const auto pos = group.tileSlices(0, tile);
            const auto neg = group.tileSlices(1, tile);
            int64_t code = 0;
            for (size_t g = 0; g < pos.size(); ++g)
                code += (int64_t{pos[g].cellData()[idx]} -
                         int64_t{neg[g].cellData()[idx]})
                        << (static_cast<int>(g) * p.cell_bits);
            out(c, r) = static_cast<float>(code) * group.weightScale();
        }
    }
    return out;
}

} // namespace reram
} // namespace pipelayer
