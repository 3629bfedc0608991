/**
 * @file
 * ArrayGroup: a logical weight matrix mapped onto ReRAM subarrays.
 *
 * Combines three mapping mechanisms from the paper:
 *  - tiling (§3.2.3, Fig. 5): a large matrix is decomposed into
 *    array-sized tiles; tile outputs are concatenated horizontally
 *    and summed vertically;
 *  - positive/negative subarrays (§4.2.3): signed weights are split
 *    into two non-negative arrays whose outputs are subtracted by the
 *    activation unit;
 *  - resolution compensation (§5.1, Fig. 14): 16-bit weight codes are
 *    bit-sliced into data_bits/cell_bits groups of cell_bits-wide
 *    cells; group outputs are shifted and added.
 *
 * The arrays of one tile row (every tile column and slice group of a
 * sign) share their word-line inputs, so each sign pass range-checks
 * and spike-counts a tile row's input codes once (SpikeBlock) and
 * drives all of those arrays with it.
 *
 * Signed *inputs* (backward errors δ) are handled by sign-splitting
 * the input stream into two passes, x = x⁺ - x⁻, doubling the input
 * time slots; the forward path after ReLU never needs this.
 */

#ifndef PIPELAYER_RERAM_ARRAY_GROUP_HH_
#define PIPELAYER_RERAM_ARRAY_GROUP_HH_

#include <cstdint>
#include <memory>
#include <vector>

#include "reram/crossbar.hh"
#include "reram/params.hh"
#include "tensor/tensor.hh"

namespace pipelayer {
namespace reram {

/**
 * A weight matrix W of shape (n_out, m_in) held in ReRAM, supporting
 * compute-mode matrix-vector products and in-place weight updates.
 */
class ArrayGroup
{
  public:
    /**
     * Quantise @p weight to @c params.data_bits and program it into
     * pos/neg bit-sliced tiled subarrays.  Throws ConfigError when
     * @p params do not validate (DeviceParams::validate()).
     *
     * @param weight (n_out, m_in) float matrix.
     */
    ArrayGroup(const DeviceParams &params, const Tensor &weight);

    int64_t inputSize() const { return m_in_; }
    int64_t outputSize() const { return n_out_; }

    /** Number of physical subarrays backing this matrix. */
    int64_t arrayCount() const;

    /**
     * Matrix-vector products through the functional crossbars: each
     * row of @p x is one input window of a logical cycle (paper
     * §4.2.1), quantised to data_bits codes with its own per-window
     * scale, with all windows sharing one pass over every crossbar's
     * cells (CrossbarArray::matVecCodesBatch).  A window's output and
     * activity do not depend on the other windows of the batch.
     *
     * @param x (batch, m_in) float matrix, batch >= 1; entries may be
     *        negative (handled by a second sign pass).
     * @return (batch, n_out) float matrix, row b ≈
     *         W_quantised · x_quantised[b].
     */
    Tensor matVecBatch(const Tensor &x);

    /**
     * Reconstruct the float weights currently stored in the arrays
     * (reading cells in memory mode and recombining the slices).
     */
    Tensor readWeights() const;

    /**
     * In-place weight update W <- W - (1/batch) * grad * lr
     * (paper §4.4.2: old weights are read, the averaged partial
     * derivative subtracted, and the result written back).
     */
    void updateWeights(const Tensor &grad, float lr, int64_t batch_size);

    /** Combined activity of every subarray in the group. */
    ArrayActivity totalActivity() const;

    /** Step size of the stored weight quantisation. */
    float weightScale() const { return weight_scale_; }

  private:
    /** Program the current signed codes into the pos/neg slices. */
    void programCodes();

    /**
     * One sign pass over a batch of windows: accumulate W⁺·x or W⁻·x
     * (shift-added across bit-slice groups) into the listed windows'
     * rows of @p out.
     *
     * @param codes   row-major (batch, m_in) non-negative input codes.
     * @param windows ascending indices of the windows this pass drives
     *        (negative passes run only for windows with negative
     *        inputs).
     * @param out     row-major (batch, n_out) accumulator, pre-zeroed
     *        by the caller.
     */
    void signedPassBatch(bool positive,
                         const std::vector<int64_t> &codes,
                         const std::vector<int64_t> &windows,
                         int64_t *out);

    DeviceParams params_;
    int64_t n_out_, m_in_;
    int64_t tiles_r_, tiles_c_; //!< tile grid: rows x cols of subarrays
    float weight_scale_;
    /** Signed data_bits weight codes, (n, m); data_bits <= 32. */
    std::vector<int32_t> codes_;

    /**
     * arrays_[sign][slice][tile_r * tiles_c_ + tile_c]:
     * sign 0 = positive weights, 1 = negative magnitudes.
     */
    std::vector<std::vector<std::vector<std::unique_ptr<CrossbarArray>>>>
        arrays_;
};

} // namespace reram
} // namespace pipelayer

#endif // PIPELAYER_RERAM_ARRAY_GROUP_HH_
