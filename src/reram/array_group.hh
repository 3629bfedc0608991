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
 * Signed *inputs* (backward errors δ) are handled by sign-splitting
 * the input stream into two passes, x = x⁺ - x⁻, doubling the input
 * time slots; the forward path after ReLU never needs the x⁻ pass.
 *
 * One datapath takes a batch of float windows to shift-added IF
 * counts: each window's chunk of a tile row is quantised once, by the
 * dispatched gemmk::Kernels::quantize_i32, straight into the signed
 * codes x⁺ - x⁻, and the same pass counts the row's spikes, each
 * window's x⁺ and x⁻ code sums and each word line's drive.  The
 * shift-add, the W⁻ subtraction and the x⁻ subtraction are linear, so
 * while no counter of the tile row can clamp its outputs are one
 * signed integer product (W⁺ - W⁻)(x⁺ - x⁻) over the codes the cells
 * store, and every array of the row only tallies that drive; a tile
 * row that could clamp splits the codes into x⁺ and x⁻ blocks
 * (SpikeBlock), drives every slice array with each block and
 * shift-adds the clamped counts (DESIGN.md §7).
 */

#ifndef PIPELAYER_RERAM_ARRAY_GROUP_HH_
#define PIPELAYER_RERAM_ARRAY_GROUP_HH_

#include <cstdint>
#include <span>
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
     * @p params do not validate (DeviceParams::validate()), when
     * data_bits is outside the quantiser's 2..16 bits, or naming the
     * first weight that is NaN or ±inf, before any array is
     * allocated.
     *
     * @param weight (n_out, m_in) float matrix.
     */
    ArrayGroup(const DeviceParams &params, const Tensor &weight);

    int64_t inputSize() const { return m_in_; }
    int64_t outputSize() const { return n_out_; }

    /** Number of physical subarrays backing this matrix. */
    int64_t arrayCount() const;

    const DeviceParams &params() const { return params_; }

    /**
     * The sliceGroups() slice arrays of tile @p tile (= tile_r ·
     * ceil(n_out / array_cols) + tile_c) of weight sign @p sign
     * (0 = positive weights, 1 = negative magnitudes); slice g holds
     * bits [g·cell_bits, (g+1)·cell_bits) of the magnitudes.  Tile
     * (tile_r, tile_c) maps inputs from tile_r·array_rows and outputs
     * from tile_c·array_cols.
     */
    std::span<const CrossbarArray> tileSlices(int sign, int64_t tile) const;

    /**
     * Matrix-vector products through the functional crossbars: each
     * row of @p x is one input window of a logical cycle (paper
     * §4.2.1), quantised to data_bits codes with its own per-window
     * scale, with all windows sharing one product per tile row (or,
     * where a counter could clamp, one sweep per slice array).  A
     * window drives a tile row's x⁺ (x⁻) pass only if its chunk there
     * has a positive (negative) code, so its output and activity do
     * not depend on the other windows of the batch.
     *
     * @param x (batch, m_in) float matrix, batch >= 1; entries may be
     *        negative (handled by a second sign pass) and must be
     *        finite: NaN or ±inf panics, naming the group's shape (the
     *        device API rejects such inputs first).
     * @return (batch, n_out) float matrix, row b ≈
     *         W_quantised · x_quantised[b].
     */
    Tensor matVecBatch(const Tensor &x);

    /**
     * Reconstruct the float weights currently stored in the arrays:
     * the codes the cells hold, recombined from the slices and signs
     * (memory mode), times weightScale().
     */
    Tensor readWeights() const;

    /**
     * In-place weight update W <- W - (1/batch) * grad * lr
     * (paper §4.4.2: old weights are read, the averaged partial
     * derivative subtracted, and the result written back), in whole
     * codes.  An update past the code range saturates the weight at
     * ±(2^(data_bits-1) - 1), in the direction of its -Δ; a NaN or
     * ±inf gradient, learning rate or step panics, naming the
     * group's shape.
     */
    void updateWeights(const Tensor &grad, float lr, int64_t batch_size);

    /** Combined activity of every subarray in the group. */
    ArrayActivity totalActivity() const;

    /** Step size of the stored weight quantisation. */
    float weightScale() const { return weight_scale_; }

  private:
    /**
     * The tile-by-tile oracle (tests/support/group_reference) drives
     * the arrays themselves.  Nothing else may write a slice: the
     * product reads codes_ and stored_, not the cells.
     */
    friend Tensor referenceMatVecBatch(ArrayGroup &group, const Tensor &x);

    /** tileSlices(), writable: the arrays are programmed only here. */
    std::span<CrossbarArray> tileSlices(int sign, int64_t tile);

    /**
     * Program the current signed codes into the pos/neg slices, one
     * bit line of a tile at a time (CrossbarArray::programColumn),
     * reading back into stored_ what each bit line then holds.
     */
    void programCodes();

    /** The codes the cells store, in codes_'s layout. */
    const int32_t *storedCodes() const
    {
        return stored_.empty() ? codes_.data() : stored_.data();
    }

    DeviceParams params_;
    int64_t n_out_, m_in_;
    int64_t tiles_r_, tiles_c_; //!< tile grid: rows x cols of subarrays
    float weight_scale_;
    /**
     * Signed data_bits weight codes, one row of n_out per input (word
     * line), as the arrays hold them: codes_[r * n_out + c] is
     * W[c][r]; data_bits <= 16.
     */
    std::vector<int32_t> codes_;
    /**
     * The signed codes the cells store, Σ_g (cell⁺_g - cell⁻_g) <<
     * (g·cell_bits), in codes_'s layout; empty on a device with no
     * write noise and no stuck cells, whose cells store codes_.
     */
    std::vector<int32_t> stored_;

    /**
     * arrays_[(sign * tiles + tile) * sliceGroups() + slice], tile =
     * tile_r * tiles_c_ + tile_c: sign 0 = positive weights, 1 =
     * negative magnitudes.  A tile's slices are adjacent.
     */
    std::vector<CrossbarArray> arrays_;
};

} // namespace reram
} // namespace pipelayer

#endif // PIPELAYER_RERAM_ARRAY_GROUP_HH_
