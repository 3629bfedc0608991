/**
 * @file
 * Functional model of one ReRAM crossbar subarray in compute mode.
 *
 * Cells store conductance codes in [0, 2^cell_bits - 1], one byte
 * per cell (cell_bits <= 8); an input spike train drives the word
 * lines and the bit-line currents are digitised by integrate-and-fire
 * counters.  Because the spike scheme is weighted-binary and the IF
 * threshold equals one unit of charge, the output counts are
 * *exactly* Σ_r input_code[r]·g[r][c] (paper §4.2.2) — the crossbar
 * computes an integer matrix-vector product in the analog domain.
 */

#ifndef PIPELAYER_RERAM_CROSSBAR_HH_
#define PIPELAYER_RERAM_CROSSBAR_HH_

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "reram/params.hh"
#include "reram/spike.hh"

namespace pipelayer {
namespace reram {

/** Running totals of array activity, used for energy accounting. */
struct ArrayActivity
{
    int64_t input_spikes = 0;  //!< word-line spikes driven
    int64_t write_pulses = 0;  //!< programming pulses applied
    int64_t mvm_ops = 0;       //!< matrix-vector operations performed
    int64_t if_fires = 0;      //!< integrate-and-fire output firings

    ArrayActivity &operator+=(const ArrayActivity &other);
};

/**
 * A row-major (batch x rows_used) block of input codes, range-checked
 * against the spike resolution and spike-counted once, on
 * construction.  Every array of an ArrayGroup tile row is driven by
 * the same codes, so one block serves them all: each array still
 * tallies the block's spikes as its own input_spikes.
 */
struct SpikeBlock
{
    /**
     * Check that every code is in [0, 2^data_bits) and count the
     * block's spikes (the LSBF code is weighted-binary, so a code's
     * spike count is its popcount).  Profiled as "reram.spike_encode".
     * @p codes is not copied and must outlive the block.
     * @pre 1 <= data_bits <= 32.
     */
    SpikeBlock(const int64_t *codes, int64_t batch, int64_t rows_used,
               int data_bits);

    const int64_t *const codes;
    const int64_t batch;
    const int64_t rows_used;
    const int data_bits;
    const int64_t spikes; //!< Σ popcount over the block
};

/**
 * One subarray of @c rows x @c cols multi-level cells.
 *
 * The array is "morphable" (paper §3): program() writes weights
 * (storage / weight-update mode) and matVec() computes (compute
 * mode).  Values are conductance *codes*; scaling to real weights is
 * the job of ArrayGroup.
 */
class CrossbarArray
{
  public:
    /**
     * Construct an all-zero array.
     *
     * @param instance_seed distinguishes this array's variation draws
     *        from its siblings (combined with params.variation_seed);
     *        only relevant when the params enable non-idealities.
     * @pre a positive array shape, 1 <= cell_bits <= 8,
     *      1 <= data_bits <= 32, 1 <= counter_bits <= 62, and
     *      variation knobs in range (DeviceParams::validate() checks
     *      these and more).
     */
    explicit CrossbarArray(const DeviceParams &params,
                           uint64_t instance_seed = 0);

    int64_t rows() const { return params_.array_rows; }
    int64_t cols() const { return params_.array_cols; }

    /**
     * Program one cell to a conductance code.
     * @pre 0 <= code <= params.maxCellCode().
     */
    void programCell(int64_t row, int64_t col, int64_t code);

    /** Read one cell's conductance code (memory mode). */
    int64_t cell(int64_t row, int64_t col) const;

    /**
     * Spike-driven matrix-vector product.
     *
     * @param inputs one spike train per word line (short vectors are
     *        treated as zero on the remaining rows).
     * @return per-bit-line IF counter values:
     *         out[c] = Σ_r inputs[r].value() * cell(r, c).
     */
    std::vector<int64_t> matVec(const std::vector<SpikeTrain> &inputs);

    /** Convenience: matVec from raw input codes (encodes internally). */
    std::vector<int64_t> matVecCodes(const std::vector<int64_t> &codes);

    /**
     * Batched matVecCodes: the block's @c batch input vectors share
     * one pass over the cell matrix, so each cell row is loaded once
     * and reused for every vector (the windows of a logical cycle,
     * paper §4.2.1).  Results, activity totals, and the final
     * saturation flag are identical to @c batch successive matVecCodes
     * calls in row order.
     *
     * @param block codes checked against this array's data_bits.
     * @param out   row-major @c batch x cols() output counts.
     */
    void matVecCodesBatch(const SpikeBlock &block, int64_t *out);

    /**
     * Activity counters for the energy model.  The MVMs add to them
     * atomically, so several threads may drive one array at once and
     * the totals stay exact; read them once those calls returned.
     */
    const ArrayActivity &activity() const { return activity_; }

    /**
     * True if any IF counter saturated during the last matVec (with
     * concurrent calls, the one that finished last).
     */
    bool lastSaturated() const { return last_saturated_; }

    /** Number of stuck cells in this array (0 for ideal devices). */
    int64_t stuckCellCount() const;

    /**
     * Live bit lines: 1 + the highest column that has ever held a
     * nonzero cell (after write noise; stuck-high cells count), or 0.
     * Columns at or beyond it hold only zeros, so the MVM sweeps
     * [0, liveCols()) alone and its counts, flags and activity are
     * those of a sweep over every column.
     */
    int64_t liveCols() const { return live_cols_; }

  private:
    /**
     * Collapsed bit-plane MVM core shared by matVec and matVecCodes:
     * one O(rows x cols) pass over the cells given each word line's
     * total spike weight (Σ 2^t over its spiking slots — i.e. the
     * encoded value).  @p spikes is the pre-counted number of input
     * spikes for the activity tally.
     */
    std::vector<int64_t> matVecWeighted(const int64_t *row_weight,
                                        int64_t rows_used,
                                        int64_t spikes);

    /**
     * Batched form of the collapsed MVM core: @p batch weight vectors
     * (row-major @p batch x @p rows_used) against one pass over the
     * live cells, each window clamped and tallied separately.  Integer
     * sums are order-independent, so this is exact at any thread count
     * and equal to @p batch sequential matVecWeighted calls.
     */
    void matVecWeightedBatch(const int64_t *row_weight, int64_t batch,
                             int64_t rows_used, int64_t spikes,
                             int64_t *out);

    /** Store @p code in cell @p idx of column @p col. */
    void store(size_t idx, int64_t col, int64_t code);

    DeviceParams params_;
    std::vector<uint8_t> cells_; //!< row-major conductance codes
    /**
     * Per-cell stuck flag (1 = stuck; the frozen code is in cells_),
     * sized only when the params enable variation.
     */
    std::vector<uint8_t> stuck_;
    int64_t live_cols_ = 0; //!< see liveCols()
    Rng variation_rng_;
    bool has_variation_ = false;
    ArrayActivity activity_;
    bool last_saturated_ = false;
};

} // namespace reram
} // namespace pipelayer

#endif // PIPELAYER_RERAM_CROSSBAR_HH_
