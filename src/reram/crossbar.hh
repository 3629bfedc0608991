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
 * The model runs that product in collapsed form, as one sweep over
 * the cells that serves a whole block of input windows
 * (matVecCodesBatch).  A mapped weight matrix whose counters cannot
 * clamp skips the sweep: ArrayGroup computes its outputs as one
 * signed product over the codes the cells store, and each array only
 * tallies the drive (tallyDrive; DESIGN.md §7).  The per-pulse
 * SpikeDriver / IntegrateFire oracles it is tested against live in
 * tests/support.
 */

#ifndef PIPELAYER_RERAM_CROSSBAR_HH_
#define PIPELAYER_RERAM_CROSSBAR_HH_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "reram/params.hh"

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
 * against the spike resolution, spike-counted and summed once, on
 * construction.  Every array of an ArrayGroup tile row is driven by
 * the same codes, so one block serves them all: each array still
 * tallies the block's spikes as its own input_spikes.  ArrayGroup
 * builds blocks only for a tile row whose counters could clamp; its
 * product path takes the same counts from quantize_i32.
 */
struct SpikeBlock
{
    /**
     * Check that every code is in [0, 2^data_bits), count the block's
     * spikes (the LSBF code is weighted-binary, so a code's spike
     * count is its popcount) and sum the codes per window and per
     * word line, in one pass.  Profiled as "reram.spike_encode".
     * @p codes is not copied and must outlive the block.
     * @pre 1 <= data_bits <= 32.
     */
    SpikeBlock(const int64_t *codes, int64_t batch, int64_t rows_used,
               int data_bits);

    const int64_t *const codes;
    const int64_t batch;
    const int64_t rows_used;
    const int data_bits;
    int64_t spikes = 0;         //!< Σ popcount over the block
    int64_t max_window_sum = 0; //!< max over windows b of Σ_r codes[b][r]
    /** Σ_b codes[b][r] per word line r: zero iff no window drives r. */
    std::vector<int64_t> row_sums;
};

/**
 * One subarray of @c rows x @c cols multi-level cells.
 *
 * The array is "morphable" (paper §3): programCell() writes weights
 * (storage / weight-update mode) and matVecCodesBatch() computes
 * (compute mode).  Values are conductance *codes*; scaling to real
 * weights is the job of ArrayGroup.
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

    /**
     * Program rows [row0, row0 + n) of bit line @p col to @p codes, in
     * ascending row order: the cells, write pulses and variation draws
     * of n programCell calls, with the bounds checked once.
     * @pre every code <= params.maxCellCode().
     */
    void programColumn(int64_t col, int64_t row0, const uint8_t *codes,
                       int64_t n);

    /** Read one cell's conductance code (memory mode). */
    int64_t cell(int64_t row, int64_t col) const;

    /** All rows() x cols() conductance codes, row-major (memory mode). */
    const uint8_t *cellData() const { return cells_.data(); }

    /**
     * Spike-driven matrix-vector products over a block of input
     * windows: window b's codes drive the first block.rows_used word
     * lines (the rest carry no spikes), and its per-bit-line IF
     * counts are out[b][c] = min(Σ_r codes[b][r] * cell(r, c),
     * 2^counter_bits - 1).  The windows share one pass over the cell
     * matrix, so each cell row is loaded once and reused for every
     * window (the windows of a logical cycle, paper §4.2.1); then
     * each window is clamped and tallied on its own.
     *
     * @param block codes checked against this array's data_bits.
     * @param out   row-major @c batch x cols() output counts.
     */
    void matVecCodesBatch(const SpikeBlock &block, int64_t *out);

    /**
     * Tally the activity of driving this array with blocks of input
     * codes whose counts the caller computes elsewhere and no counter
     * clamps: the blocks' @p spikes as input_spikes, their @p windows
     * as mvm_ops, and as if_fires the sum of the unclamped counts,
     * Σ_r drive[r]·(Σ_c cell(r, c)), drive[r] being the code sum the
     * blocks put on word line r (what their SpikeBlock::row_sums
     * would add up to), from the per-word-line cell sums programming
     * keeps current.
     * Exactly what matVecCodesBatch would tally for those blocks.
     * @pre each block's max_window_sum · maxCellCode() <=
     *      2^counter_bits - 1; drive.size() <= rows().
     */
    void tallyDrive(int64_t spikes, int64_t windows,
                    std::span<const int64_t> drive);
    /**
     * Activity counters for the energy model.  The MVMs add to them
     * atomically, so several threads may drive one array at once and
     * the totals stay exact; read them once those calls returned.
     */
    const ArrayActivity &activity() const { return activity_; }

    /**
     * Live bit lines: 1 + the highest column that has ever held a
     * nonzero cell (after write noise; stuck-high cells count), or 0.
     * Columns at or beyond it hold only zeros, so the MVM sweeps
     * [0, liveCols()) alone and its counts and activity are those
     * of a sweep over every column.
     */
    int64_t liveCols() const { return live_cols_; }

  private:
    DeviceParams params_;
    std::vector<uint8_t> cells_; //!< row-major conductance codes
    /** Σ_c cell(r, c) per word line r: the IF firings per unit drive. */
    std::vector<int64_t> row_sums_;
    /**
     * Per-cell stuck flag (1 = stuck; the frozen code is in cells_),
     * sized only when the params enable variation.
     */
    std::vector<uint8_t> stuck_;
    int64_t live_cols_ = 0; //!< see liveCols()
    Rng variation_rng_;
    bool has_variation_ = false;
    ArrayActivity activity_;
};

} // namespace reram
} // namespace pipelayer

#endif // PIPELAYER_RERAM_CROSSBAR_HH_
