#include "reram/crossbar.hh"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/prof.hh"
#include "tensor/gemm_kernels.hh"

namespace pipelayer {
namespace reram {

ArrayActivity &
ArrayActivity::operator+=(const ArrayActivity &other)
{
    input_spikes += other.input_spikes;
    write_pulses += other.write_pulses;
    mvm_ops += other.mvm_ops;
    if_fires += other.if_fires;
    return *this;
}

namespace {

/**
 * Add @p n to an activity counter.  Several images may drive one
 * array at once (Network::trainBatch, PipelinedTrainer); the adds
 * commute, so the totals are exact at any thread count.
 */
void
tally(int64_t &counter, int64_t n)
{
    std::atomic_ref<int64_t>(counter).fetch_add(n,
                                                std::memory_order_relaxed);
}

} // namespace

SpikeBlock::SpikeBlock(const int64_t *codes_in, int64_t batch_in,
                       int64_t rows_used_in, int data_bits_in)
    : codes(codes_in), batch(batch_in), rows_used(rows_used_in),
      data_bits(data_bits_in),
      row_sums(static_cast<size_t>(std::max<int64_t>(rows_used_in, 0)), 0)
{
    PL_PROF_SCOPE("reram.spike_encode");
    PL_ASSERT(batch >= 1 && rows_used >= 0, "bad code block %lld x %lld",
              (long long)batch, (long long)rows_used);
    const int64_t limit = int64_t{1} << data_bits;
    for (int64_t b = 0; b < batch; ++b) {
        const int64_t *window = codes + b * rows_used;
        int64_t window_sum = 0;
        for (int64_t r = 0; r < rows_used; ++r) {
            const int64_t code = window[r];
            PL_ASSERT(code >= 0 && code < limit,
                      "code %lld out of %d-bit range", (long long)code,
                      data_bits);
            // A code is below 2^data_bits <= 2^32.
            spikes += gemmk::popcount32(static_cast<uint32_t>(code));
            window_sum += code;
            row_sums[static_cast<size_t>(r)] += code;
        }
        max_window_sum = std::max(max_window_sum, window_sum);
    }
}

CrossbarArray::CrossbarArray(const DeviceParams &params,
                             uint64_t instance_seed)
    : params_(params),
      cells_(static_cast<size_t>(params.array_rows * params.array_cols), 0),
      row_sums_(static_cast<size_t>(params.array_rows), 0),
      variation_rng_(Rng(params.variation_seed).split(instance_seed))
{
    PL_ASSERT(params.array_rows > 0 && params.array_cols > 0,
              "bad array geometry");
    PL_ASSERT(params.cell_bits >= 1 && params.cell_bits <= 8,
              "cell_bits %d outside the one-byte 1..8 range",
              params.cell_bits);
    PL_ASSERT(params.data_bits >= 1 && params.data_bits <= 32,
              "unsupported spike resolution %d", params.data_bits);
    PL_ASSERT(params.counter_bits >= 1 && params.counter_bits <= 62,
              "counter_bits %d outside the supported 1..62 range",
              params.counter_bits);
    PL_ASSERT(params.write_noise_sigma >= 0.0 &&
              params.stuck_at_fault_rate >= 0.0 &&
              params.stuck_at_fault_rate <= 1.0,
              "bad variation parameters");
    has_variation_ = params.hasVariation();
    if (has_variation_) {
        stuck_.assign(cells_.size(), uint8_t{0});
        for (size_t i = 0; i < stuck_.size(); ++i) {
            if (variation_rng_.uniform() < params.stuck_at_fault_rate) {
                // A stuck cell freezes at one of the extremes.
                const bool high = variation_rng_.uniform() < 0.5;
                stuck_[i] = 1;
                if (high) {
                    cells_[i] = static_cast<uint8_t>(params.maxCellCode());
                    live_cols_ = std::max(
                        live_cols_, static_cast<int64_t>(i) % cols() + 1);
                    row_sums_[i / static_cast<size_t>(cols())] +=
                        params.maxCellCode();
                }
            }
        }
    }
}

void
CrossbarArray::programCell(int64_t row, int64_t col, int64_t code)
{
    PL_ASSERT(code >= 0 && code <= params_.maxCellCode(),
              "code %lld exceeds %d-bit cell", (long long)code,
              params_.cell_bits);
    const auto byte = static_cast<uint8_t>(code);
    programColumn(col, row, &byte, 1);
}

void
CrossbarArray::programColumn(int64_t col, int64_t row0,
                             const uint8_t *codes, int64_t n)
{
    PL_ASSERT(col >= 0 && col < cols() && row0 >= 0 && n >= 0 &&
                  n <= rows() - row0,
              "cells (%lld..%lld, %lld) out of array bounds",
              (long long)row0, (long long)(row0 + n - 1), (long long)col);
    uint8_t all = 0;
    for (int64_t k = 0; k < n; ++k)
        all |= codes[k];
    // maxCellCode() is 2^cell_bits - 1: a code above it sets a higher
    // bit, and so does the OR of the run.
    PL_ASSERT(all <= params_.maxCellCode(), "code exceeds %d-bit cell",
              params_.cell_bits);
    activity_.write_pulses += n * params_.cell_bits;
    const int64_t stride = cols();
    const int64_t max_code = params_.maxCellCode();
    const double sigma =
        params_.write_noise_sigma * static_cast<double>(max_code);
    uint8_t *cell = cells_.data() + row0 * stride + col;
    int64_t *row_sum = row_sums_.data() + row0;
    const uint8_t *stuck =
        has_variation_ ? stuck_.data() + row0 * stride + col : nullptr;
    uint8_t live = 0;
    for (int64_t k = 0; k < n; ++k) {
        // Stuck cells ignore programming pulses entirely.
        if (stuck && stuck[k * stride])
            continue;
        int64_t code = codes[k];
        if (sigma > 0.0) {
            const double noise = variation_rng_.gaussian(0.0, sigma);
            code = std::clamp<int64_t>(
                code + static_cast<int64_t>(std::llround(noise)), 0,
                max_code);
        }
        row_sum[k] += code - cell[k * stride];
        cell[k * stride] = static_cast<uint8_t>(code);
        live |= static_cast<uint8_t>(code);
    }
    if (live != 0)
        live_cols_ = std::max(live_cols_, col + 1);
}

int64_t
CrossbarArray::cell(int64_t row, int64_t col) const
{
    PL_ASSERT(row >= 0 && row < rows() && col >= 0 && col < cols(),
              "cell (%lld, %lld) out of array bounds", (long long)row,
              (long long)col);
    return cells_[static_cast<size_t>(row * cols() + col)];
}

void
CrossbarArray::matVecCodesBatch(const SpikeBlock &block, int64_t *out)
{
    PL_PROF_SCOPE("reram.crossbar_matvec");
    PL_ASSERT(block.data_bits == params_.data_bits,
              "codes checked at %d bits drive a %d-bit array",
              block.data_bits, params_.data_bits);
    PL_ASSERT(block.rows_used <= rows(),
              "more input codes (%lld) than word lines (%lld)",
              (long long)block.rows_used, (long long)rows());
    const int64_t batch = block.batch;
    const int64_t rows_used = block.rows_used;
    const int64_t n_cols = cols();
    tally(activity_.input_spikes, block.spikes);
    tally(activity_.mvm_ops, batch);
    std::fill(out, out + batch * n_cols, int64_t{0});

    // Collapsed bit-plane walk: the LSBF pulses inject only
    // non-negative charges and the IF counter is a saturating adder,
    // so a count is min(Σ_r code[r]·g[r][c], max_count) whatever the
    // pulse order (a word line's weighted spikes sum to its code),
    // and one pass over the cells reproduces the per-pulse emulation
    // bit for bit.  Each driven word line is one rank-1 update of
    // every window's counts by its one-byte cells; cells past the
    // live bit lines are zero and add nothing.  Integer sums are
    // order-independent, so the counts are exact at any thread count,
    // and the raw sums cannot overflow int64 for any valid
    // configuration (rows x 2^data_bits x maxCellCode < 2^62).  The
    // loop is plain scalar code: ArrayGroup sweeps an array only for
    // a tile row whose counters could clamp.
    const int64_t *codes = block.codes;
    const uint8_t *cells = cells_.data();
    parallel_for(0, live_cols_, /*work_per_index=*/rows_used * batch,
                 [&](int64_t c0, int64_t c1) {
        for (int64_t r = 0; r < rows_used; ++r) {
            if (block.row_sums[static_cast<size_t>(r)] == 0)
                continue;
            const uint8_t *cell_row = cells + r * n_cols;
            for (int64_t b = 0; b < batch; ++b) {
                const int64_t code = codes[b * rows_used + r];
                if (code == 0)
                    continue;
                int64_t *out_b = out + b * n_cols;
                for (int64_t c = c0; c < c1; ++c)
                    out_b[c] += code * cell_row[c];
            }
        }
    });

    // Serial epilogue, one window at a time: clamp to the counter
    // capacity and tally the IF firings (one per output count unit),
    // exactly as the saturating counters would have left them.
    const int64_t max_count =
        (int64_t{1} << params_.counter_bits) - 1;
    int64_t fires = 0;
    for (int64_t b = 0; b < batch; ++b) {
        int64_t *out_b = out + b * n_cols;
        for (int64_t c = 0; c < live_cols_; ++c) {
            out_b[c] = std::min(out_b[c], max_count);
            fires += out_b[c];
        }
    }
    tally(activity_.if_fires, fires);
}

void
CrossbarArray::tallyDrive(int64_t spikes, int64_t windows,
                          std::span<const int64_t> drive)
{
    PL_ASSERT(static_cast<int64_t>(drive.size()) <= rows(),
              "more driven word lines (%lld) than the array has (%lld)",
              (long long)drive.size(), (long long)rows());
    // An unclamped count is Σ_r code[b][r]·cell(r, c), so the counts
    // of all windows and bit lines sum to Σ_r (Σ_b code[b][r]) ·
    // (Σ_c cell(r, c)).
    int64_t fires = 0;
    for (size_t r = 0; r < drive.size(); ++r)
        fires += drive[r] * row_sums_[r];
    tally(activity_.input_spikes, spikes);
    tally(activity_.mvm_ops, windows);
    tally(activity_.if_fires, fires);
}

} // namespace reram
} // namespace pipelayer
