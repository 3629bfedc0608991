#include "reram/crossbar.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

#include "common/arena.hh"
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

/** Σ popcount over @p n codes, each checked to be below 2^data_bits. */
int64_t
countSpikes(const int64_t *codes, int64_t n, int data_bits)
{
    PL_PROF_SCOPE("reram.spike_encode");
    const int64_t limit = int64_t{1} << data_bits;
    int64_t spikes = 0;
    for (int64_t i = 0; i < n; ++i) {
        PL_ASSERT(codes[i] >= 0 && codes[i] < limit,
                  "code %lld out of %d-bit range", (long long)codes[i],
                  data_bits);
        spikes += std::popcount(static_cast<uint64_t>(codes[i]));
    }
    return spikes;
}

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
      spikes(countSpikes(codes_in, batch_in * rows_used_in, data_bits_in))
{
    PL_ASSERT(batch >= 1 && rows_used >= 0, "bad code block %lld x %lld",
              (long long)batch, (long long)rows_used);
}

CrossbarArray::CrossbarArray(const DeviceParams &params,
                             uint64_t instance_seed)
    : params_(params),
      cells_(static_cast<size_t>(params.array_rows * params.array_cols), 0),
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
    has_variation_ = params.write_noise_sigma > 0.0 ||
                     params.stuck_at_fault_rate > 0.0;
    if (has_variation_) {
        stuck_.assign(cells_.size(), uint8_t{0});
        for (size_t i = 0; i < stuck_.size(); ++i) {
            if (variation_rng_.uniform() < params.stuck_at_fault_rate) {
                // A stuck cell freezes at one of the extremes.
                const bool high = variation_rng_.uniform() < 0.5;
                stuck_[i] = 1;
                store(i, static_cast<int64_t>(i) % cols(),
                      high ? params.maxCellCode() : 0);
            }
        }
    }
}

int64_t
CrossbarArray::stuckCellCount() const
{
    int64_t n = 0;
    for (uint8_t s : stuck_)
        n += s;
    return n;
}

void
CrossbarArray::store(size_t idx, int64_t col, int64_t code)
{
    cells_[idx] = static_cast<uint8_t>(code);
    if (code != 0)
        live_cols_ = std::max(live_cols_, col + 1);
}

void
CrossbarArray::programCell(int64_t row, int64_t col, int64_t code)
{
    PL_ASSERT(row >= 0 && row < rows() && col >= 0 && col < cols(),
              "cell (%lld, %lld) out of array bounds", (long long)row,
              (long long)col);
    PL_ASSERT(code >= 0 && code <= params_.maxCellCode(),
              "code %lld exceeds %d-bit cell", (long long)code,
              params_.cell_bits);
    const auto idx = static_cast<size_t>(row * cols() + col);
    activity_.write_pulses += params_.cell_bits;
    if (has_variation_) {
        if (stuck_[idx]) {
            // Stuck cells ignore programming pulses entirely.
            return;
        }
        if (params_.write_noise_sigma > 0.0) {
            const double noise = variation_rng_.gaussian(
                0.0, params_.write_noise_sigma *
                         static_cast<double>(params_.maxCellCode()));
            code = std::clamp<int64_t>(
                code + static_cast<int64_t>(std::llround(noise)), 0,
                params_.maxCellCode());
        }
    }
    store(idx, col, code);
}

int64_t
CrossbarArray::cell(int64_t row, int64_t col) const
{
    PL_ASSERT(row >= 0 && row < rows() && col >= 0 && col < cols(),
              "cell (%lld, %lld) out of array bounds", (long long)row,
              (long long)col);
    return cells_[static_cast<size_t>(row * cols() + col)];
}

std::vector<int64_t>
CrossbarArray::matVecWeighted(const int64_t *row_weight,
                              int64_t rows_used, int64_t spikes)
{
    std::vector<int64_t> out(static_cast<size_t>(cols()), 0);
    matVecWeightedBatch(row_weight, 1, rows_used, spikes, out.data());
    return out;
}

void
CrossbarArray::matVecWeightedBatch(const int64_t *row_weight,
                                   int64_t batch, int64_t rows_used,
                                   int64_t spikes, int64_t *out)
{
    PL_PROF_SCOPE("reram.crossbar_matvec");
    PL_ASSERT(batch >= 1, "empty batch");
    tally(activity_.input_spikes, spikes);
    tally(activity_.mvm_ops, batch);

    // Collapsed bit-plane walk.  The LSBF pulse schedule injects only
    // non-negative charges (weight 2^t x conductance) and the IF
    // counter is a saturating adder, so the final count is
    // min(Σ_r weight[r]·g[r][c], max_count) and the saturation flag is
    // (Σ > max_count) — independent of pulse order.  One pass over the
    // cells with each word line's *total* weight therefore reproduces
    // the per-pulse emulation bit-for-bit at ~data_bits x fewer inner
    // iterations.  Integer sums are order-independent, so the parallel
    // row-major accumulation below is exact at any thread count; the
    // raw totals cannot overflow int64 for any valid configuration
    // (rows x 2^data_bits x maxCellCode < 2^62).
    //
    // Only the live bit lines [0, live) are swept: every cell beyond
    // them is zero, and a zero cell adds nothing to a count, to the
    // IF firings or to the saturation flag, so those columns' counts
    // stay the zeros the fill below writes.
    //
    // The batched form keeps the cell row register/cache-resident
    // across the window loop (r outer, window inner), so G windows
    // cost one cell-matrix sweep instead of G.  The axpy runs on the
    // dispatched SIMD kernel (common/isa.hh), widening the one-byte
    // cells into int64 counts; both operands fit its contract
    // (weights < 2^data_bits <= 2^32, cells <= maxCellCode < 2^8).
    const int64_t n_cols = cols();
    const int64_t live = live_cols_;
    std::fill(out, out + batch * n_cols, int64_t{0});
    const uint8_t *cell_p = cells_.data();
    const gemmk::Kernels &kern = gemmk::activeKernels();
    // Chunking is free to vary (integer sums are order-independent);
    // each column costs one multiply-add per driven row and window.
    parallel_for(0, live, /*work_per_index=*/rows_used * batch,
                 [&](int64_t c0, int64_t c1) {
        const int64_t len = c1 - c0;
        for (int64_t r = 0; r < rows_used; ++r) {
            const uint8_t *cell_row = cell_p + r * n_cols + c0;
            for (int64_t b = 0; b < batch; ++b) {
                const int64_t rw = row_weight[b * rows_used + r];
                if (rw == 0)
                    continue;
                kern.axpy_u8_i64(out + b * n_cols + c0, cell_row, rw,
                                 len);
            }
        }
    });

    // Serial epilogue, one window at a time: clamp to the counter
    // capacity and tally the IF firings (one per output count unit),
    // exactly as the saturating counters would have left them.  The
    // flag keeps the last window's state, matching a sequential loop
    // of matVecWeighted calls.
    const int64_t max_count =
        (int64_t{1} << params_.counter_bits) - 1;
    bool last_sat = false;
    int64_t fires = 0;
    for (int64_t b = 0; b < batch; ++b) {
        int64_t *out_b = out + b * n_cols;
        last_sat = false;
        for (int64_t c = 0; c < live; ++c) {
            if (out_b[c] > max_count) {
                out_b[c] = max_count;
                last_sat = true;
            }
            fires += out_b[c];
        }
    }
    std::atomic_ref<bool>(last_saturated_)
        .store(last_sat, std::memory_order_relaxed);
    tally(activity_.if_fires, fires);
}

std::vector<int64_t>
CrossbarArray::matVec(const std::vector<SpikeTrain> &inputs)
{
    PL_ASSERT(static_cast<int64_t>(inputs.size()) <= rows(),
              "more input trains (%zu) than word lines (%lld)",
              inputs.size(), (long long)rows());
    const auto used = static_cast<int64_t>(inputs.size());
    // Arena scratch on the calling thread (never inside the parallel
    // pass): one total spike weight per driven word line.
    arena::ScopedBuf<int64_t> weights(static_cast<size_t>(used));
    int64_t spikes = 0;
    for (int64_t r = 0; r < used; ++r) {
        weights[static_cast<size_t>(r)] =
            inputs[static_cast<size_t>(r)].value();
        spikes += inputs[static_cast<size_t>(r)].spikeCount();
    }
    return matVecWeighted(weights.data(), used, spikes);
}

std::vector<int64_t>
CrossbarArray::matVecCodes(const std::vector<int64_t> &codes)
{
    PL_ASSERT(static_cast<int64_t>(codes.size()) <= rows(),
              "more input codes (%zu) than word lines (%lld)",
              codes.size(), (long long)rows());
    // The LSBF encoding is weighted-binary, so a code's total
    // word-line weight is the code itself — no SpikeTrain is
    // materialised (the driver's memo table serves callers that do
    // need trains).
    const SpikeBlock block(codes.data(), 1,
                           static_cast<int64_t>(codes.size()),
                           params_.data_bits);
    return matVecWeighted(block.codes, block.rows_used, block.spikes);
}

void
CrossbarArray::matVecCodesBatch(const SpikeBlock &block, int64_t *out)
{
    PL_ASSERT(block.data_bits == params_.data_bits,
              "codes checked at %d bits drive a %d-bit array",
              block.data_bits, params_.data_bits);
    PL_ASSERT(block.rows_used <= rows(),
              "more input codes (%lld) than word lines (%lld)",
              (long long)block.rows_used, (long long)rows());
    // A code's word-line weight is the code itself (weighted-binary
    // LSBF encoding), so the code matrix feeds the weighted core
    // directly.
    matVecWeightedBatch(block.codes, block.batch, block.rows_used,
                        block.spikes, out);
}

} // namespace reram
} // namespace pipelayer
