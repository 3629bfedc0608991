#include "reram/crossbar.hh"

#include <algorithm>
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

void
ArrayActivity::addStats(stats::StatGroup &group,
                        const std::string &prefix) const
{
    group.addFormula(
        prefix + ".input_spikes",
        [this] { return static_cast<double>(input_spikes); },
        "word-line input spikes driven");
    group.addFormula(
        prefix + ".write_pulses",
        [this] { return static_cast<double>(write_pulses); },
        "cell programming pulses applied");
    group.addFormula(
        prefix + ".mvm_ops",
        [this] { return static_cast<double>(mvm_ops); },
        "matrix-vector operations performed");
    group.addFormula(
        prefix + ".if_fires",
        [this] { return static_cast<double>(if_fires); },
        "integrate-and-fire output firings");
}

CrossbarArray::CrossbarArray(const DeviceParams &params,
                             uint64_t instance_seed)
    : params_(params),
      cells_(static_cast<size_t>(params.array_rows * params.array_cols), 0),
      variation_rng_(Rng(params.variation_seed).split(instance_seed))
{
    PL_ASSERT(params.array_rows > 0 && params.array_cols > 0,
              "bad array geometry");
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
        stuck_.assign(cells_.size(), int8_t{-1});
        for (size_t i = 0; i < stuck_.size(); ++i) {
            if (variation_rng_.uniform() < params.stuck_at_fault_rate) {
                // A stuck cell freezes at one of the extremes.
                const bool high = variation_rng_.uniform() < 0.5;
                stuck_[i] = static_cast<int8_t>(
                    high ? params.maxCellCode() : 0);
                cells_[i] = stuck_[i];
            }
        }
    }
}

int64_t
CrossbarArray::stuckCellCount() const
{
    int64_t n = 0;
    for (int8_t s : stuck_)
        n += s >= 0 ? 1 : 0;
    return n;
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
    programCellUnchecked(row, col, code);
}

void
CrossbarArray::programCellUnchecked(int64_t row, int64_t col,
                                    int64_t code)
{
    const auto idx = static_cast<size_t>(row * cols() + col);
    if (has_variation_) {
        if (stuck_[idx] >= 0) {
            // Stuck cells ignore programming pulses entirely.
            activity_.write_pulses += params_.cell_bits;
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
    cells_[idx] = code;
    activity_.write_pulses += params_.cell_bits;
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
CrossbarArray::programBlock(const std::vector<std::vector<int64_t>> &codes)
{
    PL_ASSERT(static_cast<int64_t>(codes.size()) <= rows(),
              "block taller than array");
    const int64_t max_code = params_.maxCellCode();
    for (size_t r = 0; r < codes.size(); ++r) {
        const std::vector<int64_t> &row = codes[r];
        PL_ASSERT(static_cast<int64_t>(row.size()) <= cols(),
                  "block wider than array");
        // One range check per block row instead of two asserts per
        // cell (PL_ASSERT stays live in release builds): the min/max
        // scan vectorises, and with row/column bounds implied by the
        // block asserts above, the write loop runs assert-free while
        // applying stuck cells and write noise exactly as programCell
        // would (same cells, same RNG draw order).
        int64_t lo = 0, hi = 0;
        for (int64_t v : row) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        PL_ASSERT(lo >= 0 && hi <= max_code,
                  "block row %zu holds a code outside [0, %lld]", r,
                  (long long)max_code);
        for (size_t c = 0; c < row.size(); ++c)
            programCellUnchecked(static_cast<int64_t>(r),
                                 static_cast<int64_t>(c), row[c]);
    }
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
    activity_.input_spikes += spikes;
    activity_.mvm_ops += batch;

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
    // The batched form keeps the cell row register/cache-resident
    // across the window loop (r outer, window inner), so G windows
    // cost one cell-matrix sweep instead of G.  The axpy runs on the
    // dispatched SIMD kernel (common/isa.hh); both operands fit its
    // [0, 2^32) exact-product contract (weights < 2^data_bits,
    // cells <= maxCellCode, both capped at 32 bits).
    const int64_t n_cols = cols();
    std::fill(out, out + batch * n_cols, int64_t{0});
    const int64_t *cell_p = cells_.data();
    const gemmk::Kernels &kern = gemmk::activeKernels();
    // Chunking is free to vary (integer sums are order-independent);
    // each column costs one multiply-add per driven row and window.
    parallel_for(0, n_cols, /*work_per_index=*/rows_used * batch,
                 [&](int64_t c0, int64_t c1) {
        const int64_t len = c1 - c0;
        for (int64_t r = 0; r < rows_used; ++r) {
            const int64_t *cell_row = cell_p + r * n_cols + c0;
            for (int64_t b = 0; b < batch; ++b) {
                const int64_t rw = row_weight[b * rows_used + r];
                if (rw == 0)
                    continue;
                kern.axpy_i64(out + b * n_cols + c0, cell_row, rw, len);
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
        for (int64_t c = 0; c < n_cols; ++c) {
            if (out_b[c] > max_count) {
                out_b[c] = max_count;
                last_sat = true;
            }
            fires += out_b[c];
        }
    }
    last_saturated_ = last_sat;
    activity_.if_fires += fires;
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
    PL_ASSERT(params_.data_bits >= 1 && params_.data_bits <= 32,
              "unsupported spike resolution %d", params_.data_bits);
    PL_ASSERT(static_cast<int64_t>(codes.size()) <= rows(),
              "more input codes (%zu) than word lines (%lld)",
              codes.size(), (long long)rows());
    const auto used = static_cast<int64_t>(codes.size());
    arena::ScopedBuf<int64_t> weights(static_cast<size_t>(used));
    int64_t spikes = 0;
    {
        // The LSBF encoding is weighted-binary, so a code's total
        // word-line weight is the code itself and its spike count is
        // its popcount — no SpikeTrain is materialised (the driver's
        // memo table serves callers that do need trains).
        PL_PROF_SCOPE("reram.spike_encode");
        const int64_t limit = int64_t{1} << params_.data_bits;
        for (int64_t r = 0; r < used; ++r) {
            const int64_t code = codes[static_cast<size_t>(r)];
            PL_ASSERT(code >= 0 && code < limit,
                      "code %lld out of %d-bit range", (long long)code,
                      params_.data_bits);
            weights[static_cast<size_t>(r)] = code;
            spikes += std::popcount(static_cast<uint64_t>(code));
        }
    }
    return matVecWeighted(weights.data(), used, spikes);
}

void
CrossbarArray::matVecCodesBatch(const int64_t *codes, int64_t batch,
                                int64_t rows_used, int64_t *out)
{
    PL_ASSERT(params_.data_bits >= 1 && params_.data_bits <= 32,
              "unsupported spike resolution %d", params_.data_bits);
    PL_ASSERT(rows_used >= 0 && rows_used <= rows(),
              "more input codes (%lld) than word lines (%lld)",
              (long long)rows_used, (long long)rows());
    // A code's word-line weight is the code itself (weighted-binary
    // LSBF encoding), so the code matrix feeds the weighted core
    // directly; only the spike tally needs a pass of its own.
    int64_t spikes = 0;
    {
        PL_PROF_SCOPE("reram.spike_encode");
        const int64_t limit = int64_t{1} << params_.data_bits;
        const int64_t total = batch * rows_used;
        for (int64_t i = 0; i < total; ++i) {
            const int64_t code = codes[i];
            PL_ASSERT(code >= 0 && code < limit,
                      "code %lld out of %d-bit range", (long long)code,
                      params_.data_bits);
            spikes += std::popcount(static_cast<uint64_t>(code));
        }
    }
    matVecWeightedBatch(codes, batch, rows_used, spikes, out);
}

} // namespace reram
} // namespace pipelayer
