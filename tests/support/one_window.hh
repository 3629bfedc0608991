/**
 * @file
 * Single-window calls into the crossbar model's batched entries.
 *
 * The model's MVM entries are batched: CrossbarArray::matVecCodesBatch
 * (one array) and, above it, ArrayGroup::matVecBatch.  A test
 * that drives one input vector wraps it in a batch of one here; the
 * outputs and activity totals are those of that batch.
 */

#ifndef PIPELAYER_TESTS_SUPPORT_ONE_WINDOW_HH_
#define PIPELAYER_TESTS_SUPPORT_ONE_WINDOW_HH_

#include <cstdint>
#include <vector>

#include "reram/array_group.hh"
#include "reram/crossbar.hh"
#include "tensor/tensor.hh"

namespace pipelayer {
namespace reram {

/**
 * One window of @p codes (one per driven word line, at most
 * array.rows()) at the array's spike resolution @p data_bits; returns
 * the array.cols() IF counts.
 */
inline std::vector<int64_t>
matVecCodesOnce(CrossbarArray &array, const std::vector<int64_t> &codes,
                int data_bits)
{
    std::vector<int64_t> out(static_cast<size_t>(array.cols()));
    array.matVecCodesBatch(
        SpikeBlock(codes.data(), 1, static_cast<int64_t>(codes.size()),
                   data_bits),
        out.data());
    return out;
}

/** One (m_in) vector through matVecBatch; returns (n_out). */
inline Tensor
matVecOnce(ArrayGroup &group, const Tensor &x)
{
    return group.matVecBatch(x.reshape({1, x.numel()}))
        .reshape({group.outputSize()});
}

} // namespace reram
} // namespace pipelayer

#endif // PIPELAYER_TESTS_SUPPORT_ONE_WINDOW_HH_
