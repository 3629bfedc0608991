/**
 * @file
 * A mapped weight matrix driven tile by tile, as ArrayGroup drove it
 * before one signed product replaced its sweeps: each tile row's x⁺
 * and x⁻ blocks drive every slice array of the row, each array's
 * counts clamped on its own (CrossbarArray::matVecCodesBatch), and
 * the counts are shifted by g·cell_bits and added (paper §5.1,
 * Fig. 14a), then added for x⁺ on W⁺ and x⁻ on W⁻ and subtracted for
 * the cross terms (§4.2.3).  Kept as the oracle test_gemm compares
 * ArrayGroup::matVecBatch with: outputs and every array's counters;
 * and the cell-by-cell weight read it compares readWeights with.
 *
 * Part of the pl_test_support library (tests/support): only the
 * tests and the micro benches link it, no program runs it.
 */

#ifndef PIPELAYER_TESTS_SUPPORT_GROUP_REFERENCE_HH_
#define PIPELAYER_TESTS_SUPPORT_GROUP_REFERENCE_HH_

#include "reram/array_group.hh"
#include "tensor/tensor.hh"

namespace pipelayer {
namespace reram {

/**
 * ArrayGroup::matVecBatch's contract, computed tile by tile and slice
 * by slice on @p group's arrays, which tally their activity as those
 * sweeps do.
 */
Tensor referenceMatVecBatch(ArrayGroup &group, const Tensor &x);

/**
 * The float weights @p group's cells hold, recombined cell by cell as
 * memory mode reads them: Σ_g (cell⁺_g - cell⁻_g) << (g·cell_bits)
 * over each tile's slice arrays, times weightScale().
 */
Tensor referenceReadWeights(const ArrayGroup &group);

} // namespace reram
} // namespace pipelayer

#endif // PIPELAYER_TESTS_SUPPORT_GROUP_REFERENCE_HH_
