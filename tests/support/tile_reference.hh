/**
 * @file
 * A weight tile's bit-slice arrays driven slice by slice: each
 * array's own matVecCodesBatch (its counts clamped on their own),
 * shifted by g·cell_bits and added (paper §5.1, Fig. 14a).  This is
 * how ArrayGroup drove a tile before one sweep drove its slices
 * together (CrossbarArray::matVecTileBatch), kept as the oracle
 * test_gemm compares that sweep with.
 *
 * Part of the pl_test_support library (tests/support): only the
 * tests and the micro benches link it, no program runs it.
 */

#ifndef PIPELAYER_TESTS_SUPPORT_TILE_REFERENCE_HH_
#define PIPELAYER_TESTS_SUPPORT_TILE_REFERENCE_HH_

#include <cstdint>
#include <span>

#include "reram/crossbar.hh"

namespace pipelayer {
namespace reram {

/**
 * out[b][c] = Σ_g slices[g].matVecCodesBatch(block)[b][c] <<
 * (g·cell_bits), with the arrays' activity tallied by those calls.
 * Same contract and return value as CrossbarArray::matVecTileBatch;
 * @p cell_bits is the slices' DeviceParams::cell_bits.
 */
int64_t referenceTileBatch(std::span<CrossbarArray> slices, int cell_bits,
                           const SpikeBlock &block, int64_t *out);

} // namespace reram
} // namespace pipelayer

#endif // PIPELAYER_TESTS_SUPPORT_TILE_REFERENCE_HH_
