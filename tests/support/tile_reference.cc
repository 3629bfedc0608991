#include "support/tile_reference.hh"

#include <algorithm>
#include <vector>

namespace pipelayer {
namespace reram {

int64_t
referenceTileBatch(std::span<CrossbarArray> slices, int cell_bits,
                   const SpikeBlock &block, int64_t *out)
{
    const int64_t cols = slices.front().cols();
    std::fill(out, out + block.batch * cols, int64_t{0});
    std::vector<int64_t> counts(static_cast<size_t>(block.batch * cols));
    int64_t live = 0;
    for (size_t g = 0; g < slices.size(); ++g) {
        CrossbarArray &array = slices[g];
        array.matVecCodesBatch(block, counts.data());
        // Shift-add each window's slice result (Fig. 14a); counts
        // past the live bit lines are zero.
        const int64_t shift = static_cast<int64_t>(g) * cell_bits;
        for (int64_t b = 0; b < block.batch; ++b)
            for (int64_t c = 0; c < array.liveCols(); ++c)
                out[b * cols + c] +=
                    counts[static_cast<size_t>(b * cols + c)] << shift;
        live = std::max(live, array.liveCols());
    }
    return live;
}

} // namespace reram
} // namespace pipelayer
