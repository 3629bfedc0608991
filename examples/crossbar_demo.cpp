/**
 * @file
 * Low-level tour of the ReRAM compute substrate (paper §4.2):
 * weighted spike coding, integrate-and-fire digitisation, and the
 * pos/neg bit-sliced array groups of Fig. 14 — demonstrating that
 * the analog pipeline computes *exact* integer matrix-vector
 * products, and how quantisation enters only through the weight and
 * input codings.
 *
 * Steps 1 and 2 show one pulse at a time with the SpikeDriver and
 * IntegrateFire oracles (tests/support); the crossbars from step 3 on
 * compute the same counts in one collapsed pass per window
 * (DESIGN.md §7).
 *
 * Run:  ./build/examples/crossbar_demo
 */

#include <cmath>
#include <iostream>
#include <vector>

#include "common/rng.hh"
#include "reram/activation.hh"
#include "reram/array_group.hh"
#include "reram/crossbar.hh"
#include "support/spike.hh"
#include "tensor/ops.hh"

int
main()
{
    using namespace pipelayer;
    using namespace pipelayer::reram;

    const DeviceParams params;

    // ---- 1. Weighted spike coding (paper Fig. 9a) ------------------
    std::cout << "1. spike driver: LSB-first weighted spike trains\n";
    const SpikeDriver driver(8);
    for (int64_t code : {5, 200, 255}) {
        const SpikeTrain train = driver.encode(code);
        std::cout << "   code " << code << " -> slots [";
        for (int t = 0; t < train.bits(); ++t)
            std::cout << (train.slots[static_cast<size_t>(t)] ? '1'
                                                              : '0');
        std::cout << "] (LSB first), " << train.spikeCount()
                  << " spikes, decodes to " << train.value() << "\n";
    }

    // ---- 2. Integrate-and-fire (paper Fig. 9b) ---------------------
    std::cout << "\n2. integrate-and-fire: counts are exact "
                 "charge totals\n";
    IntegrateFire inf;
    inf.integrate(3);
    inf.integrate(4 * 2); // a 2x stronger current fires 2x as often
    std::cout << "   integrated charges 3 and 8 -> counter = "
              << inf.count() << "\n";

    // ---- 3. A crossbar computes integer MVMs exactly ----------------
    std::cout << "\n3. crossbar: spike-driven dot products\n";
    CrossbarArray array(params);
    array.programCell(0, 0, 7); // g[row 0 -> col 0] = 7
    array.programCell(1, 0, 2);
    // One window of input codes over the first two word lines.
    const int64_t codes[] = {10, 100};
    std::vector<int64_t> out(static_cast<size_t>(array.cols()));
    array.matVecCodesBatch(SpikeBlock(codes, 1, 2, params.data_bits),
                           out.data());
    std::cout << "   [10 100] x [7 2]^T = " << out[0]
              << " (expect 270)\n";

    // ---- 4. Bit-sliced signed weights (paper Fig. 14) ---------------
    std::cout << "\n4. array group: 16-bit weights over 4-bit cells, "
                 "pos/neg subarrays\n";
    Rng rng(3);
    const Tensor w = Tensor::randn({4, 6}, rng);
    ArrayGroup group(params, w);
    std::cout << "   " << group.arrayCount()
              << " physical subarrays back a 4x6 signed matrix\n";

    Tensor x({6});
    for (int64_t i = 0; i < 6; ++i)
        x(i) = static_cast<float>(rng.uniform(-1.0, 1.0));

    const Tensor exact = ops::matVec(w, x);
    const Tensor analog = group.matVecBatch(x.reshape({1, 6}));
    std::cout << "   float result vs in-ReRAM result:\n";
    for (int64_t i = 0; i < 4; ++i) {
        std::cout << "     " << exact(i) << " vs " << analog(0, i)
                  << "\n";
    }
    std::cout << "   (differences are pure quantisation: weight LSB = "
              << group.weightScale() << ")\n";

    // ---- 4b. Activation unit (paper Fig. 9c) ------------------------
    std::cout << "\n4b. activation unit: subtractor + configurable LUT "
                 "+ max register\n";
    const ActivationUnit sigmoid = ActivationUnit::sigmoidLut(8);
    std::cout << "   sigmoid LUT (256 entries) at x = -2, 0, 2: "
              << sigmoid.apply(-2.0f) << ", " << sigmoid.apply(0.0f)
              << ", " << sigmoid.apply(2.0f) << " (exact: "
              << 1.0f / (1.0f + std::exp(2.0f)) << ", 0.5, "
              << 1.0f / (1.0f + std::exp(-2.0f)) << ")\n";
    ActivationUnit pool = ActivationUnit::relu();
    pool.resetMax();
    for (float v : {0.3f, 1.7f, 0.9f, 1.1f})
        pool.streamForMax(v);
    std::cout << "   max register over {0.3, 1.7, 0.9, 1.1} -> "
              << pool.maxValue() << " (max pooling, §4.2.3)\n";

    // ---- 5. In-ReRAM weight update (paper §4.4.2) -------------------
    std::cout << "\n5. read-subtract-write weight update\n";
    Tensor grad({4, 6}, 1.0f);
    const float before = group.readWeights()(0, 0);
    group.updateWeights(grad, /*lr=*/0.1f, /*batch_size=*/2);
    const float after = group.readWeights()(0, 0);
    std::cout << "   w[0,0]: " << before << " -> " << after
              << " (expected shift -0.05)\n";
    return 0;
}
