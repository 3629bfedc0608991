/**
 * @file
 * Quantisation-aware training with analog master accumulation.
 *
 * PipeLayer's weight update (paper §4.4.2) programs the *averaged
 * partial derivative* onto the cell conductance: small updates
 * accumulate in the analog domain even when the readable resolution
 * is only cell-resolution wide.  This trainer models that: forward
 * and backward run against the N-bit *readable* weights, while the
 * updates accumulate into full-precision master (conductance)
 * weights.  bits == 0 degenerates to ordinary float training.
 */

#ifndef PIPELAYER_QUANT_QAT_HH_
#define PIPELAYER_QUANT_QAT_HH_

#include <cstdint>

#include "nn/network.hh"
#include "nn/trainer.hh"

namespace pipelayer {

class Rng;

namespace quant {

/** Configuration of a quantised training run. */
struct QatConfig
{
    int bits = 4;          //!< readable weight resolution (0 = float)
    int64_t epochs = 10;
    int64_t batch_size = 10;
    float learning_rate = 0.1f;
};

/** Outcome of a quantised training run. */
struct QatResult
{
    double test_accuracy = 0.0;
    double final_loss = 0.0;
};

/**
 * Train @p net on @p train at the given readable resolution and
 * evaluate on @p test; the network is left holding the quantised
 * deployment weights.
 *
 * The epochs run nn::train on a private copy of @p train, with a
 * batch step that deploys the readable weights, runs trainBatch and
 * accumulates the applied update into the master weights; so batches
 * follow nn::train's rules (a trailing partial batch included) and
 * final_loss is the last epoch's per-image losses summed in image
 * order, over n.  The final weights are deployed before scoring.
 *
 * @param train starting sample order; each epoch shuffles the
 *        private copy, so @p train itself is left as given.
 * @param rng drives the per-epoch shuffling (deterministic; the draws
 *        depend only on the sample count, not on the data).
 */
QatResult trainQuantized(nn::Network &net, const nn::Dataset &train,
                         const nn::Dataset &test, const QatConfig &config,
                         Rng &rng);

} // namespace quant
} // namespace pipelayer

#endif // PIPELAYER_QUANT_QAT_HH_
