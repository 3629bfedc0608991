/**
 * @file
 * Loss functions, paper §2.2: the L2-norm loss
 * J = 1/2 ||y - t||^2 and the softmax (cross-entropy) loss.
 * Each returns the scalar loss and the error δ_L at the network
 * output that seeds the backward pass.
 */

#ifndef PIPELAYER_NN_LOSS_HH_
#define PIPELAYER_NN_LOSS_HH_

#include <cstdint>

#include "tensor/tensor.hh"

namespace pipelayer {
namespace nn {

/** Result of a loss evaluation. */
struct LossResult
{
    double loss = 0.0; //!< scalar J
    Tensor delta; //!< ∂J/∂y at the network output (pre-activation-mask)
};

/** Loss selector used by network configs. */
enum class LossKind { L2, Softmax };

/**
 * L2-norm loss J = 1/2 ||y - t||^2 with δ = (y - t).
 *
 * @param output network output y.
 * @param target one-hot (or regression) target t, same shape.
 */
LossResult l2Loss(const Tensor &output, const Tensor &target);

/**
 * Softmax + cross-entropy loss.  δ = softmax(y) - onehot(label),
 * the standard combined gradient.
 *
 * @param output pre-softmax logits (rank-1).
 * @param label  class index in [0, output.numel()).
 */
LossResult softmaxLoss(const Tensor &output, int64_t label);

/**
 * The loss @p kind of a network output against class @p label: the
 * softmax loss, or the L2 loss against the one-hot target.  Every
 * trainer seeds δ_L through this one function.
 */
LossResult lossFor(LossKind kind, const Tensor &output, int64_t label);

/** Numerically-stable softmax of a rank-1 tensor. */
Tensor softmax(const Tensor &logits);

} // namespace nn
} // namespace pipelayer

#endif // PIPELAYER_NN_LOSS_HH_
