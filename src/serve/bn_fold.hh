/**
 * @file
 * Inference-only Conv+BN folding. At deployment the BatchNorm eval
 * affine is a frozen per-channel function of the running statistics,
 * so it fuses into the preceding convolution's epilogue: the conv
 * applies BatchNorm2d's exact elementwise formula right after its
 * rescale/bias pass and the BN layer degrades to an identity. One
 * fewer full activation-tensor walk (and one fewer slab-placed
 * buffer) per conv block, with bit-identical outputs — the epilogue
 * replicates the BN eval operation order per element, it does not
 * refactor the scales.
 *
 * The rewrite mutates the live module tree (no graph copy): it pairs
 * every Conv2d that is *immediately* followed by a BatchNorm2d in
 * its parent's children() order. Depthwise convolutions keep their
 * BN (no epilogue path there yet). Folding a model whose training
 * would continue is an error caught by BatchNorm2d itself: a
 * training forward through a folded BN panics.
 */

#ifndef MIXQ_SERVE_BN_FOLD_HH
#define MIXQ_SERVE_BN_FOLD_HH

#include <cstddef>

#include "nn/module.hh"

namespace mixq {

/**
 * Fold every (Conv2d -> BatchNorm2d) adjacent pair under @p root
 * into the conv's eval epilogue and switch those BN layers to
 * folded-identity mode. Returns the number of pairs folded.
 * Idempotent: already-folded pairs are skipped.
 */
size_t foldBatchNormForEval(Module& root);

/** Undo foldBatchNormForEval() (test/AB-comparison helper). */
size_t unfoldBatchNormForEval(Module& root);

} // namespace mixq

#endif // MIXQ_SERVE_BN_FOLD_HH
