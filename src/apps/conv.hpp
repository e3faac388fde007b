/**
 * @file
 * Sparse-sparse convolution (Table 2, Conv).
 *
 * Iterates non-zero input activations with the scanner (loop 1,
 * sparse(In)), then the pruned kernel's non-zeros for that input channel
 * (loop 2), scattering atomic accumulations into the output plane:
 *   Out[oC, r+rK, c+cK] += In[iC, r, c] * K[iC][rK, cK, oC].
 * Spatial output tiles own row bands; halo contributions cross tiles
 * through the shuffle network, which is why Conv exercises it so hard
 * (Table 11).
 */

#pragma once

#include "apps/common.hpp"
#include "workloads/synth.hpp"

namespace capstan::apps {

using workloads::ConvLayer;

/**
 * Golden scalar reference ("same" padding, stride 1); the output is
 * (outCh, dim, dim).
 */
sparse::DenseTensor3 convReference(const ConvLayer &layer);

/** Sparse convolution on Capstan. */
AppTiming runConv(const ConvLayer &layer, const CapstanConfig &cfg,
                  int tiles);

} // namespace capstan::apps

