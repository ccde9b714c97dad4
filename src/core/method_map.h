/**
 * @file
 * The one table tying the three strategy vocabularies together: a
 * convolution strategy (ConvMethod, the Fig. 22 legend) is exactly a
 * registry method plus a lowering choice. Both directions of the
 * mapping read this table — the hand-kept switches that used to live
 * in engine.cc, backends.cc and runner.cc are gone, so adding a
 * strategy means adding one row here.
 */
#ifndef DSTC_CORE_METHOD_MAP_H
#define DSTC_CORE_METHOD_MAP_H

#include "core/kernel_request.h"

namespace dstc {

/**
 * Conv strategy of a (registry method, lowering) pair. Panics for
 * methods with no convolution strategy (Ampere, cuSPARSE) or pairs
 * the design rules out (dual-sparse is inherently implicit);
 * Backend::supports gates both before planning.
 */
ConvMethod toConvMethod(Method method, Lowering lowering);

/** Registry method + lowering of a conv strategy. */
void splitConvMethod(ConvMethod conv, Method *method,
                     Lowering *lowering);

} // namespace dstc

#endif // DSTC_CORE_METHOD_MAP_H
