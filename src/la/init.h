#ifndef SEMTAG_LA_INIT_H_
#define SEMTAG_LA_INIT_H_

#include "common/rng.h"
#include "la/matrix.h"

namespace semtag::la {

/// Fills `m` with U(-limit, limit), limit = sqrt(6 / (fan_in + fan_out))
/// (Glorot/Xavier uniform), the standard initializer for tanh/linear layers.
void XavierUniform(Matrix* m, Rng* rng);

/// Fills `m` with N(0, stddev).
void GaussianInit(Matrix* m, Rng* rng, float stddev);

}  // namespace semtag::la

#endif  // SEMTAG_LA_INIT_H_
