#include "la/init.h"

#include <cmath>

namespace semtag::la {

void XavierUniform(Matrix* m, Rng* rng) {
  const double fan_in = static_cast<double>(m->rows());
  const double fan_out = static_cast<double>(m->cols());
  const double limit = std::sqrt(6.0 / (fan_in + fan_out));
  for (size_t i = 0; i < m->size(); ++i) {
    m->data()[i] = static_cast<float>(rng->UniformDouble(-limit, limit));
  }
}

void GaussianInit(Matrix* m, Rng* rng, float stddev) {
  for (size_t i = 0; i < m->size(); ++i) {
    m->data()[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
}

}  // namespace semtag::la
