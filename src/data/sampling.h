#ifndef SEMTAG_DATA_SAMPLING_H_
#define SEMTAG_DATA_SAMPLING_H_

#include "common/rng.h"
#include "data/dataset.h"

namespace semtag::data {

/// Draws `n` records with an exact positive ratio `r` from `source`
/// (Section 6.2.2's protocol: for each ratio, sample r*n positives and
/// (1-r)*n negatives). Records are sampled with replacement only when a
/// class pool is too small (oversampling, as in the Imbalanced-learn
/// appendix experiment); otherwise without replacement.
Dataset SampleWithRatio(const Dataset& source, size_t n, double r, Rng* rng);

/// Drops negatives uniformly at random until the positive ratio reaches
/// `target_ratio` (how FUNNY* / BOOK* were derived from FUNNY / BOOK).
/// No-op when the dataset is already at or above the target.
Dataset UndersampleNegatives(const Dataset& source, double target_ratio,
                             Rng* rng);

}  // namespace semtag::data

#endif  // SEMTAG_DATA_SAMPLING_H_
