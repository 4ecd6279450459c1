#ifndef SEMTAG_DATA_DRIFT_H_
#define SEMTAG_DATA_DRIFT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.h"

namespace semtag::data {

/// One phase of a drift scenario: a contiguous run of records drawn from a
/// perturbed copy of the base dataset's generator. Every knob defaults to
/// "no perturbation", so a scenario's first segment typically reproduces
/// the training distribution and later segments move one or more of the
/// paper's axes (label ratio, cleanliness, vocabulary).
struct DriftSegment {
  std::string label;           // for test assertions / bench reporting
  int records = 256;           // records emitted by this segment
  double positive_ratio = 0.5; // observed label ratio for this phase

  /// Cleanliness-decay knobs (additive on the base config): open-vocab
  /// entity soup (the BOOK effect) and label contamination.
  double entity_rate = 0.0;
  double entity_signal = 0.0;
  int entity_pool_size = 0;    // 0 = keep the base config's pool
  double neg_contamination = 0.0;
  double pos_contamination = 0.0;

  /// Vocabulary churn: rotates the signal/content topics by this many
  /// positions (modulo the language's topic count), so the informative
  /// lexicon the served model learned goes stale while sentences stay
  /// well-formed.
  int vocab_shift = 0;
};

/// A deterministic, seeded schedule of segments over one base dataset.
struct DriftScenario {
  std::string base_dataset = "HETER";
  uint64_t seed = 7;
  std::vector<DriftSegment> segments;
};

/// One record of the generated stream, tagged with its segment index so
/// tests can assert exactly where a detector fired.
struct DriftRecord {
  std::string text;
  int label = 0;
  int segment = 0;
};

/// Expands a scenario into its full record stream, in schedule order.
/// Pure function of the scenario: same scenario -> byte-identical stream,
/// whatever thread count or SIMD lane the caller runs under (each segment
/// draws from its own Rng seeded as seed*1000003 + index*9176, so editing
/// one segment never perturbs another).
std::vector<DriftRecord> GenerateDriftStream(const DriftScenario& scenario);

}  // namespace semtag::data

#endif  // SEMTAG_DATA_DRIFT_H_
