// Tip mining (the paper's Section 2.1 application): tag tip-conveying
// sentences in a stream of reviews, compare a simple and a deep tagger on
// the same data, and show the precision/recall trade-off of each.
//
//   ./build/examples/tip_mining

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/string_util.h"
#include "core/experiment.h"
#include "core/pipeline.h"
#include "data/specs.h"
#include "eval/metrics.h"

int main() {
  using namespace semtag;

  // The HOTEL stand-in: hotel-review sentences, 5.4% of which give a tip.
  const data::DatasetSpec spec = *data::FindSpec("HOTEL");
  data::Dataset reviews = data::BuildDataset(spec);
  Rng rng(7);
  reviews.Shuffle(&rng);
  auto [labeled, incoming] = reviews.Split(0.8);
  std::printf("labeled: %zu sentences (%.1f%% tips); incoming stream: %zu\n\n",
              labeled.size(), 100 * labeled.PositiveRatio(),
              incoming.size());

  // Train one tagger per family. Tips are rare, so calibrate thresholds
  // on validation data (the appendix technique for imbalanced tags).
  struct Candidate {
    const char* label;
    models::ModelKind kind;
  };
  const Candidate candidates[] = {
      {"simple (SVM)", models::ModelKind::kSvm},
      {"deep (BERT)", models::ModelKind::kBert},
  };
  for (const auto& candidate : candidates) {
    core::TaggerOptions options;
    options.auto_select_model = false;
    options.model = candidate.kind;
    options.calibrate_threshold = true;
    auto tagger = core::SemanticTagger::Train(labeled, options);
    if (!tagger.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", candidate.label,
                   tagger.status().ToString().c_str());
      continue;
    }
    // Tag the incoming stream and score against its (held-out) labels.
    std::vector<int> predictions;
    predictions.reserve(incoming.size());
    for (const auto& e : incoming.examples()) {
      predictions.push_back((*tagger)->Tag(e.text) ? 1 : 0);
    }
    const auto confusion =
        eval::ComputeConfusion(incoming.Labels(), predictions);
    std::printf("%-13s  tips flagged %lld / %lld actual   precision %.2f  "
                "recall %.2f  F1 %.2f   (trained in %s)\n",
                candidate.label,
                static_cast<long long>(confusion.tp + confusion.fp),
                static_cast<long long>(confusion.tp + confusion.fn),
                confusion.Precision(),
                confusion.Recall(), confusion.F1(),
                semtag::HumanSeconds((*tagger)->validation().train_seconds)
                    .c_str());

    // Show the top-scored tips, the product surface of Section 2.1.
    std::vector<std::pair<double, const data::Example*>> scored;
    for (const auto& e : incoming.examples()) {
      scored.emplace_back((*tagger)->Score(e.text), &e);
    }
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::printf("  top tips:\n");
    for (int i = 0; i < 3 && i < static_cast<int>(scored.size()); ++i) {
      std::string text = scored[static_cast<size_t>(i)].second->text;
      if (text.size() > 70) text = text.substr(0, 67) + "...";
      std::printf("   %d. [label=%d] %s\n", i + 1,
                  scored[static_cast<size_t>(i)].second->label,
                  text.c_str());
    }
    std::printf("\n");
  }
  std::printf("Per the study: on a dataset this small, the deep tagger "
              "buys real F1; at millions of reviews the simple one "
              "catches up at a fraction of the cost.\n");
  return 0;
}
