#include "data/drift.h"

#include "common/logging.h"
#include "data/generator.h"
#include "data/specs.h"

namespace semtag::data {
namespace {

/// Rotates a topic id by `shift` positions within the language's topic
/// space, skipping nothing: the generator clamps unusable ids itself.
int RotateTopic(int topic, int shift, int num_topics) {
  if (num_topics <= 0) return topic;
  return ((topic + shift) % num_topics + num_topics) % num_topics;
}

}  // namespace

std::vector<DriftRecord> GenerateDriftStream(const DriftScenario& scenario) {
  auto spec = FindSpec(scenario.base_dataset);
  SEMTAG_CHECK(spec.ok());
  const GeneratorConfig base = spec->generator;
  const int num_topics = SharedLanguage().num_topics();

  std::vector<DriftRecord> stream;
  for (size_t i = 0; i < scenario.segments.size(); ++i) {
    const DriftSegment& segment = scenario.segments[i];
    GeneratorConfig config = base;
    // Independent stream per segment: editing segment k leaves every other
    // segment's bytes untouched, which the bit-identity tests rely on.
    config.seed = scenario.seed * 1000003ULL + i * 9176ULL;
    config.entity_rate += segment.entity_rate;
    config.entity_signal += segment.entity_signal;
    if (segment.entity_pool_size > 0) {
      config.entity_pool_size = segment.entity_pool_size;
    }
    config.neg_contamination += segment.neg_contamination;
    config.pos_contamination += segment.pos_contamination;
    if (segment.vocab_shift != 0) {
      config.signal_topic =
          RotateTopic(config.signal_topic, segment.vocab_shift, num_topics);
      for (int& topic : config.positive_topics) {
        topic = RotateTopic(topic, segment.vocab_shift, num_topics);
      }
      if (config.negative_signal_topic >= 0) {
        config.negative_signal_topic = RotateTopic(
            config.negative_signal_topic, segment.vocab_shift, num_topics);
      }
    }
    Dataset dataset =
        GenerateDataset(SharedLanguage(), config,
                        segment.label.empty()
                            ? scenario.base_dataset
                            : segment.label,
                        segment.records, segment.positive_ratio);
    for (size_t r = 0; r < dataset.size(); ++r) {
      DriftRecord record;
      record.text = dataset[r].text;
      record.label = dataset[r].label;
      record.segment = static_cast<int>(i);
      stream.push_back(std::move(record));
    }
  }
  return stream;
}

}  // namespace semtag::data
