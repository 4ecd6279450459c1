#include <unordered_set>

#include <gtest/gtest.h>

#include "data/generator.h"
#include "data/specs.h"
#include "text/tokenizer.h"

namespace semtag::data {
namespace {

GeneratorConfig TestConfig() {
  GeneratorConfig config;
  config.bg_vocab = 2000;
  config.signal_topic = 22;
  config.positive_topics = {23, 24};
  config.negative_topics = {25, 26};
  config.signal_strength = 0.3;
  config.signal_leak = 0.2;
  config.seed = 77;
  return config;
}

TEST(LanguageTest, DeterministicWords) {
  const Language& lang = SharedLanguage();
  EXPECT_EQ(lang.Word(0), "the");
  EXPECT_GT(lang.num_topics(), 40);
  // Topic 0 starts right after the stopwords with sentiment words.
  EXPECT_EQ(lang.Word(lang.TopicWordId(0, 0)), "great");
  EXPECT_EQ(lang.Word(lang.TopicWordId(1, 0)), "bad");
}

TEST(LanguageTest, EntityNamesAreCapitalizedAndDiverse) {
  std::unordered_set<std::string> names;
  for (uint64_t i = 0; i < 1000; ++i) {
    const std::string name = Language::EntityName(i);
    EXPECT_TRUE(isupper(static_cast<unsigned char>(name[0])));
    names.insert(name);
  }
  EXPECT_EQ(names.size(), 1000u);  // open vocabulary: all distinct
}

TEST(GenerateDatasetTest, ExactObservedRatio) {
  const Dataset d =
      GenerateDataset(SharedLanguage(), TestConfig(), "t", 1000, 0.2);
  EXPECT_EQ(d.size(), 1000u);
  EXPECT_EQ(d.PositiveCount(), 200);
}

TEST(GenerateDatasetTest, DeterministicUnderSeed) {
  const Dataset a =
      GenerateDataset(SharedLanguage(), TestConfig(), "t", 50, 0.5);
  const Dataset b =
      GenerateDataset(SharedLanguage(), TestConfig(), "t", 50, 0.5);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].text, b[i].text);
    EXPECT_EQ(a[i].label, b[i].label);
  }
}

TEST(GenerateDatasetTest, CleanLabelsMatchTrueLabels) {
  const Dataset d =
      GenerateDataset(SharedLanguage(), TestConfig(), "t", 500, 0.3);
  for (const auto& e : d.examples()) EXPECT_EQ(e.label, e.true_label);
}

TEST(GenerateDatasetTest, ContaminationFlipsSomeNegatives) {
  GeneratorConfig config = TestConfig();
  config.neg_contamination = 0.3;
  const Dataset d =
      GenerateDataset(SharedLanguage(), config, "dirty", 2000, 0.1);
  int contaminated = 0;
  int clean_neg = 0;
  for (const auto& e : d.examples()) {
    if (e.label == 0) {
      if (e.true_label == 1) ++contaminated;
      else ++clean_neg;
    } else {
      EXPECT_EQ(e.true_label, 1);  // pos_contamination is 0
    }
  }
  const double rate =
      contaminated / static_cast<double>(contaminated + clean_neg);
  EXPECT_NEAR(rate, 0.3, 0.04);
}

TEST(GenerateDatasetTest, SignalWordsSeparateClasses) {
  const GeneratorConfig config = TestConfig();
  const Dataset d =
      GenerateDataset(SharedLanguage(), config, "t", 2000, 0.5);
  const Language& lang = SharedLanguage();
  std::unordered_set<std::string> signal_words;
  for (int k = 0; k < Language::kTopicSize; ++k) {
    signal_words.insert(lang.Word(lang.TopicWordId(config.signal_topic, k)));
  }
  int64_t pos_docs_with_signal = 0;
  int64_t neg_docs_with_signal = 0;
  int64_t pos_docs = 0;
  int64_t neg_docs = 0;
  for (const auto& e : d.examples()) {
    bool has = false;
    for (const auto& tok : text::Tokenize(e.text)) {
      if (signal_words.count(tok)) {
        has = true;
        break;
      }
    }
    if (e.label == 1) {
      ++pos_docs;
      pos_docs_with_signal += has;
    } else {
      ++neg_docs;
      neg_docs_with_signal += has;
    }
  }
  const double p = pos_docs_with_signal / static_cast<double>(pos_docs);
  const double n = neg_docs_with_signal / static_cast<double>(neg_docs);
  EXPECT_GT(p, n + 0.3);  // strong class-conditional gap
}

TEST(GenerateDatasetTest, EntitySignalIntroducesNames) {
  GeneratorConfig config = TestConfig();
  config.entity_signal = 0.9;
  const Dataset d =
      GenerateDataset(SharedLanguage(), config, "t", 300, 0.5);
  int with_capital = 0;
  for (const auto& e : d.examples()) {
    if (e.label != 1) continue;
    for (char c : e.text) {
      if (isupper(static_cast<unsigned char>(c))) {
        ++with_capital;
        break;
      }
    }
  }
  EXPECT_GT(with_capital, 50);
}

TEST(GenerateDatasetTest, ConjunctionModeBalancesUnigramStatistics) {
  // In pure conjunction mode, each of the two positive topics appears in
  // positives AND negatives; only the co-occurrence differs. Verify the
  // per-document topic occurrence rates are close across classes while
  // co-occurrence separates them.
  GeneratorConfig config = TestConfig();
  config.signal_strength = 0.0;
  config.conjunction = 1.0;
  const Dataset d =
      GenerateDataset(SharedLanguage(), config, "conj", 3000, 0.5);
  const Language& lang = SharedLanguage();
  auto topic_words = [&](int topic) {
    std::unordered_set<std::string> words;
    for (int k = 0; k < Language::kTopicSize; ++k) {
      words.insert(lang.Word(lang.TopicWordId(topic, k)));
    }
    return words;
  };
  const auto words_a = topic_words(config.positive_topics[0]);
  const auto words_b = topic_words(config.positive_topics[1]);
  int64_t pos_both = 0, neg_both = 0, pos_any = 0, neg_any = 0;
  int64_t pos = 0, neg = 0;
  for (const auto& e : d.examples()) {
    bool has_a = false, has_b = false;
    for (const auto& tok : text::Tokenize(e.text)) {
      has_a |= words_a.count(tok) > 0;
      has_b |= words_b.count(tok) > 0;
    }
    if (e.label == 1) {
      ++pos;
      pos_both += has_a && has_b;
      pos_any += has_a || has_b;
    } else {
      ++neg;
      neg_both += has_a && has_b;
      neg_any += has_a || has_b;
    }
  }
  // Any-topic presence is symmetric (unigram stats balanced)...
  EXPECT_NEAR(static_cast<double>(pos_any) / pos,
              static_cast<double>(neg_any) / neg, 0.06);
  // ...but both-topics co-occurrence separates the classes sharply.
  EXPECT_GT(static_cast<double>(pos_both) / pos,
            static_cast<double>(neg_both) / neg + 0.4);
}

TEST(GenerateDatasetTest, EntityPoolSizeControlsNameRecurrence) {
  GeneratorConfig config = TestConfig();
  config.entity_signal = 1.0;
  config.signal_strength = 0.3;
  auto distinct_names = [&](int pool) {
    GeneratorConfig c = config;
    c.entity_pool_size = pool;
    const Dataset d =
        GenerateDataset(SharedLanguage(), c, "names", 400, 0.5);
    // Names are the capitalised alphanumeric runs (Tokenize lowercases,
    // so scan the raw text).
    std::unordered_set<std::string> names;
    for (const auto& e : d.examples()) {
      std::string word;
      for (const char ch : e.text + " ") {
        if (isalnum(static_cast<unsigned char>(ch))) {
          word.push_back(ch);
          continue;
        }
        if (!word.empty() && isupper(static_cast<unsigned char>(word[0]))) {
          names.insert(word);
        }
        word.clear();
      }
    }
    return names.size();
  };
  // A big pool yields far more distinct names (less recurrence).
  EXPECT_GT(distinct_names(5000), distinct_names(16) * 3);
}

TEST(PretrainCorpusTest, CoversManyTopicsAndIsDeterministic) {
  const auto corpus =
      GeneratePretrainCorpus(SharedLanguage(), 200, 12, 42);
  EXPECT_EQ(corpus.size(), 200u);
  const auto corpus2 =
      GeneratePretrainCorpus(SharedLanguage(), 200, 12, 42);
  EXPECT_EQ(corpus, corpus2);
  std::unordered_set<std::string> vocab;
  for (const auto& s : corpus) {
    for (auto& t : text::Tokenize(s)) vocab.insert(t);
  }
  EXPECT_GT(vocab.size(), 500u);  // broad coverage of the language
}

}  // namespace
}  // namespace semtag::data
