#include "models/deep/bert_cache.h"

#include <filesystem>
#include <map>
#include <mutex>

#include "common/file_io.h"
#include "common/logging.h"
#include "common/timer.h"
#include "config/runtime_config.h"
#include "data/generator.h"
#include "data/specs.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "text/vocabulary.h"

namespace semtag::models {

namespace {

/// Pretraining-scale constants (see DESIGN.md "Scaling").
constexpr int kCorpusSentences = 6000;
constexpr int kCorpusAvgLen = 16;
constexpr uint64_t kCorpusSeed = 999;
constexpr int kRobertaCorpusSentences = 8000;
/// Bump to invalidate cached checkpoints after pretraining or checkpoint
/// format changes (v4: CRC32-footer crash-safe format; v5: one fused
/// Q|K|V projection per encoder layer).
constexpr int kPretrainVersion = 5;

struct VariantSetup {
  BertConfig config;
  PretrainOptions pretrain;
  int corpus_sentences;
};

VariantSetup SetupFor(BertVariant variant) {
  VariantSetup s;
  s.corpus_sentences = kCorpusSentences;
  switch (variant) {
    case BertVariant::kBert:
      s.config.seed = 11;
      s.pretrain.seed = 99;
      s.pretrain.epochs = 12;
      break;
    case BertVariant::kAlbert:
      s.config.seed = 12;
      s.config.share_layers = true;
      s.pretrain.seed = 199;
      s.pretrain.epochs = 12;
      break;
    case BertVariant::kRoberta:
      s.config.seed = 13;
      s.pretrain.seed = 299;
      s.pretrain.epochs = 14;
      s.corpus_sentences = kRobertaCorpusSentences;
      break;
  }
  return s;
}

text::Vocabulary PretrainVocabulary(const std::vector<std::string>& corpus) {
  text::VocabularyBuilder builder;
  for (const auto& s : corpus) {
    builder.AddDocument(text::Tokenize(s));
  }
  return builder.Build(/*min_count=*/2, /*max_size=*/8000);
}

}  // namespace

const char* BertVariantName(BertVariant variant) {
  switch (variant) {
    case BertVariant::kBert:
      return "BERT";
    case BertVariant::kAlbert:
      return "ALBERT";
    case BertVariant::kRoberta:
      return "ROBERTA";
  }
  return "?";
}

std::string CacheDir() {
  const std::string& dir = GetRuntimeConfig().cache_dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    SEMTAG_LOG(kWarning, "cannot create cache dir %s: %s", dir.c_str(),
               ec.message().c_str());
  }
  return dir;
}

bool LoadOrPretrain(
    const std::string& checkpoint, MiniBertBackbone* backbone,
    const std::function<void(MiniBertBackbone*)>& pretrain) {
  auto params = backbone->Parameters();
  auto load = [&] {
    if (!nn::LoadCheckpoint(checkpoint, &params).ok()) return false;
    SEMTAG_OBS_COUNT("bert_cache/disk_hits", 1);
    SEMTAG_LOG(kInfo, "loaded pretrained backbone from %s",
               checkpoint.c_str());
    return true;
  };
  // Warm cache: no lock needed (saves are atomic renames).
  if (load()) return true;
  // Miss: another process may be pretraining this checkpoint right now.
  // Its lock is held across pretrain-and-save, so once ours is granted
  // the file is either there or nobody is making it.
  const FileLock lock(checkpoint);
  if (load()) return true;
  SEMTAG_OBS_COUNT("bert_cache/pretrains", 1);
  pretrain(backbone);
  const Status save = nn::SaveCheckpoint(checkpoint, backbone->Parameters());
  if (!save.ok()) {
    SEMTAG_LOG(kWarning, "cannot save checkpoint: %s",
               save.ToString().c_str());
  }
  return false;
}

const MiniBertBackbone& GetPretrainedBackbone(BertVariant variant) {
  // Parallel cross-validation folds and experiment cells all reach for the
  // shared backbones concurrently; the mutex makes the checkpoint
  // load-or-pretrain-and-save step happen exactly once per variant in this
  // process (LoadOrPretrain's file lock does the same across processes).
  // Returned references are safe to share: fine-tuning clones the backbone
  // and never mutates the cached copy.
  static std::mutex& mu = *new std::mutex();
  static std::map<BertVariant, std::unique_ptr<MiniBertBackbone>>& cache =
      *new std::map<BertVariant, std::unique_ptr<MiniBertBackbone>>();
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(variant);
  if (it != cache.end()) {
    SEMTAG_OBS_COUNT("bert_cache/mem_hits", 1);
    return *it->second;
  }

  const VariantSetup setup = SetupFor(variant);
  const auto corpus = data::GeneratePretrainCorpus(
      data::SharedLanguage(), setup.corpus_sentences, kCorpusAvgLen,
      kCorpusSeed);
  auto backbone = std::make_unique<MiniBertBackbone>(
      setup.config, PretrainVocabulary(corpus));

  const std::string checkpoint =
      CacheDir() + "/pretrained_" + BertVariantName(variant) + "_v" +
      std::to_string(kPretrainVersion) + ".bin";
  auto pretrain = [&](MiniBertBackbone* b) {
    SEMTAG_LOG(kInfo, "pretraining %s with MLM (%d sentences, %d epochs)...",
               BertVariantName(variant), setup.corpus_sentences,
               setup.pretrain.epochs);
    WallTimer timer;
    b->Pretrain(corpus, setup.pretrain);
    SEMTAG_LOG(kInfo, "pretrained %s in %.1fs", BertVariantName(variant),
               timer.ElapsedSeconds());
  };
  LoadOrPretrain(checkpoint, backbone.get(), pretrain);
  const MiniBertBackbone& ref = *backbone;
  cache[variant] = std::move(backbone);
  return ref;
}

}  // namespace semtag::models
