#ifndef SEMTAG_MODELS_FACTORY_H_
#define SEMTAG_MODELS_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "models/model.h"

namespace semtag::models {

/// Every model the study evaluates. The first five are the paper's
/// representative models; the rest appear in the appendix comparisons.
enum class ModelKind {
  kLr,
  kSvm,
  kCnn,
  kLstm,
  kBert,
  kNaiveBayes,
  kXgboost,
  kAlbert,
  kRoberta,
  kLrEmbedding,   // LR + pretrained [CLS] embeddings (Table 6)
  kSvmEmbedding,  // SVM + pretrained [CLS] embeddings
  kCascade,       // confidence-gated simple->deep cascade (core/cascade.h)
};

/// Display name, e.g. "LR", "BERT", "LR+eb".
const char* ModelKindName(ModelKind kind);

/// Parses a display name back to a kind.
Result<ModelKind> ModelKindFromName(const std::string& name);

/// True for CNN/LSTM/BERT/ALBERT/ROBERTA.
bool IsDeep(ModelKind kind);

/// Creates a fresh untrained model with the study's default
/// hyper-parameters (Section 5.1). Transformer kinds pull the shared
/// pretrained backbone from the cache (first use may pretrain). kCascade
/// returns nullptr: the cascade lives in core/, above this layer, and its
/// callers construct core::Cascade with the options they mean.
std::unique_ptr<TaggingModel> CreateModel(ModelKind kind);

/// Like CreateModel with a per-run seed so repetitions differ (Figure 13).
std::unique_ptr<TaggingModel> CreateModelSeeded(ModelKind kind,
                                                uint64_t seed);

/// The five representative models of the main study, in paper order.
const std::vector<ModelKind>& RepresentativeModels();

}  // namespace semtag::models

#endif  // SEMTAG_MODELS_FACTORY_H_
