#include "models/factory.h"

#include "models/deep/bert_cache.h"
#include "models/deep/embedding_models.h"
#include "models/deep/mini_bert.h"
#include "models/deep/text_cnn.h"
#include "models/deep/text_lstm.h"
#include "models/simple/gbdt.h"
#include "models/simple/linear_svm.h"
#include "models/simple/logistic_regression.h"
#include "models/simple/naive_bayes.h"

namespace semtag::models {

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLr:
      return "LR";
    case ModelKind::kSvm:
      return "SVM";
    case ModelKind::kCnn:
      return "CNN";
    case ModelKind::kLstm:
      return "LSTM";
    case ModelKind::kBert:
      return "BERT";
    case ModelKind::kNaiveBayes:
      return "NB";
    case ModelKind::kXgboost:
      return "XGB";
    case ModelKind::kAlbert:
      return "ALBERT";
    case ModelKind::kRoberta:
      return "ROBERTA";
    case ModelKind::kLrEmbedding:
      return "LR+eb";
    case ModelKind::kSvmEmbedding:
      return "SVM+eb";
    case ModelKind::kCascade:
      return "CASCADE";
  }
  return "?";
}

Result<ModelKind> ModelKindFromName(const std::string& name) {
  static const ModelKind kAll[] = {
      ModelKind::kLr,          ModelKind::kSvm,
      ModelKind::kCnn,         ModelKind::kLstm,
      ModelKind::kBert,        ModelKind::kNaiveBayes,
      ModelKind::kXgboost,     ModelKind::kAlbert,
      ModelKind::kRoberta,     ModelKind::kLrEmbedding,
      ModelKind::kSvmEmbedding, ModelKind::kCascade};
  for (ModelKind kind : kAll) {
    if (name == ModelKindName(kind)) return kind;
  }
  return Status::NotFound("unknown model name: " + name);
}

bool IsDeep(ModelKind kind) {
  switch (kind) {
    case ModelKind::kCnn:
    case ModelKind::kLstm:
    case ModelKind::kBert:
    case ModelKind::kAlbert:
    case ModelKind::kRoberta:
      return true;
    default:
      return false;
  }
}

std::unique_ptr<TaggingModel> CreateModelSeeded(ModelKind kind,
                                                uint64_t seed) {
  switch (kind) {
    case ModelKind::kLr: {
      LrOptions options;
      options.seed = 17 + seed;
      return std::make_unique<LogisticRegression>(options);
    }
    case ModelKind::kSvm: {
      SvmOptions options;
      options.seed = 19 + seed;
      return std::make_unique<LinearSvm>(options);
    }
    case ModelKind::kCnn: {
      CnnOptions options;
      options.seed = 23 + seed;
      return std::make_unique<TextCnn>(options);
    }
    case ModelKind::kLstm: {
      LstmOptions options;
      options.seed = 29 + seed;
      return std::make_unique<TextLstm>(options);
    }
    case ModelKind::kBert: {
      BertFinetuneOptions options;
      options.seed = 7 + seed;
      return std::make_unique<MiniBert>(
          "BERT", GetPretrainedBackbone(BertVariant::kBert), options);
    }
    case ModelKind::kNaiveBayes:
      return std::make_unique<NaiveBayes>();
    case ModelKind::kXgboost:
      return std::make_unique<Gbdt>();
    case ModelKind::kAlbert: {
      BertFinetuneOptions options;
      options.seed = 37 + seed;
      return std::make_unique<MiniBert>(
          "ALBERT", GetPretrainedBackbone(BertVariant::kAlbert), options);
    }
    case ModelKind::kRoberta: {
      BertFinetuneOptions options;
      options.seed = 41 + seed;
      return std::make_unique<MiniBert>(
          "ROBERTA", GetPretrainedBackbone(BertVariant::kRoberta), options);
    }
    case ModelKind::kLrEmbedding: {
      EmbeddingLinearOptions options;
      options.seed = 31 + seed;
      return std::make_unique<EmbeddingLinearModel>(
          "LR+eb", &GetPretrainedBackbone(BertVariant::kBert), options);
    }
    case ModelKind::kSvmEmbedding: {
      EmbeddingLinearOptions options;
      options.hinge = true;
      options.seed = 43 + seed;
      return std::make_unique<EmbeddingLinearModel>(
          "SVM+eb", &GetPretrainedBackbone(BertVariant::kBert), options);
    }
    case ModelKind::kCascade:
      return nullptr;
  }
  return nullptr;
}

std::unique_ptr<TaggingModel> CreateModel(ModelKind kind) {
  return CreateModelSeeded(kind, 0);
}

const std::vector<ModelKind>& RepresentativeModels() {
  static const std::vector<ModelKind>& kModels =
      *new std::vector<ModelKind>{ModelKind::kLr, ModelKind::kSvm,
                                  ModelKind::kCnn, ModelKind::kLstm,
                                  ModelKind::kBert};
  return kModels;
}

}  // namespace semtag::models
