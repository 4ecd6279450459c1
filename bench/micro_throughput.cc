// google-benchmark microbenchmarks of the pipeline's building blocks:
// tokenization, BoW featurization, simple-model epochs, and deep-model
// training steps. These quantify the per-record cost asymmetry behind
// Figure 4(b)'s 30x-130x deep/simple training-time gap.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "config/runtime_config.h"
#include "data/generator.h"
#include "data/specs.h"
#include "models/deep/mini_bert.h"
#include "models/deep/text_cnn.h"
#include "models/deep/text_lstm.h"
#include "models/simple/linear_svm.h"
#include "models/simple/logistic_regression.h"
#include "la/buffer_pool.h"
#include "la/init.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "text/bow_vectorizer.h"
#include "text/tokenizer.h"
#include "text/vocabulary.h"

namespace semtag {
namespace {

data::Dataset BenchDataset(int n) {
  data::GeneratorConfig config;
  config.bg_vocab = 2000;
  config.signal_topic = 16;
  config.positive_topics = {17, 18};
  config.negative_topics = {19, 20};
  config.seed = 99;
  return data::GenerateDataset(data::SharedLanguage(), config, "bench", n,
                               0.5);
}

void BM_Tokenize(benchmark::State& state) {
  const data::Dataset d = BenchDataset(256);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::Tokenize(d[i % d.size()].text));
    ++i;
  }
}
BENCHMARK(BM_Tokenize);

void BM_BowTransform(benchmark::State& state) {
  const data::Dataset d = BenchDataset(1024);
  text::BowVectorizer vectorizer;
  vectorizer.Fit(d.Texts());
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vectorizer.Transform(d[i % d.size()].text));
    ++i;
  }
}
BENCHMARK(BM_BowTransform);

void BM_BowFit(benchmark::State& state) {
  const data::Dataset d = BenchDataset(static_cast<int>(state.range(0)));
  const auto texts = d.Texts();
  for (auto _ : state) {
    text::BowVectorizer vectorizer;
    vectorizer.Fit(texts);
    benchmark::DoNotOptimize(vectorizer.num_features());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BowFit)->Arg(256)->Arg(1024)->Iterations(5);

void BM_TrainLogisticRegression(benchmark::State& state) {
  const data::Dataset d = BenchDataset(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    models::LogisticRegression model;
    SEMTAG_CHECK(model.Train(d).ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrainLogisticRegression)->Arg(512)->Arg(2048)->Iterations(3);

void BM_TrainLinearSvm(benchmark::State& state) {
  const data::Dataset d = BenchDataset(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    models::LinearSvm model;
    SEMTAG_CHECK(model.Train(d).ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TrainLinearSvm)->Arg(512)->Arg(2048)->Iterations(3);

void BM_TrainTextCnnEpoch(benchmark::State& state) {
  const data::Dataset d = BenchDataset(256);
  for (auto _ : state) {
    models::CnnOptions options;
    options.epochs = 1;
    options.min_optimizer_steps = 8;  // exactly one pass over 256 records
    models::TextCnn model(options);
    SEMTAG_CHECK(model.Train(d).ok());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_TrainTextCnnEpoch)->Iterations(1);

void BM_TrainTextLstmEpoch(benchmark::State& state) {
  const data::Dataset d = BenchDataset(256);
  for (auto _ : state) {
    models::LstmOptions options;
    options.epochs = 1;
    options.min_optimizer_steps = 8;  // exactly one pass over 256 records
    models::TextLstm model(options);
    SEMTAG_CHECK(model.Train(d).ok());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_TrainTextLstmEpoch)->Iterations(1);

/// Attaches BufferPool allocations/step counters to a training-step
/// benchmark. In steady state (pool warm) allocs_per_step must be 0.
void SetPoolCounters(benchmark::State& state,
                     const la::BufferPool::Stats& before, uint64_t steps) {
  const auto after = la::BufferPool::GetStats();
  const double inv = steps > 0 ? 1.0 / static_cast<double>(steps) : 0.0;
  state.counters["allocs_per_step"] =
      static_cast<double>(after.system_allocs - before.system_allocs) * inv;
  state.counters["pool_hits_per_step"] =
      static_cast<double>(after.pool_hits - before.pool_hits) * inv;
}

void BM_TransformerLayerForwardBackward(benchmark::State& state) {
  Rng rng(7);
  nn::TransformerEncoderLayer layer(32, 4, 128, &rng);
  la::Matrix x(20, 32);
  la::GaussianInit(&x, &rng, 1.0f);
  la::Matrix mask(20, 20);
  std::vector<nn::Variable> params;
  layer.CollectParameters(&params);
  nn::Adam adam(params, 1e-3f);
  auto step = [&] {
    nn::Variable input(x, /*requires_grad=*/true);
    nn::Variable out = layer.Forward(input, mask, 0.0, &rng, true);
    nn::Backward(nn::SumToScalar(out));
    adam.Step();
  };
  for (int i = 0; i < 3; ++i) step();  // warm the buffer pool
  const auto before = la::BufferPool::GetStats();
  uint64_t steps = 0;
  for (auto _ : state) {
    step();
    ++steps;
  }
  SetPoolCounters(state, before, steps);
}
BENCHMARK(BM_TransformerLayerForwardBackward);

void BM_MiniBertTrainStep(benchmark::State& state) {
  // A full mini_bert fine-tuning step: encode -> mean-pool -> linear head
  // -> softmax cross-entropy -> backward -> Adam. The end-to-end number
  // behind the kernel-layer speedup claim.
  models::BertConfig config;
  config.layers = 2;
  text::VocabularyBuilder builder;
  const data::Dataset d = BenchDataset(64);
  for (const auto& text : d.Texts()) {
    builder.AddDocument(text::Tokenize(text));
  }
  models::MiniBertBackbone bert(config, builder.Build(1, 4000));

  Rng rng(7);
  nn::Variable head(la::Matrix(config.dim, 2), /*requires_grad=*/true);
  la::GaussianInit(&head.mutable_value(), &rng, 0.05f);
  std::vector<nn::Variable> params = bert.Parameters();
  params.push_back(head);
  nn::Adam adam(params, 1e-4f);

  const std::vector<int32_t> ids = bert.EncodeIds(d[0].text);
  const std::vector<int32_t> labels = {1};
  auto step = [&] {
    nn::Variable hidden = bert.EncodeBatch({&ids}, &rng, /*training=*/true);
    nn::Variable pooled = nn::MeanRows(hidden);
    nn::Variable logits = nn::MatMul(pooled, head);
    nn::Backward(nn::SoftmaxCrossEntropy(logits, labels));
    adam.Step();
  };
  for (int i = 0; i < 3; ++i) step();  // warm the buffer pool
  const auto before = la::BufferPool::GetStats();
  uint64_t steps = 0;
  for (auto _ : state) {
    step();
    ++steps;
  }
  SetPoolCounters(state, before, steps);
}
BENCHMARK(BM_MiniBertTrainStep);

// ---------------------------------------------------------------------------
// Deep-batch suite (--deep-batch -> BENCH_deep_batch.json): one fine-tune
// epoch per deep family at the model's own batch size, and CNN inference
// over the same texts handed to ScoreAll in spans of 1 (a serve batch cap
// of 1) or 32, all on one pool thread so the span ratio isolates
// minibatching from multithreading. One epoch is a single noisy sample, so
// every row repeats and the JSON records the mean, median and spread of the
// repetitions; read the median.
// ---------------------------------------------------------------------------

constexpr int kDeepBatchRepetitions = 6;

void BM_DeepBatchCnnEpoch(benchmark::State& state) {
  SetGlobalPoolThreads(1);
  const data::Dataset d = BenchDataset(256);
  for (auto _ : state) {
    models::CnnOptions options;
    options.epochs = 1;
    options.min_optimizer_steps = 8;  // exactly one pass over 256 records
    models::TextCnn model(options);
    SEMTAG_CHECK(model.Train(d).ok());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_DeepBatchCnnEpoch)
    ->Iterations(1)
    ->Repetitions(kDeepBatchRepetitions)
    ->ReportAggregatesOnly(true);

void BM_DeepBatchLstmEpoch(benchmark::State& state) {
  SetGlobalPoolThreads(1);
  const data::Dataset d = BenchDataset(256);
  for (auto _ : state) {
    models::LstmOptions options;
    options.epochs = 1;
    options.min_optimizer_steps = 8;  // exactly one pass over 256 records
    models::TextLstm model(options);
    SEMTAG_CHECK(model.Train(d).ok());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_DeepBatchLstmEpoch)
    ->Iterations(1)
    ->Repetitions(kDeepBatchRepetitions)
    ->ReportAggregatesOnly(true);

void BM_DeepBatchMiniBertFinetuneEpoch(benchmark::State& state) {
  SetGlobalPoolThreads(1);
  const data::Dataset d = BenchDataset(256);
  models::BertConfig config;
  config.layers = 2;
  text::VocabularyBuilder builder;
  for (const auto& text : d.Texts()) {
    builder.AddDocument(text::Tokenize(text));
  }
  // Randomly initialized backbone: fine-tune throughput does not depend on
  // pretrained weights, and skipping MLM keeps the bench fast.
  models::MiniBertBackbone backbone(config, builder.Build(1, 4000));
  for (auto _ : state) {
    models::BertFinetuneOptions options;
    options.epochs = 1;
    options.min_optimizer_steps = 8;  // exactly one pass over 256 records
    models::MiniBert model("BERT", backbone, options);
    SEMTAG_CHECK(model.Train(d).ok());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_DeepBatchMiniBertFinetuneEpoch)
    ->Iterations(1)
    ->Repetitions(kDeepBatchRepetitions)
    ->ReportAggregatesOnly(true);

/// Scores 512 texts with a small trained CNN, handing ScoreAll spans of
/// state.range(0) texts — what a serve batcher capped at that size does.
/// `quant` arms the int8 inference tier (SEMTAG_QUANT=1) after training;
/// otherwise it scores in fp32 whatever the runtime config says.
void ScoreCnnInSpans(benchmark::State& state, bool quant) {
  SetGlobalPoolThreads(1);
  const data::Dataset d = BenchDataset(512);
  models::CnnOptions options;
  options.epochs = 1;
  options.min_optimizer_steps = 1;
  options.max_train_examples = 128;
  models::TextCnn model(options);
  SEMTAG_CHECK(model.Train(d).ok());
  const ScopedRuntimeOverride tier({{"SEMTAG_QUANT", quant ? "1" : "0"}});
  const auto texts = d.Texts();
  const size_t span = static_cast<size_t>(state.range(0));
  std::vector<std::vector<std::string>> spans;
  for (size_t start = 0; start < texts.size(); start += span) {
    spans.emplace_back(texts.begin() + start,
                       texts.begin() + std::min(start + span, texts.size()));
  }
  for (auto _ : state) {
    for (const auto& chunk : spans) {
      benchmark::DoNotOptimize(model.ScoreAll(chunk));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(texts.size()));
}

void BM_DeepBatchScoreAll(benchmark::State& state) {
  ScoreCnnInSpans(state, /*quant=*/false);
}
BENCHMARK(BM_DeepBatchScoreAll)->Arg(1)->Arg(32)->Iterations(2)
    ->Repetitions(kDeepBatchRepetitions)->ReportAggregatesOnly(true);

void BM_DeepBatchScoreAllQuant(benchmark::State& state) {
  // Same sweep through the int8 inference tier (SEMTAG_QUANT=1): the
  // span-32 row against BM_DeepBatchScoreAll/32 isolates what quantization
  // adds on top of minibatching.
  ScoreCnnInSpans(state, /*quant=*/true);
}
BENCHMARK(BM_DeepBatchScoreAllQuant)->Arg(1)->Arg(32)->Iterations(2)
    ->Repetitions(kDeepBatchRepetitions)->ReportAggregatesOnly(true);

}  // namespace
}  // namespace semtag

int main(int argc, char** argv) {
  semtag::SetLogLevel(semtag::LogLevel::kWarning);
  bool deep_batch = false;
  semtag::Flags flags("micro_throughput");
  flags.Bool("deep-batch", &deep_batch,
             "run only the BM_DeepBatch* suite into BENCH_deep_batch.json "
             "(per-family epochs, span-1 vs span-32 inference)");
  std::vector<char*> args =
      semtag::bench::ParseBenchmarkArgs(argc, argv, &flags);
  return semtag::bench::RunBenchmarks(
      std::move(args), deep_batch ? "^BM_DeepBatch" : "",
      deep_batch ? "BENCH_deep_batch.json" : "");
}
