// The contract of the concurrency layer is not "roughly the same numbers,
// faster" but *bit-identical* numbers at any thread count: the parallel
// split is always by independent output slot (GEMM rows, grid cells, texts),
// so no floating-point reduction ever crosses a thread boundary. These
// tests pin that contract by diffing raw bits between a 1-thread and a
// multi-thread run of every parallel path.

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "config/runtime_config.h"
#include "core/experiment.h"
#include "data/generator.h"
#include "data/specs.h"
#include "la/matrix.h"
#include "models/deep/text_cnn.h"

namespace semtag {
namespace {

la::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  la::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Normal());
  }
  return m;
}

testing::AssertionResult BitIdentical(const la::Matrix& a,
                                      const la::Matrix& b) {
  if (!a.SameShape(b)) return testing::AssertionFailure() << "shape mismatch";
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    return testing::AssertionFailure() << "payload bits differ";
  }
  return testing::AssertionSuccess();
}

data::Dataset SmallDataset(int n) {
  data::GeneratorConfig config;
  config.bg_vocab = 1800;
  config.signal_topic = 22;
  config.positive_topics = {23, 24};
  config.negative_topics = {25, 26};
  config.signal_strength = 0.35;
  config.seed = 811;
  return data::GenerateDataset(data::SharedLanguage(), config, "par-det", n,
                               0.5);
}

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override { SetGlobalPoolThreads(DefaultThreadCount()); }
};

TEST_F(ParallelDeterminismTest, GemmBitIdenticalAcrossThreadCounts) {
  // 256^3 sits well above the parallel threshold; the odd shape exercises
  // every unroll remainder; 64^3 sits exactly at the threshold edge.
  const struct {
    size_t m, k, n;
  } shapes[] = {{256, 256, 256}, {97, 131, 65}, {64, 64, 64}};
  for (const auto& s : shapes) {
    const la::Matrix a = RandomMatrix(s.m, s.k, 1001 + s.m);
    const la::Matrix b = RandomMatrix(s.k, s.n, 2002 + s.n);
    const la::Matrix at = a.Transposed();
    const la::Matrix bt = b.Transposed();

    SetGlobalPoolThreads(1);
    la::Matrix ref, ref_ta, ref_tb;
    la::MatMul(a, b, &ref);
    la::MatMulTransA(at, b, &ref_ta);
    la::MatMulTransB(a, bt, &ref_tb);

    for (int threads : {2, 4, 8}) {
      SetGlobalPoolThreads(threads);
      la::Matrix out, out_ta, out_tb;
      la::MatMul(a, b, &out);
      la::MatMulTransA(at, b, &out_ta);
      la::MatMulTransB(a, bt, &out_tb);
      EXPECT_TRUE(BitIdentical(ref, out))
          << s.m << "x" << s.k << "x" << s.n << " @ " << threads;
      EXPECT_TRUE(BitIdentical(ref_ta, out_ta))
          << "TransA " << s.m << "x" << s.k << "x" << s.n << " @ " << threads;
      EXPECT_TRUE(BitIdentical(ref_tb, out_tb))
          << "TransB " << s.m << "x" << s.k << "x" << s.n << " @ " << threads;
    }
  }
}

TEST_F(ParallelDeterminismTest, ExperimentMetricsBitIdenticalToSequential) {
  data::Dataset dataset = SmallDataset(400);
  Rng shuffle_rng(7);
  dataset.Shuffle(&shuffle_rng);
  auto [train, test] = dataset.Split(0.7);

  SetGlobalPoolThreads(1);
  const auto seq =
      core::TrainAndEvaluate(train, test, models::ModelKind::kLr, 3);
  SetGlobalPoolThreads(4);
  const auto par =
      core::TrainAndEvaluate(train, test, models::ModelKind::kLr, 3);

  EXPECT_EQ(seq.f1, par.f1);
  EXPECT_EQ(seq.precision, par.precision);
  EXPECT_EQ(seq.recall, par.recall);
  EXPECT_EQ(seq.accuracy, par.accuracy);
  EXPECT_EQ(seq.auc, par.auc);
  EXPECT_EQ(seq.calibrated_f1, par.calibrated_f1);
}

TEST_F(ParallelDeterminismTest, GridReportBitIdenticalAcrossThreadCounts) {
  // A mixed-model grid through RunMany: cells are claimed by whichever
  // thread is free, so claim order and chunk boundaries differ with the
  // thread count, and the canonical report must not.
  std::vector<data::DatasetSpec> specs;
  data::DatasetSpec base = data::FindSpec("HETER").ValueOrDie();
  base.scaled_records = 220;
  for (int i = 0; i < 2; ++i) {
    data::DatasetSpec spec = base;
    spec.name = "PARDET" + std::to_string(i);
    spec.generator.seed = base.generator.seed + 3000 + i;
    specs.push_back(std::move(spec));
  }
  const auto cells = core::EnumerateGrid(
      specs, {models::ModelKind::kLr, models::ModelKind::kSvm,
              models::ModelKind::kCnn});
  std::string reference;
  for (int threads : {1, 4, 16}) {
    SetGlobalPoolThreads(threads);
    core::ExperimentRunner runner(/*use_cache=*/false);
    const core::RunReport report = runner.RunMany(cells);
    EXPECT_EQ(report.ok + report.retried, 6) << threads << " threads";
    const std::string csv = core::CanonicalReportCsv(cells, report);
    if (reference.empty()) {
      reference = csv;
    } else {
      EXPECT_EQ(csv, reference) << threads << " threads";
    }
  }
}

TEST_F(ParallelDeterminismTest, DeepTrainingBitIdenticalAcrossThreadCounts) {
  // End-to-end training pin: the kernel layer splits GEMM into paired-row
  // micro-kernel calls, and this must not change with the thread count —
  // the parallel split is by output row, and row pairing happens within
  // each thread's range. Train the same model at 1 and 4 threads and
  // compare every score bitwise.
  models::CnnOptions options;
  options.epochs = 1;
  options.min_optimizer_steps = 1;
  options.max_train_examples = 120;
  const data::Dataset dataset = SmallDataset(160);
  const auto texts = dataset.Texts();

  SetGlobalPoolThreads(1);
  models::TextCnn seq_cnn(options);
  ASSERT_TRUE(seq_cnn.Train(dataset).ok());
  const std::vector<double> seq = seq_cnn.ScoreAll(texts);

  SetGlobalPoolThreads(4);
  models::TextCnn par_cnn(options);
  ASSERT_TRUE(par_cnn.Train(dataset).ok());
  SetGlobalPoolThreads(1);  // score sequentially: isolates training effects
  const std::vector<double> par = par_cnn.ScoreAll(texts);

  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], par[i]) << "text " << i;
  }
}

TEST_F(ParallelDeterminismTest, BatchedDeepInferenceBitIdentical) {
  // A deliberately tiny CNN: enough to push real tensors through the nn
  // stack's batched-inference path without slow training (one epoch).
  models::CnnOptions options;
  options.epochs = 1;
  options.min_optimizer_steps = 1;
  options.max_train_examples = 120;
  models::TextCnn cnn(options);

  data::Dataset dataset = SmallDataset(160);
  SetGlobalPoolThreads(1);
  ASSERT_TRUE(cnn.Train(dataset).ok());
  const auto texts = dataset.Texts();
  const std::vector<double> seq = cnn.ScoreAll(texts);

  SetGlobalPoolThreads(4);
  const std::vector<double> par = cnn.ScoreAll(texts);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], par[i]) << "text " << i;
  }
}

}  // namespace
}  // namespace semtag
