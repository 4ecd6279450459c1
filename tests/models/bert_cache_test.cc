// Pretrained-checkpoint cache (models/deep/bert_cache.h): processes that
// miss the same checkpoint at once pretrain it once; the others wait on the
// checkpoint's file lock and load what the holder saved.

#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#ifdef __unix__
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "common/file_io.h"
#include "common/timer.h"
#include "models/deep/bert_cache.h"
#include "models/deep/mini_bert.h"
#include "nn/serialize.h"
#include "obs/metrics.h"

namespace semtag::models {
namespace {

MiniBertBackbone TinyBackbone(uint64_t seed) {
  BertConfig config;
  config.max_len = 8;
  config.dim = 8;
  config.heads = 2;
  config.ffn = 16;
  config.layers = 1;
  config.seed = seed;
  text::Vocabulary vocab;
  vocab.Add("word", 1);
  vocab.Add("other", 1);
  return MiniBertBackbone(config, vocab);
}

bool SameWeights(const MiniBertBackbone& a, const MiniBertBackbone& b) {
  const auto pa = a.Parameters();
  const auto pb = b.Parameters();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    const la::Matrix& x = pa[i].value();
    const la::Matrix& y = pb[i].value();
    if (!x.SameShape(y)) return false;
    for (size_t j = 0; j < x.size(); ++j) {
      if (x.data()[j] != y.data()[j]) return false;
    }
  }
  return true;
}

/// What the waiting child reports back through a pipe.
struct WaiterReport {
  uint64_t pretrains = 0;
  uint64_t disk_hits = 0;
  bool loaded = false;
  bool pretrain_ran = false;
  bool same_weights = false;
  double seconds = 0.0;
};

TEST(BertCacheTest, ProcessWaitingOnTheLockLoadsInsteadOfPretraining) {
#ifdef __unix__
  const std::string checkpoint =
      (std::filesystem::temp_directory_path() /
       ("semtag_bert_cache_lock_" + std::to_string(getpid()) + ".bin"))
          .string();
  std::filesystem::remove(checkpoint);
  const MiniBertBackbone saved = TinyBackbone(1);
  MiniBertBackbone waiter = TinyBackbone(2);
  ASSERT_FALSE(SameWeights(saved, waiter));

  // This process plays the one pretraining the checkpoint: it holds the
  // lock while the child misses, and saves before releasing.
  auto lock = std::make_unique<FileLock>(checkpoint);
  ASSERT_TRUE(lock->held());
  int ready[2];
  int report[2];
  ASSERT_EQ(pipe(ready), 0);
  ASSERT_EQ(pipe(report), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    obs::SetMetricsEnabled(true);
    obs::ResetMetricsForTest();
    WaiterReport r;
    const char go = '1';
    (void)!write(ready[1], &go, 1);
    WallTimer timer;
    r.loaded = LoadOrPretrain(
        checkpoint, &waiter,
        [&](MiniBertBackbone*) { r.pretrain_ran = true; });
    r.seconds = timer.ElapsedSeconds();
    r.pretrains = obs::GetCounter("bert_cache/pretrains").Value();
    r.disk_hits = obs::GetCounter("bert_cache/disk_hits").Value();
    r.same_weights = SameWeights(saved, waiter);
    (void)!write(report[1], &r, sizeof(r));
    _exit(0);
  }
  char go = '0';
  ASSERT_EQ(read(ready[0], &go, 1), 1);
  usleep(300 * 1000);  // the child misses and blocks on the lock
  ASSERT_TRUE(nn::SaveCheckpoint(checkpoint, saved.Parameters()).ok());
  usleep(300 * 1000);
  lock.reset();

  WaiterReport r;
  ASSERT_EQ(read(report[0], &r, sizeof(r)),
            static_cast<ssize_t>(sizeof(r)));
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  EXPECT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0);
  EXPECT_EQ(r.pretrains, 0u);
  EXPECT_EQ(r.disk_hits, 1u);
  EXPECT_TRUE(r.loaded);
  EXPECT_FALSE(r.pretrain_ran);
  EXPECT_TRUE(r.same_weights);
  // It returned only once the lock was released, not via a lucky load.
  EXPECT_GE(r.seconds, 0.25);
  for (int fd : {ready[0], ready[1], report[0], report[1]}) close(fd);
  std::filesystem::remove(checkpoint);
  std::filesystem::remove(checkpoint + ".lock");
#else
  GTEST_SKIP() << "FileLock is a no-op off POSIX";
#endif
}

}  // namespace
}  // namespace semtag::models
