#include <filesystem>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/fault.h"
#include "common/file_io.h"

namespace semtag {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Crc32Test, MatchesCheckValue) {
  // The canonical CRC-32/IEEE check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
  EXPECT_NE(Crc32("abc"), Crc32("abd"));
}

TEST(Crc32Test, SensitiveToEveryByte) {
  std::string data(1024, 'x');
  const uint32_t base = Crc32(data);
  data[512] ^= 0x01;
  EXPECT_NE(Crc32(data), base);
}

TEST(WriteFileAtomicTest, WritesAndReplaces) {
  const std::string path = TempPath("semtag_atomic_write.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  auto a = ReadFileToString(path);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "first");
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  auto b = ReadFileToString(path);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, "second");
  std::filesystem::remove(path);
}

TEST(WriteFileAtomicTest, LeavesNoTempFileBehind) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "semtag_atomic_dir";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "out.txt").string();
  ASSERT_TRUE(WriteFileAtomic(path, "payload").ok());
  size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // just out.txt, no orphaned temp file
  std::filesystem::remove_all(dir);
}

TEST(WriteFileAtomicTest, InjectedWriteFailureKeepsOldContent) {
  const std::string path = TempPath("semtag_atomic_fault.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "precious").ok());
  ASSERT_TRUE(SetFaultsFromSpec("write_fail:match=atomic_fault").ok());
  const Status st = WriteFileAtomic(path, "garbage");
  ClearFaults();
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "precious");  // failed write never tore the file
  std::filesystem::remove(path);
}

TEST(WriteFileAtomicTest, MissingDirectoryIsIoError) {
  EXPECT_EQ(WriteFileAtomic("/nonexistent_dir_xyz/file.txt", "x").code(),
            StatusCode::kIoError);
}

TEST(QuarantineFileTest, MovesFileAside) {
  const std::string path = TempPath("semtag_quarantine.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "bad bytes").ok());
  ASSERT_TRUE(QuarantineFile(path, "test corruption").ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  const std::string aside = path + ".corrupt";
  ASSERT_TRUE(std::filesystem::exists(aside));
  auto content = ReadFileToString(aside);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "bad bytes");
  std::filesystem::remove(aside);
}

TEST(QuarantineFileTest, MissingFileIsNotFound) {
  EXPECT_EQ(QuarantineFile(TempPath("semtag_no_such_file"), "r").code(),
            StatusCode::kNotFound);
}

TEST(FileLockTest, AcquiresAndReleases) {
  const std::string path = TempPath("semtag_locked_resource");
  {
    FileLock lock(path);
    EXPECT_TRUE(lock.held());
  }
  // Re-acquirable after release (same process would deadlock if the
  // previous holder leaked).
  FileLock again(path);
  EXPECT_TRUE(again.held());
  std::filesystem::remove(path + ".lock");
}

}  // namespace
}  // namespace semtag
