#include "cpm/common/fs.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <string>

namespace cpm {
namespace {

namespace stdfs = std::filesystem;

std::string current_test_name() {
  return testing::UnitTest::GetInstance()->current_test_info()->name();
}

class RealFsTest : public testing::Test {
 protected:
  std::string dir_ = testing::TempDir() + "/cpm-fs-test-" + current_test_name();

  void SetUp() override { stdfs::remove_all(dir_); }
  void TearDown() override { stdfs::remove_all(dir_); }

  FileSystem& fs_ = real_filesystem();
};

TEST_F(RealFsTest, WriteAtomicThenReadRoundTrips) {
  const std::string path = dir_ + "/a/b/out.txt";
  fs_.write_atomic(path, "hello\n");
  EXPECT_EQ(fs_.read(path), "hello\n");
}

TEST_F(RealFsTest, WriteAtomicCreatesParentDirectories) {
  const std::string path = dir_ + "/deep/ly/nested/file";
  fs_.write_atomic(path, "x");
  EXPECT_TRUE(fs_.exists(path));
  EXPECT_TRUE(fs_.exists(dir_ + "/deep/ly"));
}

TEST_F(RealFsTest, WriteAtomicLeavesNoTempFileBehind) {
  fs_.write_atomic(dir_ + "/out.txt", "payload");
  const auto files = fs_.list_files(dir_);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], dir_ + "/out.txt");
}

TEST_F(RealFsTest, WriteAtomicOverwrites) {
  const std::string path = dir_ + "/out.txt";
  fs_.write_atomic(path, "old");
  fs_.write_atomic(path, "new");
  EXPECT_EQ(fs_.read(path), "new");
}

TEST_F(RealFsTest, ReadMissingFileIsPermanent) {
  try {
    fs_.read(dir_ + "/nope");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kPermanent);
    EXPECT_NE(std::string(e.what()).find("nope"), std::string::npos);
  }
}

TEST_F(RealFsTest, ReadDirectoryIsPermanentAndNamesThePath) {
  fs_.create_directories(dir_ + "/sub");
  try {
    (void)fs_.read(dir_ + "/sub");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kPermanent);
    EXPECT_EQ(std::string(e.what()), "read failed for '" + dir_ +
                                         "/sub': " + std::strerror(EISDIR) +
                                         " (permanent)");
  }
}

TEST_F(RealFsTest, ReadEmptyFileIsEmpty) {
  fs_.write_atomic(dir_ + "/empty", "");
  EXPECT_EQ(fs_.read(dir_ + "/empty"), "");
}

// Past one 64 KiB read chunk, with NULs that a C-string copy would cut.
TEST_F(RealFsTest, ReadLargeBinaryFileByteForByte) {
  std::string content(200'000, '\0');
  for (std::size_t i = 0; i < content.size(); ++i)
    content[i] = static_cast<char>((i * 131 + i / 251) % 256);
  fs_.write_atomic(dir_ + "/big.bin", content);
  const std::string back = fs_.read(dir_ + "/big.bin");
  ASSERT_EQ(back.size(), content.size());
  EXPECT_TRUE(back == content);
}

TEST_F(RealFsTest, AppendCreatesAndAccumulates) {
  const std::string path = dir_ + "/log";
  fs_.append(path, "one");
  fs_.append(path, "two");
  EXPECT_EQ(fs_.read(path), "onetwo");
}

TEST_F(RealFsTest, RemoveIsIdempotent) {
  const std::string path = dir_ + "/gone";
  fs_.write_atomic(path, "x");
  fs_.remove(path);
  EXPECT_FALSE(fs_.exists(path));
  EXPECT_NO_THROW(fs_.remove(path));  // missing is not an error
}

TEST_F(RealFsTest, ListFilesIsRecursiveAndSorted) {
  fs_.write_atomic(dir_ + "/b.txt", "1");
  fs_.write_atomic(dir_ + "/sub/a.txt", "2");
  fs_.write_atomic(dir_ + "/sub/c.txt", "3");
  const auto files = fs_.list_files(dir_);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0], dir_ + "/b.txt");
  EXPECT_EQ(files[1], dir_ + "/sub/a.txt");
  EXPECT_EQ(files[2], dir_ + "/sub/c.txt");
}

TEST_F(RealFsTest, ListFilesOnMissingDirectoryIsEmpty) {
  EXPECT_TRUE(fs_.list_files(dir_ + "/never").empty());
}

TEST(ClassifyErrno, TransientVsPermanent) {
  EXPECT_EQ(classify_errno(EIO), IoErrorKind::kTransient);
  EXPECT_EQ(classify_errno(EINTR), IoErrorKind::kTransient);
  EXPECT_EQ(classify_errno(EAGAIN), IoErrorKind::kTransient);
  EXPECT_EQ(classify_errno(EMFILE), IoErrorKind::kTransient);
  EXPECT_EQ(classify_errno(ENOENT), IoErrorKind::kPermanent);
  EXPECT_EQ(classify_errno(EACCES), IoErrorKind::kPermanent);
  EXPECT_EQ(classify_errno(ENOSPC), IoErrorKind::kPermanent);
}

TEST(IoErrorKindName, StableNames) {
  EXPECT_STREQ(io_error_kind_name(IoErrorKind::kTransient), "transient");
  EXPECT_STREQ(io_error_kind_name(IoErrorKind::kPermanent), "permanent");
  EXPECT_STREQ(io_error_kind_name(IoErrorKind::kCorrupt), "corrupt");
}

TEST(IoErrorType, IsACpmError) {
  // Existing catch (const cpm::Error&) sites keep working.
  try {
    throw IoError(IoErrorKind::kCorrupt, "bad bytes");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "bad bytes");
  }
}

}  // namespace
}  // namespace cpm
