#include "cpm/resilience/journal.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <string>
#include <vector>

#include "cpm/common/hash.hpp"

namespace cpm::resilience {
namespace {

namespace stdfs = std::filesystem;

std::string current_test_name() {
  return testing::UnitTest::GetInstance()->current_test_info()->name();
}

Json header() {
  return Json(JsonObject{{"schema", Json("cpm-journal/v1")},
                         {"kind", Json("sweep")}});
}

Json point(int index, double value) {
  return Json(JsonObject{{"index", Json(index)}, {"value", Json(value)}});
}

class JournalTest : public testing::Test {
 protected:
  std::string dir_ =
      testing::TempDir() + "/cpm-journal-test-" + current_test_name();
  std::string path_ = dir_ + "/run.journal";

  void SetUp() override { stdfs::remove_all(dir_); }
  void TearDown() override { stdfs::remove_all(dir_); }

  FileSystem& fs_ = real_filesystem();
};

TEST_F(JournalTest, BeginAppendReplayRoundTrips) {
  RunJournal journal(fs_, path_);
  journal.begin(header());
  journal.append(point(0, 1.5));
  journal.append(point(1, 2.25));

  const auto replay = RunJournal::replay(fs_, path_);
  EXPECT_TRUE(replay.found);
  EXPECT_EQ(replay.dropped, 0u);
  EXPECT_EQ(replay.header.at("kind").as_string(), "sweep");
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].at("index").as_number(), 0.0);
  EXPECT_EQ(replay.records[1].at("value").as_number(), 2.25);
}

TEST_F(JournalTest, ResumeOrBeginResumesRejectsOrBeginsAfresh) {
  // No survivor: a fresh journal begins, with no records to restore.
  RunJournal journal(fs_, path_);
  const auto fresh = journal.resume_or_begin(header(), true, "test resume");
  EXPECT_TRUE(fresh.records.empty());
  journal.append(point(0, 1.5));

  // A survivor with the same header resumes: its records come back and
  // the file is kept.
  const auto resumed = journal.resume_or_begin(header(), true, "test resume");
  EXPECT_EQ(resumed.header.dump(), header().dump());
  ASSERT_EQ(resumed.records.size(), 1u);
  EXPECT_EQ(resumed.records[0].at("value").as_number(), 1.5);

  // A survivor with any other header belongs to another run.
  const Json other(JsonObject{{"schema", Json("cpm-journal/v1")},
                              {"kind", Json("replicate")}});
  try {
    (void)journal.resume_or_begin(other, true, "test resume");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.kind(), IoErrorKind::kCorrupt);
    EXPECT_EQ(std::string(e.what()).rfind("test resume: journal '", 0), 0u)
        << e.what();
  }

  // Without resume the survivor is replaced.
  const auto replaced = journal.resume_or_begin(other, false, "test resume");
  EXPECT_TRUE(replaced.records.empty());
  const auto replay = RunJournal::replay(fs_, path_);
  EXPECT_EQ(replay.header.dump(), other.dump());
  EXPECT_TRUE(replay.records.empty());
}

TEST_F(JournalTest, MissingFileIsNotFound) {
  const auto replay = RunJournal::replay(fs_, path_);
  EXPECT_FALSE(replay.found);
  EXPECT_TRUE(replay.header.is_null());
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.dropped, 0u);
}

TEST_F(JournalTest, BeginReplacesAnEarlierJournal) {
  RunJournal first(fs_, path_);
  first.begin(header());
  first.append(point(0, 1.0));

  RunJournal second(fs_, path_);
  second.begin(header());

  const auto replay = RunJournal::replay(fs_, path_);
  EXPECT_TRUE(replay.found);
  EXPECT_TRUE(replay.records.empty());  // old points are gone
}

TEST_F(JournalTest, TornTrailingLineIsDroppedAndLaterAppendsSurvive) {
  RunJournal journal(fs_, path_);
  journal.begin(header());
  journal.append(point(0, 1.0));

  // Simulate a SIGKILL mid-append: a partial frame with no terminator.
  const std::string torn = RunJournal::frame(point(1, 2.0));
  fs_.append(path_, torn.substr(0, torn.size() / 2));

  // The next writer (a resumed run) appends; the leading newline in the
  // frame seals the torn fragment into its own invalid line.
  RunJournal resumed(fs_, path_);
  resumed.append(point(2, 3.0));

  const auto replay = RunJournal::replay(fs_, path_);
  EXPECT_TRUE(replay.found);
  EXPECT_EQ(replay.dropped, 1u);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].at("index").as_number(), 0.0);
  EXPECT_EQ(replay.records[1].at("index").as_number(), 2.0);
}

TEST_F(JournalTest, ChecksumMismatchIsDropped) {
  RunJournal journal(fs_, path_);
  journal.begin(header());
  journal.append(point(0, 1.0));

  std::string bytes = fs_.read(path_);
  // Flip one payload character of the last record.
  const auto pos = bytes.rfind("\"value\"");
  ASSERT_NE(pos, std::string::npos);
  bytes[pos + 1] = 'X';
  fs_.write_atomic(path_, bytes);

  const auto replay = RunJournal::replay(fs_, path_);
  EXPECT_TRUE(replay.found);
  EXPECT_EQ(replay.dropped, 1u);
  EXPECT_TRUE(replay.records.empty());
  EXPECT_EQ(replay.header.at("kind").as_string(), "sweep");
}

TEST_F(JournalTest, GarbageLinesAreCountedNotFatal) {
  RunJournal journal(fs_, path_);
  journal.begin(header());
  fs_.append(path_, "\nnot a journal line at all\n");
  fs_.append(path_, "\ndeadbeefdeadbeef {\"broken\": \n");
  journal.append(point(0, 1.0));

  const auto replay = RunJournal::replay(fs_, path_);
  EXPECT_TRUE(replay.found);
  EXPECT_EQ(replay.dropped, 2u);
  ASSERT_EQ(replay.records.size(), 1u);
}

TEST_F(JournalTest, DeeplyNestedLineIsDropped) {
  // A line whose checksum holds but whose payload nests far past
  // Json::kMaxNesting is dropped, not a stack overflow.
  RunJournal journal(fs_, path_);
  journal.begin(header());
  const std::string payload(100'000, '[');
  // Built in steps: GCC 12's -Wrestrict misreads the one-expression
  // concatenation inside libstdc++.
  std::string line = "\n";
  line += sha256_hex(payload).substr(0, 16);
  line += ' ';
  line += payload;
  line += '\n';
  fs_.append(path_, line);
  journal.append(point(0, 1.0));

  const auto replay = RunJournal::replay(fs_, path_);
  EXPECT_TRUE(replay.found);
  EXPECT_EQ(replay.dropped, 1u);
  ASSERT_EQ(replay.records.size(), 1u);
}

TEST_F(JournalTest, FrameFormatIsSum16SpacePayload) {
  const std::string line = RunJournal::frame(point(3, 4.0));
  // Leading newline seals any torn predecessor; then 16 hex chars,
  // a space, compact JSON, terminator.
  ASSERT_GT(line.size(), 19u);
  EXPECT_EQ(line.front(), '\n');
  EXPECT_EQ(line[17], ' ');
  EXPECT_EQ(line.back(), '\n');
  for (int i = 1; i <= 16; ++i) {
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(line[i])))
        << "offset " << i;
  }
  EXPECT_NE(line.find("\"index\""), std::string::npos);
}

TEST_F(JournalTest, FramedDoublesRoundTripBitIdentically) {
  const double awkward = 0.1 + 0.2;  // 0.30000000000000004
  RunJournal journal(fs_, path_);
  journal.begin(header());
  journal.append(point(0, awkward));

  const auto replay = RunJournal::replay(fs_, path_);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].at("value").as_number(), awkward);
}

// Fails the first `failures` appends transiently, then passes through.
class FlakyAppendFs final : public FileSystem {
 public:
  FlakyAppendFs(FileSystem& inner, int failures)
      : inner_(inner), failures_(failures) {}

  std::string read(const std::string& p) override { return inner_.read(p); }
  bool exists(const std::string& p) override { return inner_.exists(p); }
  void write_atomic(const std::string& p, const std::string& b) override {
    inner_.write_atomic(p, b);
  }
  void append(const std::string& p, const std::string& b) override {
    if (failures_ > 0) {
      --failures_;
      throw IoError(IoErrorKind::kTransient, "flaky append");
    }
    inner_.append(p, b);
  }
  void remove(const std::string& p) override { inner_.remove(p); }
  void create_directories(const std::string& p) override {
    inner_.create_directories(p);
  }
  std::vector<std::string> list_files(const std::string& d) override {
    return inner_.list_files(d);
  }

 private:
  FileSystem& inner_;
  int failures_;
};

TEST_F(JournalTest, TransientAppendFailuresAreRetried) {
  FlakyAppendFs flaky(fs_, 0);
  std::vector<units::Seconds> pauses;
  RunJournal journal(flaky, path_, RetryPolicy{},
                     [&](units::Seconds s) { pauses.push_back(s); });
  journal.begin(header());

  // Arm the fault after the header so only the point append is flaky.
  FlakyAppendFs flaky_points(fs_, 2);
  RunJournal resumed(flaky_points, path_, RetryPolicy{},
                     [&](units::Seconds s) { pauses.push_back(s); });
  resumed.append(point(0, 1.0));

  EXPECT_EQ(pauses.size(), 2u);  // two transient failures, two pauses
  const auto replay = RunJournal::replay(fs_, path_);
  EXPECT_EQ(replay.dropped, 0u);
  ASSERT_EQ(replay.records.size(), 1u);
}

}  // namespace
}  // namespace cpm::resilience
