#include "cpm/resilience/journal.hpp"

#include <utility>

#include "cpm/common/hash.hpp"

namespace cpm::resilience {

namespace {

constexpr std::size_t kSumDigits = 16;

// Validates "<sum16> <json>"; returns true and fills `out` when the
// checksum and parse both hold.
bool parse_line(const std::string& line, Json& out) {
  if (line.size() < kSumDigits + 2 || line[kSumDigits] != ' ') return false;
  const std::string sum = line.substr(0, kSumDigits);
  const std::string payload = line.substr(kSumDigits + 1);
  if (sha256_hex(payload).substr(0, kSumDigits) != sum) return false;
  try {
    out = Json::parse(payload);
  } catch (const Error&) {
    return false;
  }
  return true;
}

}  // namespace

RunJournal::RunJournal(FileSystem& fs, std::string path, RetryPolicy retry,
                       std::function<void(units::Seconds)> sleeper)
    : fs_(fs),
      path_(std::move(path)),
      retry_(retry),
      sleeper_(std::move(sleeper)) {}

std::string RunJournal::frame(const Json& value) {
  std::string payload = value.dump();
  std::string sum = sha256_hex(payload).substr(0, kSumDigits);
  // The leading newline seals off any torn previous append.
  return "\n" + sum + " " + payload + "\n";
}

void RunJournal::begin(const Json& header) {
  MutexLock lock(mutex_);
  with_retry(
      retry_, "journal begin '" + path_ + "'",
      [&] {
        fs_.remove(path_);
        fs_.append(path_, frame(header));
      },
      sleeper_);
}

JournalReplay RunJournal::resume_or_begin(const Json& header, bool resume,
                                         const std::string& what) {
  JournalReplay survivor;
  if (resume) survivor = replay(fs_, path_);
  if (survivor.header.is_null()) {
    begin(header);
    return survivor;
  }
  if (survivor.header.dump() != header.dump())
    throw IoError(IoErrorKind::kCorrupt,
                  what + ": journal '" + path_ +
                      "' belongs to a different run (header mismatch)");
  return survivor;
}

void RunJournal::append(const Json& record) {
  std::string line = frame(record);
  MutexLock lock(mutex_);
  with_retry(
      retry_, "journal append '" + path_ + "'",
      [&] { fs_.append(path_, line); }, sleeper_);
}

JournalReplay RunJournal::replay(FileSystem& fs, const std::string& path) {
  JournalReplay out;
  std::string text;
  try {
    text = fs.read(path);
  } catch (const IoError&) {
    return out;
  }
  out.found = true;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find('\n', pos);
    std::string line = end == std::string::npos
                           ? text.substr(pos)
                           : text.substr(pos, end - pos);
    pos = end == std::string::npos ? text.size() + 1 : end + 1;
    if (line.empty()) continue;
    Json value;
    if (!parse_line(line, value)) {
      ++out.dropped;
      continue;
    }
    if (out.header.is_null()) {
      out.header = value;
    } else {
      out.records.push_back(value);
    }
  }
  return out;
}

}  // namespace cpm::resilience
