// Append-only checksummed run journal (cpm-journal/v1).
//
// On-disk format: a text file of framed records, one JSON document per
// line, each prefixed by the first 16 hex digits of its SHA-256:
//
//   <sum16> <compact-json>\n
//
// Every append writes a leading newline before its record, so a torn
// earlier append (partial line with no terminator) is sealed off into
// its own line — which then fails its checksum and is dropped — instead
// of merging with, and destroying, the next good record. Blank lines
// are ignored at replay. The first valid record is the run header; the
// writer flushes each append to the kernel, so records survive SIGKILL
// of the writing process.
//
// Replay is forgiving by construction: any line that fails framing,
// checksum, or JSON parse is counted in `dropped` and skipped. Dropped
// work is simply recomputed by the resumed run — correctness never
// depends on the journal being intact, only progress does.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "cpm/common/fs.hpp"
#include "cpm/common/json.hpp"
#include "cpm/common/mutex.hpp"
#include "cpm/resilience/retry.hpp"

namespace cpm::resilience {

/// Result of scanning a journal file.
struct JournalReplay {
  bool found = false;          ///< the file existed and was readable
  Json header;                 ///< first valid record (null when absent)
  std::vector<Json> records;   ///< valid records after the header
  std::size_t dropped = 0;     ///< torn/corrupt lines skipped
};

class RunJournal {
 public:
  /// Appends go through `fs` under `retry`; `sleeper` overrides the
  /// backoff sleep (tests pass a recorder).
  RunJournal(FileSystem& fs, std::string path, RetryPolicy retry = {},
             std::function<void(units::Seconds)> sleeper = {});

  const std::string& path() const { return path_; }

  /// Starts a fresh journal: deletes any previous file and writes the
  /// header record. Not called when resuming — a resumed run keeps
  /// appending to the survivor.
  void begin(const Json& header) CPM_EXCLUDES(mutex_);

  /// The resume handshake. With `resume`, replays the journal: a survivor
  /// whose header equals `header` (each header fingerprints its run) is
  /// returned, and appends continue it; any other header throws
  /// IoError(kCorrupt) "<what>: journal '<path>' belongs to a different
  /// run (header mismatch)". Without `resume`, or with no survivor header,
  /// begins a fresh journal and returns no records (`dropped` still counts
  /// the bad lines of a survivor).
  JournalReplay resume_or_begin(const Json& header, bool resume,
                                const std::string& what) CPM_EXCLUDES(mutex_);

  /// Appends one checksummed record and flushes it to the kernel.
  /// Thread-safe; transient failures are retried per the policy.
  void append(const Json& record) CPM_EXCLUDES(mutex_);

  /// Frames `value` as a journal line (exposed for tests and tools).
  static std::string frame(const Json& value);

  /// Scans `path`, validating each line. Missing/unreadable file =>
  /// `found == false` and an otherwise empty result.
  static JournalReplay replay(FileSystem& fs, const std::string& path);

 private:
  FileSystem& fs_;
  std::string path_;
  RetryPolicy retry_;
  std::function<void(units::Seconds)> sleeper_;
  Mutex mutex_;
};

}  // namespace cpm::resilience
