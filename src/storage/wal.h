// Write-ahead log. Each committed HAM transaction is serialized into
// one record and appended here before it is applied to the in-memory
// graph; recovery replays the log on top of the latest snapshot.
//
// On-disk frame (per record):
//     masked_crc32c : fixed32   over the payload
//     length        : fixed32   payload byte count
//     payload       : length bytes
//
// Any bad record (short header, short payload, or CRC mismatch)
// terminates reading: the reader keeps every record up to the first bad
// one and reports how many bytes they cover so the caller can truncate
// the tail. Damage before the last record additionally sets
// `mid_log_corruption` — it cannot be explained by a single torn append,
// so callers should surface it loudly — but recovery still salvages the
// valid prefix instead of failing outright.

#ifndef NEPTUNE_STORAGE_WAL_H_
#define NEPTUNE_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/env.h"

namespace neptune {

class LogWriter {
 public:
  explicit LogWriter(std::unique_ptr<WritableFile> file)
      : file_(std::move(file)) {}

  LogWriter(const LogWriter&) = delete;
  LogWriter& operator=(const LogWriter&) = delete;

  // Appends one framed record. If `sync`, the record is durable when
  // this returns.
  Status AddRecord(std::string_view payload, bool sync);

  // Appends bytes that are already a sequence of valid frames (WAL
  // replication ships raw frame ranges so the receiver can re-verify
  // the CRCs with ReadLog before trusting them). The caller must have
  // validated `frames`; nothing is re-framed here.
  Status AddRawFrames(std::string_view frames, bool sync);

  // fsyncs everything appended so far. May run on another thread
  // concurrently with an append; it then covers at least the bytes
  // appended before it started.
  Status Sync();

  Status Close() { return file_->Close(); }

 private:
  std::unique_ptr<WritableFile> file_;
};

// Parses a fully-read log file image.
struct LogReadResult {
  std::vector<std::string> records;
  // Offset of the first byte not covered by a valid record. Equal to
  // the file size when the log is clean; smaller when a torn tail was
  // dropped.
  uint64_t valid_bytes = 0;
  // True when trailing bytes were dropped (crash mid-append).
  bool truncated_tail = false;
  // Bytes between valid_bytes and the end of the file (0 for a clean log).
  uint64_t dropped_bytes = 0;
  // True when the first bad record was not the last one in the file —
  // i.e. data after it parsed as further frames, which a torn append
  // cannot produce. The prefix is still returned.
  bool mid_log_corruption = false;
};

// Decodes the longest valid prefix of `data`. Never fails: damage of
// any shape truncates at the first bad record and is reported through
// the result flags. (The Result wrapper is kept for call-site symmetry.)
Result<LogReadResult> ReadLog(std::string_view data);

}  // namespace neptune

#endif  // NEPTUNE_STORAGE_WAL_H_
