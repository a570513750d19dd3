// DurableStore: the on-disk layout of one HAM graph database.
//
// A graph lives in its own directory (exactly as the 1986 HAM's
// createGraph took a Directory operand):
//
//   PROJECT        immutable metadata (project id, creation time,
//                  protections) written once at create time
//   CURRENT        name of the live snapshot, updated atomically
//   SNAP-<epoch>   full serialized graph state at checkpoint <epoch>
//   WAL-<epoch>    redo records committed after that checkpoint
//
// Commit path: serialize the transaction, AppendRecord() (optionally
// fsync), then apply in memory. Group commit splits the append from the
// fsync: AppendRecordDeferred() returns the record's LSN and SyncTo()
// lets concurrent committers share one fsync. Recovery: load SNAP,
// replay WAL; a torn WAL tail (crash mid-commit) is detected by CRC and
// truncated, which is precisely "complete recovery from any aborted
// transaction".
// Checkpoint(): write SNAP-<epoch+1> + empty WAL, flip CURRENT, delete
// the old generation.

#ifndef NEPTUNE_STORAGE_DURABLE_STORE_H_
#define NEPTUNE_STORAGE_DURABLE_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/env.h"
#include "storage/wal.h"

namespace neptune {

// Structured account of what recovery had to do. Always populated by
// Open(); every field is zero/false for a clean shutdown-and-reopen.
struct RecoveryReport {
  uint64_t snapshot_epoch = 0;    // epoch whose SNAP seeded the state
  uint64_t wal_epoch = 0;         // live generation new commits go to
  uint64_t wal_files_replayed = 0;
  uint64_t records_replayed = 0;
  uint64_t bytes_truncated = 0;   // torn/corrupt WAL bytes dropped
  bool wal_tail_truncated = false;
  // Damage before the live WAL's last record — more than a torn append.
  bool mid_log_corruption = false;
  // CURRENT's snapshot was unusable; an older epoch seeded recovery.
  bool snapshot_fallback = false;
  // CURRENT itself was missing/unparsable and has been rewritten.
  bool current_rewritten = false;
  uint64_t orphans_removed = 0;   // stale generations + tmp files deleted

  bool Clean() const {
    return !wal_tail_truncated && !mid_log_corruption && !snapshot_fallback &&
           !current_rewritten && bytes_truncated == 0 && orphans_removed == 0;
  }
  std::string ToString() const;
  // Machine-readable form (neptune_ctl recover --json).
  std::string ToJson() const;
};

// Replication role of one store, persisted in a small REPL file next to
// PROJECT. `term` is the fencing epoch: it is bumped exactly once per
// promotion, so a deposed primary always carries a lower term than the
// cluster's live primary and its stream is rejected by followers. A
// store with no REPL file is an ordinary standalone primary at term 0.
struct ReplRole {
  uint64_t term = 0;
  bool follower = false;
};

// A slice of one WAL generation, as shipped to followers. `bytes` is a
// whole number of frames starting at the requested offset; the CRCs
// travel with the frames so the receiver re-validates with ReadLog.
struct WalChunk {
  std::string bytes;
  // Total committed bytes in the generation at read time. For an old
  // (checkpointed) generation this is final; for the live one it grows.
  uint64_t epoch_bytes = 0;
  // True when the generation has been checkpointed away: once a
  // follower drains `epoch_bytes` it should roll to the next epoch.
  bool epoch_complete = false;
};

// Everything recovery learned from disk.
struct RecoveredState {
  std::string meta;                       // PROJECT contents
  std::string snapshot;                   // live snapshot blob
  std::vector<std::string> wal_records;   // committed records after it
  bool wal_tail_truncated = false;        // a torn commit was dropped
  RecoveryReport report;
};

class DurableStore {
 public:
  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;
  ~DurableStore();

  // Creates the directory and the initial generation. Fails with
  // AlreadyExists if the directory already holds a store. `dir_mode`
  // is applied to the directory (HAM Protections).
  static Result<std::unique_ptr<DurableStore>> Create(
      Env* env, const std::string& dir, std::string_view meta,
      std::string_view initial_snapshot, uint32_t dir_mode);

  // Opens an existing store, running recovery; the recovered state is
  // written to `*state`. `keep_wal_generations` old WAL generations
  // below the committed one survive the healthy-recovery orphan sweep
  // (they are replication tail history, not debris).
  static Result<std::unique_ptr<DurableStore>> Open(
      Env* env, const std::string& dir, RecoveredState* state,
      uint32_t keep_wal_generations = 0);

  // Creates (or atomically replaces) a store from a replicated snapshot
  // at an explicit epoch, marked as a follower at `term`. Used when a
  // follower bootstraps or is too far behind to tail and must resync.
  static Result<std::unique_ptr<DurableStore>> CreateForReplica(
      Env* env, const std::string& dir, std::string_view meta,
      std::string_view snapshot, uint64_t epoch, uint64_t term);

  // Removes the store directory and everything in it.
  static Status Destroy(Env* env, const std::string& dir);

  // True iff `dir` looks like a store (has a PROJECT file).
  static bool Exists(Env* env, const std::string& dir);

  // Reads just the PROJECT metadata without opening the store.
  static Result<std::string> ReadMeta(Env* env, const std::string& dir);

  // Appends one committed-transaction record to the live WAL.
  //
  // The first append/fsync failure puts the store into a degraded mode:
  // the failed commit's bytes may linger unsynced past the last good
  // offset, so the writer is no longer trusted. Each later append first
  // tries to repair the WAL (truncate back to the last durable record
  // and reopen); if the repair itself fails the append is rejected with
  // kReadOnly — reads keep working — until a repair or Checkpoint()
  // succeeds.
  Status AppendRecord(std::string_view record, bool sync);

  // Group commit, step one: appends a record without fsync and returns
  // its LSN, the count of bytes ever appended to this store once the
  // record is in (it keeps counting across checkpoints and repairs, so
  // a later record always has a larger LSN). The record is neither
  // durable nor shipped by ReadWalRange until SyncTo covers it.
  // `after_lsn` is the LSN of the not-yet-durable record this one was
  // built on (0 if it was built on durable state only). If a failure
  // has degraded the store and that record is not durable, the record
  // it builds on is lost, so this one is refused with kAborted and the
  // store stays degraded; otherwise degraded-mode handling matches
  // AppendRecord. The check and the repair share one critical section,
  // so a failure landing while the caller prepares its record cannot
  // slip a dependent record into the repaired log. Callers serialize
  // appends among themselves (the HAM holds its graph lock).
  Result<uint64_t> AppendRecordDeferred(std::string_view record,
                                        uint64_t after_lsn);

  // Group commit, step two: returns once every record up to `lsn` is
  // durable. Safe to call from any thread without the caller's append
  // lock. The first caller that finds no fsync in flight leads: it
  // fsyncs everything appended so far, and every waiter it covers
  // returns with it. A failed fsync degrades the store: every record
  // past the durable offset is lost, and SyncTo returns the failure for
  // it. Once a repair has run, an OK return for an LSN whose record the
  // repair dropped is possible; callers track the fate of their own
  // records (AppendRecordDeferred's after_lsn keeps a repair from
  // running under a record built on a lost one).
  Status SyncTo(uint64_t lsn);

  // Appends already-framed replicated bytes to the live WAL (follower
  // apply path). The caller must have CRC-validated `frames` with
  // ReadLog; degraded-mode handling matches AppendRecord.
  Status AppendRawFrames(std::string_view frames, bool sync);

  // Reads up to `max_bytes` of committed WAL frames from generation
  // `epoch` starting at byte `offset` (primary side of replication).
  // For the live generation only bytes below wal_bytes() are served —
  // anything past that is an in-flight or failed append and must not
  // ship. NotFound: the generation is gone (follower must resync from
  // a snapshot). FailedPrecondition: `offset` is past the committed
  // end (histories diverged; resync).
  Result<WalChunk> ReadWalRange(uint64_t epoch, uint64_t offset,
                                uint64_t max_bytes);

  // Reads and CRC-validates the live generation's snapshot blob
  // (snapshot transfer to a bootstrapping or lagging follower).
  Result<std::string> ReadSnapshotBlob();

  // Starts a new generation whose snapshot is `snapshot` and whose WAL
  // is empty, then removes the previous generation. On failure any
  // half-created next-generation files are removed and the store keeps
  // running on the old generation. Deferred appends must have been
  // synced first: the snapshot replaces the log they live in.
  Status Checkpoint(std::string_view snapshot);

  const std::string& dir() const { return dir_; }
  uint64_t epoch() const { return epoch_; }
  // Durable bytes in the live WAL generation (what replication ships).
  uint64_t wal_bytes() const;
  // True while commits are being rejected with kReadOnly (see
  // AppendRecord); reads are unaffected.
  bool degraded() const;
  // One consistent reading of the group-commit state.
  struct SyncState {
    // LSN up to which every surviving record is durable (see SyncTo).
    uint64_t durable_lsn = 0;
    // The append or fsync failure that degraded the store; OK while it
    // is not degraded. Every record past durable_lsn is then lost.
    Status failure;
  };
  SyncState sync_state() const;

  // Replication role (see ReplRole). SetReplRole persists atomically.
  const ReplRole& repl_role() const { return repl_; }
  Status SetReplRole(const ReplRole& role);

  // How many checkpointed WAL generations Checkpoint() retains so
  // followers can tail across a checkpoint instead of re-snapshotting.
  void set_keep_wal_generations(uint32_t n) { keep_wal_generations_ = n; }
  uint32_t keep_wal_generations() const { return keep_wal_generations_; }

 private:
  DurableStore(Env* env, std::string dir, uint64_t epoch,
               std::unique_ptr<LogWriter> wal, uint64_t wal_bytes)
      : env_(env),
        dir_(std::move(dir)),
        epoch_(epoch),
        wal_(std::move(wal)),
        wal_bytes_(wal_bytes),
        appended_bytes_(wal_bytes) {}

  static std::string SnapName(uint64_t epoch);
  static std::string WalName(uint64_t epoch);

  // Truncates the live WAL back to wal_bytes_ (the last good record
  // boundary) and reopens the writer. Clears degraded_ on success.
  Status RepairWal(std::unique_lock<std::mutex>& lock);

  // Appends through `append` with shared degraded-mode bookkeeping and
  // returns the new LSN. `durable` marks the bytes committed at once
  // (no fsync follows); `after_lsn` is as for AppendRecordDeferred.
  Result<uint64_t> AppendCommon(uint64_t framed_size, bool durable,
                                uint64_t after_lsn,
                                const std::function<Status()>& append);

  // Records an append/fsync failure and enters degraded mode.
  void EnterDegradedLocked(const Status& failure);

  Env* env_;
  std::string dir_;
  uint64_t epoch_;

  // mu_ guards everything below. The fsync itself runs without it
  // (sync_in_flight_ marks it), so appends proceed during a group's
  // fsync; anything that replaces wal_ first waits for the fsync.
  mutable std::mutex mu_;
  std::condition_variable sync_cv_;
  std::unique_ptr<LogWriter> wal_;  // null only while degraded_
  uint64_t wal_bytes_;       // durable end of the live generation
  uint64_t appended_bytes_;  // append end of the live generation
  uint64_t durable_lsn_ = 0;
  uint64_t appended_lsn_ = 0;
  bool sync_in_flight_ = false;
  bool degraded_ = false;
  Status failure_;
  ReplRole repl_;
  uint32_t keep_wal_generations_ = 0;
};

}  // namespace neptune

#endif  // NEPTUNE_STORAGE_DURABLE_STORE_H_
