// FaultInjectionEnv: an Env decorator that injects storage faults on a
// seedable schedule so recovery paths can be exercised deterministically.
//
// Three classes of fault are supported:
//   * fail-the-Nth-op: the append/sync/rename/truncate/atomic-write whose
//     0-based lifetime index reaches an armed threshold fails with an
//     injected IOError (and keeps failing until Heal()).
//   * torn writes: a power cut keeps a seeded random prefix of the bytes
//     written since the last fsync, so a WAL record can be cut anywhere —
//     mid-header, mid-payload, or exactly on a record boundary.
//   * power cut: at the Nth fsync (or on demand) the "machine" loses
//     power. That fsync fails, every byte not made durable by an earlier
//     fsync is dropped (modulo the torn prefix), and every subsequent Env
//     call fails with kUnavailable until Restart() — which models the
//     machine rebooting with whatever survived on disk.
//
// Durability is modeled logically: Sync() records which bytes would have
// survived instead of calling fsync(2), so a crash matrix with tens of
// thousands of sync points runs in seconds. Data still reaches the real
// filesystem through the wrapped Env on every Append. WriteFileAtomic is
// implemented on top of this Env's own primitives (tmp write + sync +
// rename) so checkpoint/CURRENT flips are schedulable and tearable too.

#ifndef NEPTUNE_STORAGE_FAULT_INJECTION_ENV_H_
#define NEPTUNE_STORAGE_FAULT_INJECTION_ENV_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/random.h"
#include "storage/env.h"

namespace neptune {

class FaultInjectionEnv : public Env {
 public:
  static constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

  explicit FaultInjectionEnv(Env* base, uint64_t seed = 1);

  // ------------------------------------------------------- observation
  uint64_t appends() const { return appends_.load(); }
  uint64_t syncs() const { return syncs_.load(); }
  uint64_t renames() const { return renames_.load(); }
  uint64_t truncates() const { return truncates_.load(); }
  uint64_t atomic_writes() const { return atomic_writes_.load(); }
  bool down() const { return down_.load(); }

  // ------------------------------------------------------ fault arming
  // The op whose 0-based lifetime index is >= n fails (until Heal()).
  void FailAppendsAfter(uint64_t n) { fail_appends_after_ = n; }
  void FailSyncsAfter(uint64_t n) { fail_syncs_after_ = n; }
  void FailRenamesAfter(uint64_t n) { fail_renames_after_ = n; }
  void FailTruncatesAfter(uint64_t n) { fail_truncates_after_ = n; }
  void FailAtomicWritesAfter(uint64_t n) { fail_atomic_writes_after_ = n; }

  // Powers the machine off at exactly the Nth (0-based) fsync.
  void PowerCutAtSync(uint64_t n) { power_cut_at_sync_ = n; }
  void PowerCutNow();

  // Makes every fsync take `us` microseconds, so appends on other
  // threads can land while one is in flight; it covers only the bytes
  // written before it started. 0 (the default) makes fsyncs instant.
  void SetSyncLatencyMicros(uint64_t us) { sync_latency_us_ = us; }

  // Disarms every schedule. Does not revive a machine that lost power.
  void Heal();

  // After a power cut: the machine comes back up and whatever the cut
  // left on disk is now fully durable. Counters keep running.
  void Restart();

  // ------------------------------------------------------ Env interface
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  Result<std::string> ReadFileToString(const std::string& path) override;
  Status WriteFileAtomic(const std::string& path,
                         std::string_view data) override;
  Status TruncateFile(const std::string& path, uint64_t size) override;
  bool FileExists(const std::string& path) override;
  Result<uint64_t> GetFileSize(const std::string& path) override;
  Status CreateDir(const std::string& path) override;
  Status RemoveFile(const std::string& path) override;
  Status RemoveDirRecursive(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Result<std::vector<std::string>> GetChildren(const std::string& dir) override;
  Status SetPermissions(const std::string& path, uint32_t mode) override;

 private:
  class FaultFile;

  // Per-open-file durability tracking. `written` is what the OS has,
  // `durable` is what an honest fsync has pinned down.
  struct FileState {
    uint64_t written = 0;
    uint64_t durable = 0;
  };

  Status DownStatus() const {
    return Status::Unavailable("simulated power loss: machine is down");
  }

  // Truncates every tracked file to its durable size plus a seeded
  // random torn prefix of the lost tail. Caller holds mu_.
  void ApplyPowerCutLocked();

  Env* const base_;

  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> renames_{0};
  std::atomic<uint64_t> truncates_{0};
  std::atomic<uint64_t> atomic_writes_{0};

  std::atomic<uint64_t> fail_appends_after_{kNever};
  std::atomic<uint64_t> fail_syncs_after_{kNever};
  std::atomic<uint64_t> fail_renames_after_{kNever};
  std::atomic<uint64_t> fail_truncates_after_{kNever};
  std::atomic<uint64_t> fail_atomic_writes_after_{kNever};
  std::atomic<uint64_t> power_cut_at_sync_{kNever};
  std::atomic<uint64_t> sync_latency_us_{0};

  std::atomic<bool> down_{false};

  std::mutex mu_;
  Random rng_;                             // guarded by mu_
  std::map<std::string, FileState> files_;  // guarded by mu_
};

}  // namespace neptune

#endif  // NEPTUNE_STORAGE_FAULT_INJECTION_ENV_H_
