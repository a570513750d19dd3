#include "storage/fault_injection_env.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace neptune {

// Forwards writes to the wrapped file while reporting sizes back to the
// env, so a power cut knows how much of this file was never fsynced.
class FaultInjectionEnv::FaultFile : public WritableFile {
 public:
  FaultFile(FaultInjectionEnv* env, std::string path,
            std::unique_ptr<WritableFile> base)
      : env_(env), path_(std::move(path)), base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    if (env_->down()) return env_->DownStatus();
    const uint64_t n = env_->appends_.fetch_add(1);
    if (n >= env_->fail_appends_after_.load()) {
      return Status::IOError("injected append failure for " + path_);
    }
    NEPTUNE_RETURN_IF_ERROR(base_->Append(data));
    std::lock_guard<std::mutex> lock(env_->mu_);
    env_->files_[path_].written += data.size();
    return Status::OK();
  }

  Status Sync() override {
    if (env_->down()) return env_->DownStatus();
    const uint64_t n = env_->syncs_.fetch_add(1);
    if (n == env_->power_cut_at_sync_.load()) {
      // The power dies while this fsync is in flight: it never completes,
      // and everything not already durable is at the disk's mercy.
      env_->PowerCutNow();
      return env_->DownStatus();
    }
    if (n >= env_->fail_syncs_after_.load()) {
      return Status::IOError("injected fsync failure for " + path_);
    }
    // Durability is modeled, not bought: no fsync(2) — the bytes already
    // reached the filesystem via Append, which is all tests observe. An
    // fsync pins down what was written when it started; bytes appended
    // while it runs (see SetSyncLatencyMicros) are not covered.
    uint64_t covered = 0;
    {
      std::lock_guard<std::mutex> lock(env_->mu_);
      covered = env_->files_[path_].written;
    }
    const uint64_t latency_us = env_->sync_latency_us_.load();
    if (latency_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(latency_us));
      if (env_->down()) return env_->DownStatus();
    }
    std::lock_guard<std::mutex> lock(env_->mu_);
    FileState& fs = env_->files_[path_];
    fs.durable = std::max(fs.durable, covered);
    return Status::OK();
  }

  Status Close() override {
    Status status = base_->Close();
    if (env_->down()) return env_->DownStatus();
    // A cleanly closed file is out of the blast radius: the stores close
    // files only after syncing what they care about, and modeling
    // close-then-crash of cold files adds nothing to the matrix.
    std::lock_guard<std::mutex> lock(env_->mu_);
    env_->files_.erase(path_);
    return status;
  }

 private:
  FaultInjectionEnv* env_;
  std::string path_;
  std::unique_ptr<WritableFile> base_;
};

FaultInjectionEnv::FaultInjectionEnv(Env* base, uint64_t seed)
    : base_(base), rng_(seed) {}

void FaultInjectionEnv::PowerCutNow() {
  std::lock_guard<std::mutex> lock(mu_);
  if (down_.exchange(true)) return;
  ApplyPowerCutLocked();
}

void FaultInjectionEnv::Heal() {
  fail_appends_after_ = kNever;
  fail_syncs_after_ = kNever;
  fail_renames_after_ = kNever;
  fail_truncates_after_ = kNever;
  fail_atomic_writes_after_ = kNever;
  power_cut_at_sync_ = kNever;
}

void FaultInjectionEnv::Restart() {
  std::lock_guard<std::mutex> lock(mu_);
  files_.clear();
  down_ = false;
}

void FaultInjectionEnv::ApplyPowerCutLocked() {
  for (const auto& [path, fs] : files_) {
    if (fs.written <= fs.durable) continue;
    const uint64_t lost = fs.written - fs.durable;
    // The disk may have persisted any prefix of the unsynced tail — this
    // is what makes torn records: keep [0, lost] extra bytes.
    const uint64_t kept = fs.durable + rng_.Uniform(lost + 1);
    base_->TruncateFile(path, kept);  // best effort; the machine is dying
  }
}

Result<std::unique_ptr<WritableFile>> FaultInjectionEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  if (down()) return DownStatus();
  NEPTUNE_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                           base_->NewWritableFile(path, truncate));
  uint64_t size = 0;
  if (!truncate) {
    auto existing = base_->GetFileSize(path);
    if (existing.ok()) size = *existing;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Pre-existing contents were someone else's responsibility to sync;
    // treat them as durable so a cut only tears what this handle wrote.
    files_[path] = FileState{size, size};
  }
  return std::unique_ptr<WritableFile>(
      new FaultFile(this, path, std::move(file)));
}

Result<std::string> FaultInjectionEnv::ReadFileToString(
    const std::string& path) {
  if (down()) return DownStatus();
  return base_->ReadFileToString(path);
}

Status FaultInjectionEnv::WriteFileAtomic(const std::string& path,
                                          std::string_view data) {
  if (down()) return DownStatus();
  const uint64_t n = atomic_writes_.fetch_add(1);
  if (n >= fail_atomic_writes_after_.load()) {
    return Status::IOError("injected atomic-write failure for " + path);
  }
  // Built from this Env's own primitives so the tmp write, its fsync and
  // the final rename are all individually schedulable and tearable.
  const std::string tmp = path + ".tmp";
  Status status = [&] {
    NEPTUNE_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                             NewWritableFile(tmp, /*truncate=*/true));
    NEPTUNE_RETURN_IF_ERROR(file->Append(data));
    NEPTUNE_RETURN_IF_ERROR(file->Sync());
    return file->Close();
  }();
  if (status.ok()) status = RenameFile(tmp, path);
  // A mere failure cleans up its tmp like PosixEnv does; a power cut is a
  // crash, so the orphan stays for recovery to deal with.
  if (!status.ok() && !down()) base_->RemoveFile(tmp);
  return status;
}

Status FaultInjectionEnv::TruncateFile(const std::string& path,
                                       uint64_t size) {
  if (down()) return DownStatus();
  const uint64_t n = truncates_.fetch_add(1);
  if (n >= fail_truncates_after_.load()) {
    return Status::IOError("injected truncate failure for " + path);
  }
  NEPTUNE_RETURN_IF_ERROR(base_->TruncateFile(path, size));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it != files_.end()) {
    it->second.written = std::min(it->second.written, size);
    it->second.durable = std::min(it->second.durable, size);
  }
  return Status::OK();
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Result<uint64_t> FaultInjectionEnv::GetFileSize(const std::string& path) {
  if (down()) return DownStatus();
  return base_->GetFileSize(path);
}

Status FaultInjectionEnv::CreateDir(const std::string& path) {
  if (down()) return DownStatus();
  return base_->CreateDir(path);
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  if (down()) return DownStatus();
  return base_->RemoveFile(path);
}

Status FaultInjectionEnv::RemoveDirRecursive(const std::string& path) {
  if (down()) return DownStatus();
  return base_->RemoveDirRecursive(path);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  if (down()) return DownStatus();
  const uint64_t n = renames_.fetch_add(1);
  if (n >= fail_renames_after_.load()) {
    return Status::IOError("injected rename failure for " + from);
  }
  NEPTUNE_RETURN_IF_ERROR(base_->RenameFile(from, to));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(from);
  if (it != files_.end()) {
    files_[to] = it->second;
    files_.erase(it);
  }
  return Status::OK();
}

Result<std::vector<std::string>> FaultInjectionEnv::GetChildren(
    const std::string& dir) {
  if (down()) return DownStatus();
  return base_->GetChildren(dir);
}

Status FaultInjectionEnv::SetPermissions(const std::string& path,
                                         uint32_t mode) {
  if (down()) return DownStatus();
  return base_->SetPermissions(path, mode);
}

}  // namespace neptune
