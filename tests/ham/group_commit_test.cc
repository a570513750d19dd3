// Group commit: a commit's fsync runs outside the graph lock and the
// writer slot. While it is in flight, readers see the pre-commit state
// without waiting, the next writer's transaction builds on the pending
// version, the commit is not acked, and replication ships nothing past
// the durable offset. A failed group fsync drops the pending commit and
// every transaction that read from it.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>

#include "ham/ham.h"

namespace neptune {
namespace ham {
namespace {

using std::chrono::seconds;

// An Env whose WAL Sync() can be held on a latch. Arm() makes the next
// Sync block until Release(), which decides what that Sync returns.
class LatchEnv : public Env {
 public:
  explicit LatchEnv(Env* base) : base_(base) {}

  void Arm() {
    std::lock_guard<std::mutex> lock(mu_);
    armed_ = true;
  }
  // Waits until an armed Sync is blocked on the latch.
  bool WaitBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, seconds(10), [&] { return blocked_; });
  }
  // Opens the latch; the blocked Sync returns `result` (an OK result
  // runs the real fsync first).
  void Release(Status result) {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    result_ = std::move(result);
    cv_.notify_all();
  }

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    NEPTUNE_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                             base_->NewWritableFile(path, truncate));
    return std::unique_ptr<WritableFile>(
        std::make_unique<LatchFile>(this, std::move(file)));
  }
  Result<std::string> ReadFileToString(const std::string& path) override {
    return base_->ReadFileToString(path);
  }
  Status WriteFileAtomic(const std::string& path,
                         std::string_view data) override {
    return base_->WriteFileAtomic(path, data);
  }
  Status TruncateFile(const std::string& path, uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  Result<uint64_t> GetFileSize(const std::string& path) override {
    return base_->GetFileSize(path);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status RemoveDirRecursive(const std::string& path) override {
    return base_->RemoveDirRecursive(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Result<std::vector<std::string>> GetChildren(
      const std::string& dir) override {
    return base_->GetChildren(dir);
  }
  Status SetPermissions(const std::string& path, uint32_t mode) override {
    return base_->SetPermissions(path, mode);
  }

 private:
  class LatchFile : public WritableFile {
   public:
    LatchFile(LatchEnv* env, std::unique_ptr<WritableFile> base)
        : env_(env), base_(std::move(base)) {}
    Status Append(std::string_view data) override {
      return base_->Append(data);
    }
    Status Sync() override {
      Status result = env_->AwaitLatch();
      return result.ok() ? base_->Sync() : result;
    }
    Status Close() override { return base_->Close(); }

   private:
    LatchEnv* env_;
    std::unique_ptr<WritableFile> base_;
  };

  Status AwaitLatch() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!armed_) return Status::OK();
    armed_ = false;
    blocked_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
    blocked_ = false;
    released_ = false;
    return result_;
  }

  Env* const base_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool armed_ = false;
  bool blocked_ = false;
  bool released_ = false;
  Status result_;
};

class GroupCommitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("neptune_group_commit_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    Env::Default()->RemoveDirRecursive(dir_);
    Open();
    auto created = ham_->CreateGraph(dir_, 0755);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    project_ = created->project;
    writer_a_ = OpenSession();
    writer_b_ = OpenSession();
    reader_ = OpenSession();
    auto added = ham_->AddNode(writer_a_, /*keep_history=*/true);
    ASSERT_TRUE(added.ok());
    node_ = added->node;
    ASSERT_TRUE(
        ham_->ModifyNode(writer_a_, node_, added->creation_time, "v1", {}, "")
            .ok());
    v1_time_ = *ham_->GetNodeTimeStamp(reader_, node_);
  }

  void TearDown() override {
    ham_.reset();
    Env::Default()->RemoveDirRecursive(dir_);
  }

  void Open() {
    HamOptions options;
    options.sync_commits = true;
    ham_ = std::make_unique<Ham>(&env_, options);
  }

  Context OpenSession() {
    auto ctx = ham_->OpenGraph(project_, "local", dir_);
    EXPECT_TRUE(ctx.ok()) << ctx.status().ToString();
    return ctx.ok() ? *ctx : Context{};
  }

  std::string Contents(Context ctx) {
    auto opened = ham_->OpenNode(ctx, node_, 0, {});
    return opened.ok() ? opened->contents : opened.status().ToString();
  }

  // Starts writer A's commit of `contents` on a thread; its fsync
  // blocks on the armed latch.
  std::future<Status> CommitBlocked(const std::string& contents) {
    EXPECT_TRUE(ham_->BeginTransaction(writer_a_).ok());
    EXPECT_TRUE(
        ham_->ModifyNode(writer_a_, node_, v1_time_, contents, {}, "").ok());
    env_.Arm();
    auto future = std::async(std::launch::async,
                             [&] { return ham_->CommitTransaction(writer_a_); });
    EXPECT_TRUE(env_.WaitBlocked()) << "the commit never reached its fsync";
    return future;
  }

  // Runs `fn` on another thread; false if it is still blocked after a
  // generous bound (it is then waiting behind the held fsync, which is
  // released so the test can finish).
  template <typename Fn>
  bool CompletesWhileSyncHeld(Fn fn) {
    auto future = std::async(std::launch::async, fn);
    if (future.wait_for(seconds(5)) == std::future_status::ready) return true;
    env_.Release(Status::OK());
    return false;
  }

  LatchEnv env_{Env::Default()};
  std::string dir_;
  std::unique_ptr<Ham> ham_;
  ProjectId project_ = 0;
  Context writer_a_;
  Context writer_b_;
  Context reader_;
  NodeIndex node_ = 0;
  Time v1_time_ = 0;
};

TEST_F(GroupCommitTest, PendingCommitIsInvisibleToReadersAndUnacked) {
  auto status = ham_->ReplStatus(dir_);
  ASSERT_TRUE(status.ok());
  const uint64_t durable_bytes = status->wal_bytes;

  std::future<Status> commit = CommitBlocked("v2");

  // A reader returns the pre-commit version without waiting.
  std::string seen;
  EXPECT_TRUE(CompletesWhileSyncHeld([&] { seen = Contents(reader_); }));
  EXPECT_EQ(seen, "v1");

  // The commit is not acked while its fsync is held.
  EXPECT_EQ(commit.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);

  // The writer slot is already free: the next writer's transaction
  // builds on the pending version and its expected time.
  Time pending_time = 0;
  Status stale;
  Status fresh;
  EXPECT_TRUE(CompletesWhileSyncHeld([&] {
    ASSERT_TRUE(ham_->BeginTransaction(writer_b_).ok());
    EXPECT_EQ(Contents(writer_b_), "v2");
    pending_time = *ham_->GetNodeTimeStamp(writer_b_, node_);
    stale = ham_->ModifyNode(writer_b_, node_, v1_time_, "lost update", {}, "");
    fresh = ham_->ModifyNode(writer_b_, node_, pending_time, "v3", {}, "");
  }));
  EXPECT_GT(pending_time, v1_time_);
  EXPECT_FALSE(stale.ok()) << "expected_time must check the pending version";
  EXPECT_TRUE(fresh.ok()) << fresh.ToString();

  // Replication ships nothing past the durable offset.
  ReplFetchRequest request;
  request.directory = dir_;
  request.follower_id = "probe";
  request.epoch = status->epoch;
  // (No ASSERT while the fsync is held: an early return would leave
  // the committing thread blocked on the latch.)
  auto fetched = ham_->ReplFetch(request);
  EXPECT_TRUE(fetched.ok()) << fetched.status().ToString();
  if (fetched.ok()) {
    EXPECT_EQ(fetched->payload.size(), durable_bytes);
    EXPECT_EQ(fetched->epoch_bytes, durable_bytes);
  }
  EXPECT_EQ(ham_->ReplStatus(dir_)->wal_bytes, durable_bytes);

  env_.Release(Status::OK());
  ASSERT_TRUE(commit.get().ok());
  EXPECT_EQ(Contents(reader_), "v2");
  EXPECT_GT(ham_->ReplStatus(dir_)->wal_bytes, durable_bytes);

  ASSERT_TRUE(ham_->CommitTransaction(writer_b_).ok());
  EXPECT_EQ(Contents(reader_), "v3");

  // Both acked commits are durable.
  ham_.reset();
  Open();
  reader_ = OpenSession();
  EXPECT_EQ(Contents(reader_), "v3");
}

TEST_F(GroupCommitTest, FailedSyncDropsPendingAndChainedTransactions) {
  const size_t versions_before =
      ham_->GetNodeVersions(reader_, node_)->major.size();
  std::future<Status> commit = CommitBlocked("doomed");

  // Writer B stages work on top of the pending commit.
  Status chained;
  EXPECT_TRUE(CompletesWhileSyncHeld([&] {
    ASSERT_TRUE(ham_->BeginTransaction(writer_b_).ok());
    const Time pending_time = *ham_->GetNodeTimeStamp(writer_b_, node_);
    chained = ham_->ModifyNode(writer_b_, node_, pending_time, "built on doomed",
                               {}, "");
  }));
  EXPECT_TRUE(chained.ok()) << chained.ToString();

  env_.Release(Status::IOError("injected fsync failure"));
  const Status failed = commit.get();
  EXPECT_TRUE(failed.IsIOError()) << failed.ToString();

  // The chained transaction is aborted the way a lease expiry aborts
  // one: its next mutation and its commit both report it.
  EXPECT_TRUE(
      ham_->ModifyNode(writer_b_, node_, v1_time_, "more", {}, "").IsAborted());
  EXPECT_TRUE(ham_->CommitTransaction(writer_b_).IsAborted());

  // State is unchanged.
  EXPECT_EQ(Contents(reader_), "v1");
  EXPECT_EQ(ham_->GetNodeVersions(reader_, node_)->major.size(),
            versions_before);
  EXPECT_EQ(*ham_->GetNodeTimeStamp(reader_, node_), v1_time_);

  // The next commit repairs the WAL and succeeds.
  ASSERT_TRUE(ham_->BeginTransaction(writer_a_).ok());
  ASSERT_TRUE(ham_->ModifyNode(writer_a_, node_, v1_time_, "v2", {}, "").ok());
  ASSERT_TRUE(ham_->CommitTransaction(writer_a_).ok());
  EXPECT_EQ(Contents(reader_), "v2");

  // Recovery agrees: the dropped commits never come back.
  ham_.reset();
  Open();
  reader_ = OpenSession();
  EXPECT_EQ(Contents(reader_), "v2");
  EXPECT_EQ(ham_->GetNodeVersions(reader_, node_)->major.size(),
            versions_before + 1);
}

// The group fsync fails while the next writer commits work built on the
// pending commit. Swept across offsets, the failure lands before that
// writer looks at the pending queue, between that look and its append
// (a large record is encoded in between), and after the append. Wherever
// it lands, neither commit is acked and neither survives, in memory or
// in the log: the log would otherwise be repaired under the chained
// record, and a later fsync would ack both over a lost record.
TEST_F(GroupCommitTest, FailedSyncRacingChainedCommitAcksNeither) {
  auto added = ham_->AddNode(writer_a_, /*keep_history=*/true);
  ASSERT_TRUE(added.ok());
  const NodeIndex other = added->node;
  const std::string big(1 << 20, 'x');
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE("round=" + std::to_string(round));
    std::future<Status> commit = CommitBlocked("doomed");
    Status staged;
    EXPECT_TRUE(CompletesWhileSyncHeld([&] {
      staged = ham_->BeginTransaction(writer_b_);
      if (!staged.ok()) return;
      const Time t = *ham_->GetNodeTimeStamp(writer_b_, other);
      staged = ham_->ModifyNode(writer_b_, other, t, big, {}, "");
    }));
    EXPECT_TRUE(staged.ok()) << staged.ToString();
    const auto delay = std::chrono::microseconds(20 * round);
    std::thread failer([&] {
      // Spin: a sleep this short overshoots by the timer slack.
      const auto until = std::chrono::steady_clock::now() + delay;
      while (std::chrono::steady_clock::now() < until) {
      }
      env_.Release(Status::IOError("injected fsync failure"));
    });
    const Status chained = ham_->CommitTransaction(writer_b_);
    failer.join();
    const Status first = commit.get();
    EXPECT_FALSE(first.ok()) << "acked a commit whose fsync failed";
    EXPECT_FALSE(chained.ok()) << "acked a commit built on a lost one";
    EXPECT_EQ(Contents(reader_), "v1");
    if (first.ok() || chained.ok()) break;
  }
  ham_.reset();
  Open();
  reader_ = OpenSession();
  EXPECT_EQ(Contents(reader_), "v1");
  auto opened = ham_->OpenNode(reader_, other, 0, {});
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened->contents, "");
}

TEST_F(GroupCommitTest, ReadOnlyTransactionOnPendingCommitSharesItsFate) {
  std::future<Status> commit = CommitBlocked("doomed");
  Status read_only;
  auto finished = std::async(std::launch::async, [&] {
    EXPECT_TRUE(ham_->BeginTransaction(writer_b_).ok());
    EXPECT_EQ(Contents(writer_b_), "doomed");
    return ham_->CommitTransaction(writer_b_);
  });
  // It read a version that is not durable yet, so it is not acked
  // before that version is.
  EXPECT_EQ(finished.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  env_.Release(Status::IOError("injected fsync failure"));
  EXPECT_FALSE(commit.get().ok());
  EXPECT_FALSE(finished.get().ok());
  EXPECT_EQ(Contents(reader_), "v1");
}

// Many writers and readers on one graph with real fsyncs: every acked
// commit is visible at once and after recovery, and a reader never
// sees a node's version go backwards.
TEST_F(GroupCommitTest, ConcurrentWritersShareFsyncs) {
  constexpr int kWriters = 4;
  constexpr int kCommits = 25;
  std::vector<NodeIndex> nodes;
  for (int w = 0; w < kWriters; ++w) {
    auto added = ham_->AddNode(writer_a_, true);
    ASSERT_TRUE(added.ok());
    nodes.push_back(added->node);
  }
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    std::vector<Time> last(kWriters, 0);
    Context ctx = OpenSession();
    while (!done.load()) {
      for (int w = 0; w < kWriters; ++w) {
        auto t = ham_->GetNodeTimeStamp(ctx, nodes[w]);
        if (!t.ok() || *t < last[w]) ++failures;
        if (t.ok()) last[w] = *t;
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Context ctx = OpenSession();
      for (int i = 0; i < kCommits; ++i) {
        const std::string payload =
            "w" + std::to_string(w) + "-" + std::to_string(i);
        Status st = ham_->BeginTransaction(ctx);
        auto t = ham_->GetNodeTimeStamp(ctx, nodes[w]);
        if (st.ok() && t.ok()) {
          st = ham_->ModifyNode(ctx, nodes[w], *t, payload, {}, "");
        }
        if (st.ok()) st = ham_->CommitTransaction(ctx);
        if (!st.ok()) {
          ++failures;
          ham_->AbortTransaction(ctx);
          continue;
        }
        // Acked means visible to everyone.
        auto opened = ham_->OpenNode(reader_, nodes[w], 0, {});
        if (!opened.ok() || opened->contents != payload) ++failures;
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done = true;
  reader.join();
  EXPECT_EQ(failures.load(), 0);

  ham_.reset();
  Open();
  reader_ = OpenSession();
  for (int w = 0; w < kWriters; ++w) {
    auto opened = ham_->OpenNode(reader_, nodes[w], 0, {});
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened->contents,
              "w" + std::to_string(w) + "-" + std::to_string(kCommits - 1));
  }
}

}  // namespace
}  // namespace ham
}  // namespace neptune
