#include "storage/durable_store.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "storage/fault_injection_env.h"

namespace neptune {
namespace {

class DurableStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = Env::Default();
    dir_ = (std::filesystem::temp_directory_path() /
            ("neptune_store_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name())))
               .string();
    env_->RemoveDirRecursive(dir_);
  }

  void TearDown() override { env_->RemoveDirRecursive(dir_); }

  Env* env_ = nullptr;
  std::string dir_;
};

TEST_F(DurableStoreTest, CreateOpenRoundTrip) {
  {
    auto store = DurableStore::Create(env_, dir_, "meta-blob", "snap-blob", 0);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->epoch(), 1u);
  }
  RecoveredState state;
  auto store = DurableStore::Open(env_, dir_, &state);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(state.meta, "meta-blob");
  EXPECT_EQ(state.snapshot, "snap-blob");
  EXPECT_TRUE(state.wal_records.empty());
  EXPECT_FALSE(state.wal_tail_truncated);
}

TEST_F(DurableStoreTest, CreateTwiceFails) {
  ASSERT_TRUE(DurableStore::Create(env_, dir_, "m", "s", 0).ok());
  auto again = DurableStore::Create(env_, dir_, "m", "s", 0);
  EXPECT_TRUE(again.status().IsAlreadyExists());
}

TEST_F(DurableStoreTest, OpenMissingIsNotFound) {
  RecoveredState state;
  auto store = DurableStore::Open(env_, dir_ + "_nope", &state);
  EXPECT_TRUE(store.status().IsNotFound());
}

TEST_F(DurableStoreTest, AppendedRecordsAreRecovered) {
  {
    auto store = DurableStore::Create(env_, dir_, "m", "initial", 0);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRecord("txn-1", true).ok());
    ASSERT_TRUE((*store)->AppendRecord("txn-2", true).ok());
    // Store dropped without clean shutdown: simulates a crash after
    // the records were synced.
  }
  RecoveredState state;
  auto store = DurableStore::Open(env_, dir_, &state);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(state.snapshot, "initial");
  ASSERT_EQ(state.wal_records.size(), 2u);
  EXPECT_EQ(state.wal_records[0], "txn-1");
  EXPECT_EQ(state.wal_records[1], "txn-2");
}

TEST_F(DurableStoreTest, TornWalTailIsDroppedAndTruncatedOnDisk) {
  {
    auto store = DurableStore::Create(env_, dir_, "m", "s", 0);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRecord("committed", true).ok());
  }
  // Simulate a crash mid-append: garbage after the valid record.
  const std::string wal_path = JoinPath(dir_, "WAL-000001");
  std::string image = *env_->ReadFileToString(wal_path);
  {
    auto f = env_->NewWritableFile(wal_path, false);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("\x11\x22\x33\x44\x55").ok());
    ASSERT_TRUE((*f)->Close().ok());
  }

  RecoveredState state;
  {
    auto store = DurableStore::Open(env_, dir_, &state);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(state.wal_tail_truncated);
    ASSERT_EQ(state.wal_records.size(), 1u);
    EXPECT_EQ(state.wal_records[0], "committed");
  }
  // The tail must be gone from disk so a second recovery is clean.
  EXPECT_EQ(env_->ReadFileToString(wal_path)->size(), image.size());
  RecoveredState state2;
  auto store2 = DurableStore::Open(env_, dir_, &state2);
  ASSERT_TRUE(store2.ok());
  EXPECT_FALSE(state2.wal_tail_truncated);
  EXPECT_EQ(state2.wal_records.size(), 1u);
}

TEST_F(DurableStoreTest, AppendAfterRecoveryContinuesLog) {
  {
    auto store = DurableStore::Create(env_, dir_, "m", "s", 0);
    ASSERT_TRUE((*store)->AppendRecord("one", true).ok());
  }
  {
    RecoveredState state;
    auto store = DurableStore::Open(env_, dir_, &state);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRecord("two", true).ok());
  }
  RecoveredState state;
  auto store = DurableStore::Open(env_, dir_, &state);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(state.wal_records.size(), 2u);
  EXPECT_EQ(state.wal_records[0], "one");
  EXPECT_EQ(state.wal_records[1], "two");
}

TEST_F(DurableStoreTest, CheckpointRotatesGenerations) {
  auto store = DurableStore::Create(env_, dir_, "m", "gen1", 0);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendRecord("pre-checkpoint", true).ok());
  ASSERT_TRUE((*store)->Checkpoint("gen2").ok());
  EXPECT_EQ((*store)->epoch(), 2u);
  EXPECT_EQ((*store)->wal_bytes(), 0u);
  ASSERT_TRUE((*store)->AppendRecord("post-checkpoint", true).ok());

  RecoveredState state;
  auto reopened = DurableStore::Open(env_, dir_, &state);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(state.snapshot, "gen2");
  ASSERT_EQ(state.wal_records.size(), 1u);
  EXPECT_EQ(state.wal_records[0], "post-checkpoint");
  // Old generation files are gone.
  EXPECT_FALSE(env_->FileExists(JoinPath(dir_, "SNAP-000001")));
  EXPECT_FALSE(env_->FileExists(JoinPath(dir_, "WAL-000001")));
}

TEST_F(DurableStoreTest, CorruptSnapshotIsDetected) {
  // With a single generation there is no older epoch to fall back to,
  // so a corrupt snapshot is still a hard error.
  ASSERT_TRUE(DurableStore::Create(env_, dir_, "m", "snapshot-data", 0).ok());
  const std::string snap_path = JoinPath(dir_, "SNAP-000001");
  std::string image = *env_->ReadFileToString(snap_path);
  image[image.size() / 2] ^= 0x01;
  ASSERT_TRUE(env_->WriteFileAtomic(snap_path, image).ok());

  RecoveredState state;
  auto store = DurableStore::Open(env_, dir_, &state);
  EXPECT_TRUE(store.status().IsCorruption());
}

TEST_F(DurableStoreTest, CorruptLatestSnapshotFallsBackToPreviousEpoch) {
  ASSERT_TRUE(DurableStore::Create(env_, dir_, "m", "gen1", 0).ok());
  RecoveredState opened;
  auto store = DurableStore::Open(env_, dir_, &opened);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->AppendRecord("pre-checkpoint", true).ok());
  // Keep images of generation 1 so we can undo the checkpoint's cleanup
  // and simulate "the old generation was still on disk".
  const std::string snap1 = *env_->ReadFileToString(JoinPath(dir_, "SNAP-000001"));
  const std::string wal1 = *env_->ReadFileToString(JoinPath(dir_, "WAL-000001"));
  ASSERT_TRUE((*store)->Checkpoint("gen2").ok());
  ASSERT_TRUE((*store)->AppendRecord("post-checkpoint", true).ok());
  store->reset();
  ASSERT_TRUE(env_->WriteFileAtomic(JoinPath(dir_, "SNAP-000001"), snap1).ok());
  {
    auto f = env_->NewWritableFile(JoinPath(dir_, "WAL-000001"), true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(wal1).ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  // Rot the live snapshot.
  std::string image = *env_->ReadFileToString(JoinPath(dir_, "SNAP-000002"));
  image[image.size() / 2] ^= 0x01;
  ASSERT_TRUE(env_->WriteFileAtomic(JoinPath(dir_, "SNAP-000002"), image).ok());

  // Recovery seeds from SNAP-000001 and replays WAL-1 then WAL-2 —
  // which reproduces exactly the state SNAP-000002 + WAL-2 held,
  // because checkpoint 2 folded SNAP-1 + WAL-1.
  RecoveredState state;
  auto reopened = DurableStore::Open(env_, dir_, &state);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(state.snapshot, "gen1");
  ASSERT_EQ(state.wal_records.size(), 2u);
  EXPECT_EQ(state.wal_records[0], "pre-checkpoint");
  EXPECT_EQ(state.wal_records[1], "post-checkpoint");
  EXPECT_TRUE(state.report.snapshot_fallback);
  EXPECT_EQ(state.report.snapshot_epoch, 1u);
  EXPECT_EQ(state.report.wal_epoch, 2u);
  EXPECT_EQ(state.report.wal_files_replayed, 2u);
  EXPECT_EQ((*reopened)->epoch(), 2u);
  reopened->reset();

  // Degraded recovery must not destroy evidence: a second recovery sees
  // the same world (double-recovery idempotence).
  RecoveredState state2;
  auto again = DurableStore::Open(env_, dir_, &state2);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(state2.report.snapshot_fallback);
  EXPECT_EQ(state2.snapshot, "gen1");
  EXPECT_EQ(state2.wal_records.size(), 2u);
}

TEST_F(DurableStoreTest, MissingCurrentIsRebuiltFromNewestSnapshot) {
  {
    auto store = DurableStore::Create(env_, dir_, "m", "snap", 0);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRecord("rec", true).ok());
  }
  ASSERT_TRUE(env_->RemoveFile(JoinPath(dir_, "CURRENT")).ok());

  RecoveredState state;
  {
    auto store = DurableStore::Open(env_, dir_, &state);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(state.report.current_rewritten);
    EXPECT_EQ(state.snapshot, "snap");
    ASSERT_EQ(state.wal_records.size(), 1u);
  }
  // CURRENT is back; the next recovery is clean.
  EXPECT_TRUE(env_->FileExists(JoinPath(dir_, "CURRENT")));
  RecoveredState state2;
  auto store2 = DurableStore::Open(env_, dir_, &state2);
  ASSERT_TRUE(store2.ok());
  EXPECT_TRUE(state2.report.Clean()) << state2.report.ToString();
}

TEST_F(DurableStoreTest, MidWalCorruptionDropsSuffixAndReports) {
  {
    auto store = DurableStore::Create(env_, dir_, "m", "s", 0);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->AppendRecord("first", true).ok());
    ASSERT_TRUE((*store)->AppendRecord("second", true).ok());
  }
  const std::string wal_path = JoinPath(dir_, "WAL-000001");
  std::string image = *env_->ReadFileToString(wal_path);
  image[8] ^= 0x01;  // corrupt the *first* record's payload
  {
    auto f = env_->NewWritableFile(wal_path, true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append(image).ok());
    ASSERT_TRUE((*f)->Close().ok());
  }

  RecoveredState state;
  {
    auto store = DurableStore::Open(env_, dir_, &state);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_TRUE(state.report.mid_log_corruption);
    EXPECT_TRUE(state.report.wal_tail_truncated);
    EXPECT_EQ(state.report.bytes_truncated, image.size());
    EXPECT_EQ(state.wal_records.size(), 0u);
  }
  // The damaged bytes were truncated away on disk: recovery number two
  // is clean and sees the same (empty) log.
  RecoveredState state2;
  auto store2 = DurableStore::Open(env_, dir_, &state2);
  ASSERT_TRUE(store2.ok());
  EXPECT_FALSE(state2.report.mid_log_corruption);
  EXPECT_FALSE(state2.report.wal_tail_truncated);
  EXPECT_EQ(state2.wal_records.size(), 0u);
}

TEST_F(DurableStoreTest, DestroyRemovesEverything) {
  ASSERT_TRUE(DurableStore::Create(env_, dir_, "m", "s", 0).ok());
  EXPECT_TRUE(DurableStore::Exists(env_, dir_));
  ASSERT_TRUE(DurableStore::Destroy(env_, dir_).ok());
  EXPECT_FALSE(DurableStore::Exists(env_, dir_));
  EXPECT_TRUE(DurableStore::Destroy(env_, dir_).IsNotFound());
}

// A group fsync fails and loses a deferred record; a record built on it
// must not ride the repair into the log, even though it is appended
// after the failure and a later fsync covers its LSN. A record built on
// durable state repairs the log and survives alone.
TEST_F(DurableStoreTest, DeferredRecordBuiltOnLostRecordIsRefused) {
  FaultInjectionEnv fault_env(env_);
  {
    auto store = DurableStore::Create(&fault_env, dir_, "m", "s", 0);
    ASSERT_TRUE(store.ok());
    DurableStore* st = store->get();
    ASSERT_TRUE(st->AppendRecord("durable", true).ok());

    auto lost = st->AppendRecordDeferred("lost", /*after_lsn=*/0);
    ASSERT_TRUE(lost.ok());
    fault_env.FailSyncsAfter(fault_env.syncs());
    EXPECT_TRUE(st->SyncTo(*lost).IsIOError());
    fault_env.Heal();
    EXPECT_FALSE(st->sync_state().failure.ok());

    auto orphan = st->AppendRecordDeferred("built on lost", *lost);
    EXPECT_TRUE(orphan.status().IsAborted()) << orphan.status().ToString();
    EXPECT_TRUE(st->degraded()) << "a refused append must not repair";

    auto fresh = st->AppendRecordDeferred("fresh", /*after_lsn=*/0);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_GT(*fresh, *lost);
    ASSERT_TRUE(st->SyncTo(*fresh).ok());
    EXPECT_TRUE(st->sync_state().failure.ok());
  }
  RecoveredState state;
  auto store = DurableStore::Open(env_, dir_, &state);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ(state.wal_records.size(), 2u);
  EXPECT_EQ(state.wal_records[0], "durable");
  EXPECT_EQ(state.wal_records[1], "fresh");
}

TEST_F(DurableStoreTest, WalBytesTracksAppends) {
  auto store = DurableStore::Create(env_, dir_, "m", "s", 0);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->wal_bytes(), 0u);
  ASSERT_TRUE((*store)->AppendRecord("12345", false).ok());
  EXPECT_EQ((*store)->wal_bytes(), 8u + 5u);
}

TEST_F(DurableStoreTest, LargeSnapshotRoundTrip) {
  std::string big(1 << 20, 'q');
  for (size_t i = 0; i < big.size(); i += 7) big[i] = char('a' + i % 23);
  ASSERT_TRUE(DurableStore::Create(env_, dir_, "m", big, 0).ok());
  RecoveredState state;
  auto store = DurableStore::Open(env_, dir_, &state);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(state.snapshot, big);
}

}  // namespace
}  // namespace neptune
