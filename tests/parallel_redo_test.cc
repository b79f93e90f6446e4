// Redo scan bounds and recovery forensics: checkpoint-driven truncation
// floors bound the redo scan to the segments written since the floor, with
// and without the dead segments still on disk, and the RecoveryResult
// forensics (segment counts, torn tail, dropped bytes) are populated after a
// crash with a torn tail. The suite keeps the name it had when redo also ran
// page-partitioned on several threads; redo is now one serial log-order pass.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/db/database.h"
#include "src/storage/env.h"
#include "src/storage/fault_env.h"
#include "src/wal/log_manager.h"

namespace soreorg {
namespace {

std::string KeyOf(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "key%06d", i);
  return buf;
}

DatabaseOptions SmallSegmentOptions() {
  DatabaseOptions opts;
  opts.buffer_pool_pages = 48;
  opts.wal_segment_bytes = 2048;
  opts.wal_recycle_segments = 2;
  return opts;
}

// Deterministic workload that ends in a crash: load + checkpoint baseline,
// then scattered single-page updates/deletes until the armed fault takes
// the env down.
void BuildCrashedImage(FaultInjectionEnv* env, const DatabaseOptions& opts,
                       int crash_at_op) {
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(env, opts, &db).ok());
  const std::string value(100, 'v');
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db->Put(KeyOf(i), value).ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());

  env->FailOpAfter(crash_at_op, "", "");
  int i = 0;
  while (true) {
    Status s;
    if (i % 5 == 4) {
      s = db->Delete(KeyOf((i * 7) % 300));
      if (s.IsNotFound()) s = Status::OK();  // already deleted earlier
    } else {
      s = db->Update(KeyOf((i * 13) % 300), std::string(100, 'a' + i % 20));
      if (s.IsNotFound()) s = Status::OK();  // hit a deleted key
    }
    if (!s.ok()) break;  // the fault fired; the env is down
    ++i;
    ASSERT_LT(i, 100000) << "fault never fired";
  }
  ASSERT_TRUE(env->fault_fired());
  db.reset();   // destructor flushes fail against the downed env
  env->Crash();  // volatile state is gone
}

TEST(ParallelRedoTest, CheckpointFloorBoundsSegmentsScanned) {
  // Acceptance: write 10x the segment size, checkpoint, recover — redo must
  // visit only the segments at/above the floor, not the whole log.
  // Truncation is off so the old segments still exist on disk and the bound
  // is proven by the *scan*, not by deletion.
  MemEnv env;
  DatabaseOptions opts = SmallSegmentOptions();
  opts.wal_truncate_on_checkpoint = false;
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(&env, opts, &db).ok());
    const std::string value(100, 'v');
    // >= 10 segments of 2 KiB = 20 KiB of WAL; each put logs ~150 bytes.
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(db->Put(KeyOf(i), value).ok());
    }
    ASSERT_GE(db->log_manager()->segment_count(), 10u);
    ASSERT_TRUE(db->Checkpoint().ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db->Update(KeyOf(i), std::string(100, 'u')).ok());
    }
  }
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, opts, &db).ok());
  const RecoveryResult& rr = db->recovery_result();
  EXPECT_GE(db->log_manager()->segment_count(), 10u)
      << "with truncation off the whole history must still be on disk";
  EXPECT_LE(rr.segments_scanned, 3u)
      << "redo scanned segments below the checkpoint floor";
  EXPECT_GT(rr.segments_scanned, 0u);
  std::string v;
  ASSERT_TRUE(db->Get(KeyOf(0), &v).ok());
  EXPECT_EQ(v, std::string(100, 'u'));
}

TEST(ParallelRedoTest, TruncationShrinksRecoveryScanAndLog) {
  // Same shape with truncation on: the checkpoint removes the dead
  // segments themselves, and recovery scans the short chain.
  MemEnv env;
  DatabaseOptions opts = SmallSegmentOptions();
  {
    std::unique_ptr<Database> db;
    ASSERT_TRUE(Database::Open(&env, opts, &db).ok());
    const std::string value(100, 'v');
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(db->Put(KeyOf(i), value).ok());
    }
    ASSERT_GE(db->log_manager()->segment_count(), 10u);
    ASSERT_TRUE(db->Checkpoint().ok());
    EXPECT_LE(db->log_manager()->segment_count(), 3u)
        << "checkpoint truncation left dead segments behind";
    EXPECT_GT(db->log_manager()->segments_truncated(), 0u);
    EXPECT_GT(db->log_manager()->LowestLsn(), 1u);
  }
  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, opts, &db).ok());
  EXPECT_LE(db->recovery_result().segments_scanned, 3u);
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(db->Scan(Slice(), Slice(),
                       [&](const Slice& k, const Slice& v) {
                         got.emplace_back(k.ToString(), v.ToString());
                         return true;
                       })
                  .ok());
  EXPECT_EQ(got.size(), 300u);
}

TEST(ParallelRedoTest, ForensicsFieldsAreConsistent) {
  MemEnv base;
  FaultInjectionEnv env(&base);
  DatabaseOptions build = SmallSegmentOptions();
  BuildCrashedImage(&env, build, 300);

  // Tear the tail segment too, so the torn-tail forensics have something
  // to report.
  {
    LogManager probe(&env, "soreorg.wal", LogManagerOptions{2048, 2});
    ASSERT_TRUE(probe.Open().ok());
    std::unique_ptr<File> f;
    ASSERT_TRUE(env.NewFile(probe.tail_segment_name(), &f).ok());
    ASSERT_TRUE(f->Append("garbage-torn-tail").ok());
  }

  std::unique_ptr<Database> db;
  ASSERT_TRUE(Database::Open(&env, build, &db).ok());
  const RecoveryResult& rr = db->recovery_result();
  EXPECT_TRUE(rr.tail_segment_torn);
  EXPECT_GT(rr.wal_bytes_dropped, 0u);
  EXPECT_GT(rr.segments_scanned, 0u);
  ASSERT_TRUE(db->tree()->CheckConsistency().ok());
}

}  // namespace
}  // namespace soreorg
