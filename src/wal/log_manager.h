// LogManager: append-only segmented WAL with group buffering, CRC framing,
// and byte-offset LSNs.
//
// The log is a chain of fixed-size segment files ("db.wal.000017"-style).
// Each segment starts with a 48-byte header carrying {segment seq, first
// LSN, previous segment's first LSN, sealed size, header CRC}; the data that
// follows is the usual frame stream:
//
//   frame:  [fixed32 len][fixed32 masked crc32c(payload)][payload]
//
// A record's LSN is its global *data* byte offset (headers excluded) + 1, so
// LSN order == log order, LSNs stay contiguous across segment boundaries
// (first_lsn(N+1) = first_lsn(N) + sealed_size(N)), and FlushedLsn()
// comparisons are trivial. Frames never straddle a segment boundary; a frame
// larger than the segment size gets a segment to itself.
//
// Rotation runs inside the flush leader (see below) when the next frame
// would overflow the tail segment: the leader (1) syncs the tail's data,
// (2) rewrites the tail's header with the final sealed size and syncs it —
// the seal, (3) creates the successor (reusing a parked recycle file via
// rename when one is available), writes + syncs its header, and (4) fsyncs
// the directory. A crash at any of those I/O points leaves either a sealed
// tail with no successor (Open creates one) or an embryonic successor with
// a short/stale header (Open recreates it); it can never leave a seq gap or
// lose sealed bytes.
//
// TruncateBelow(floor) removes every *sealed, non-tail* segment whose data
// lies wholly below the floor — callers pass min(redo_lsn, ckpt_lsn, oldest
// active-txn first LSN, open reorg unit's BEGIN LSN) so neither redo nor
// undo nor forward recovery can ever need a truncated byte. Victims are
// removed oldest-first (so the surviving seq range stays contiguous across
// a crash mid-truncation) and either parked into a bounded recycle pool
// ("db.wal-recycle.3") or deleted.
//
// Concurrency — group commit. Serialization into the buffer (Append) runs
// under mu_ and never touches a file. Durability (Flush/FlushTo) runs a
// leader/follower protocol under a separate commit_mu_: the first committer
// to find no flush in progress becomes the leader, steals the entire buffer
// under mu_ (appends continue behind it), and performs the chunked
// write+rotate+fsync with no LogManager mutex held; every committer whose
// target LSN lands inside that batch waits on commit_cv_ and returns as
// soon as flushed_lsn_ covers it. On failure the leader splices the
// not-yet-durable suffix of the batch back onto the front of the buffer
// (bytes sealed into a finished segment stay durable), so the failure is
// retryable and LSN assignment never skews; rewrites after a retry land at
// the same global offsets and are byte-identical.
//
// The segment list is guarded by seg_mu_ and handed out as a shared_ptr
// snapshot, so ReadAll/ReadAt never block appends or flushes; a reader that
// races the leader's in-flight frame sees a CRC failure and reports it as a
// torn tail, exactly like the single-file log did.

#ifndef SOREORG_WAL_LOG_MANAGER_H_
#define SOREORG_WAL_LOG_MANAGER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/env.h"
#include "src/storage/page.h"
#include "src/wal/log_record.h"

namespace soreorg {

/// What a full-log scan found past the valid prefix. A torn tail (the last
/// frame of the tail segment cut short or CRC-failed) is the normal
/// post-crash state and not an error; a valid frame *beyond* garbage within
/// the same segment, or any damage in a sealed (non-tail) segment, means
/// the middle of the log is damaged and replay must not proceed silently.
struct LogReadStats {
  uint64_t records_read = 0;
  uint64_t valid_bytes = 0;    // global data bytes in the cleanly-parsed prefix
  uint64_t dropped_bytes = 0;  // data bytes past the valid prefix
  uint64_t segments_scanned = 0;  // segments the scan actually visited
  bool torn_tail = false;      // scan stopped on a bad/short frame
  bool mid_log_corruption = false;  // valid frame found after the bad one
};

struct LogManagerOptions {
  /// Segment data capacity (excluding the header); must be nonzero (Open
  /// returns InvalidArgument for 0). A frame larger than this still gets
  /// written (alone, in an otherwise empty segment).
  uint64_t segment_bytes = 4 * 1024 * 1024;
  /// Max truncated segments parked for reuse instead of deleted.
  size_t recycle_max = 2;
};

class LogManager {
 public:
  LogManager(Env* env, std::string base_name, LogManagerOptions opts = {});

  /// Discover/validate the segment chain (creating segment 1 for a virgin
  /// log); positions the append offset at the end of the tail's valid
  /// prefix, truncating a torn tail. Damage below the tail — a bad sealed
  /// header, a broken seq/LSN chain, or a torn frame that is followed by a
  /// valid one in the same segment — is Corruption, never self-healed.
  Status Open();

  /// Assign an LSN, buffer the record. Flushes only when the in-memory
  /// buffer exceeds its cap (group-commit style). rec->lsn is set.
  Status Append(LogRecord* rec);

  /// Cap on the in-memory log buffer; exceeding it triggers a flush on the
  /// next Append (default 256 KiB). Small caps make WAL writes frequent —
  /// the crash-injection experiments use this to land failures mid-unit.
  void set_buffer_limit(size_t bytes);

  /// Append and make durable immediately (group-commit path: concurrent
  /// callers share one leader's fsync).
  Status AppendAndFlush(LogRecord* rec);

  /// Make everything appended so far durable.
  Status Flush();

  /// Make records up to and including `lsn` durable. No-op fast path (one
  /// atomic load, no mutex, no I/O) when the LSN is already durable.
  Status FlushTo(Lsn lsn);

  /// Remove (recycle or delete) every sealed non-tail segment whose data is
  /// wholly below `floor`. The caller must have made `floor` safe: no redo,
  /// undo chain, or forward-recovery replay may ever need a byte below it.
  Status TruncateBelow(Lsn floor);

  Lsn NextLsn() const;
  Lsn FlushedLsn() const;
  /// First LSN still present in the log (advances with truncation).
  Lsn LowestLsn() const;

  /// Scan all valid records from `start_lsn` (default: start of log).
  /// Corrupt/torn tails terminate the scan without error; when `stats` is
  /// given, the tail is characterized (bytes dropped, and whether a valid
  /// frame exists beyond it — mid-log corruption the caller should refuse).
  Status ReadAll(std::vector<LogRecord>* out, Lsn start_lsn = 0,
                 LogReadStats* stats = nullptr) const;

  /// Read the single record at `lsn`.
  Status ReadAt(Lsn lsn, LogRecord* rec) const;

  // --- statistics (E3 / P6) ------------------------------------------------
  uint64_t bytes_appended() const;
  uint64_t records_appended() const;
  uint64_t bytes_for_type(LogType t) const;
  /// Physical write+fsync batches performed by flush leaders. Together with
  /// an Env sync counter this is the oracle for "N concurrent commits cost
  /// ~1 fsync".
  uint64_t sync_batches() const;
  /// Torn-tail bytes Open() truncated away (0 for a clean log). Recovery
  /// surfaces this in RecoveryResult — the tail is gone by the time redo's
  /// ReadAll runs, so only Open can report it.
  uint64_t open_dropped_bytes() const;
  void ResetStats();

  // Segment-level forensics.
  size_t segment_count() const;
  uint64_t tail_segment_seq() const;
  std::string tail_segment_name() const;
  size_t recycle_pool_size() const;
  uint64_t segments_created() const;   // fresh files created
  uint64_t segments_recycled() const;  // successors built from the pool
  uint64_t segments_truncated() const; // victims removed by TruncateBelow

  static std::string SegmentFileName(const std::string& base, uint64_t seq);
  static std::string RecycleFileName(const std::string& base, uint64_t k);

  static constexpr size_t kFrameHeader = 8;  // len + crc
  static constexpr size_t kSegmentHeaderSize = 48;
  static constexpr uint32_t kSegmentMagic = 0x4C415753;  // "SWAL"
  static constexpr uint32_t kSegmentVersion = 1;

 private:
  struct Segment {
    uint64_t seq = 0;
    Lsn first_lsn = 1;       // biased global data offset of the first frame
    Lsn prev_first_lsn = 0;  // 0 = no predecessor (or predecessor truncated)
    // Data bytes written past the header (excludes the header itself).
    // Mutated only by the flush leader / Open; published by `sealed`.
    uint64_t data_size = 0;
    std::atomic<bool> sealed{false};
    std::string name;
    std::unique_ptr<File> file;
  };
  using SegmentPtr = std::shared_ptr<Segment>;

  struct SegmentHeader {
    uint64_t seq = 0;
    Lsn first_lsn = 1;
    Lsn prev_first_lsn = 0;
    uint64_t sealed_size = 0;  // 0 = active (unsealed)
  };

  static void EncodeSegmentHeader(const SegmentHeader& h, char* out);
  static bool DecodeSegmentHeader(const char* in, SegmentHeader* h);

  // Chunked write of a stolen batch: fills the tail, rotating as needed.
  // *durable_done is the batch prefix guaranteed durable on return (always
  // at a frame boundary — seals and the final sync are the only advances).
  Status WriteBatch(const std::string& batch, Lsn batch_off,
                    uint64_t* durable_done);
  // Sync the tail's data, rewrite its header with the final size, sync it.
  Status SealSegment(const SegmentPtr& seg);
  // Create segment seq+1 after `sealed_tail`, reusing a parked recycle file
  // when available; pushes it onto segments_. Resumable after any failure.
  Status CreateSuccessor(const SegmentPtr& sealed_tail);
  Status WriteFreshHeader(File* file, const SegmentHeader& h);

  SegmentPtr TailSegment() const;
  std::vector<SegmentPtr> SnapshotSegments() const;

  Env* env_;
  std::string base_;
  LogManagerOptions opts_;

  // Segment chain: ordered by seq, front = oldest. Guarded by seg_mu_;
  // readers take shared_ptr snapshots and do file I/O lock-free.
  mutable std::mutex seg_mu_;
  std::deque<SegmentPtr> segments_;
  std::deque<std::string> recycle_pool_;
  uint64_t recycle_seq_ = 0;  // next recycle-file number (monotonic)
  uint64_t segments_created_ = 0;
  uint64_t segments_recycled_ = 0;
  uint64_t segments_truncated_ = 0;

  // Serialization state: guarded by mu_. No file I/O under mu_.
  mutable std::mutex mu_;
  std::string buffer_;        // not-yet-written frames
  Lsn buffer_start_ = 0;      // 0-based global data offset of buffer_[0]
  Lsn next_lsn_ = 0;
  size_t buffer_limit_ = 256 * 1024;
  uint64_t bytes_appended_ = 0;
  uint64_t records_appended_ = 0;
  uint64_t open_dropped_bytes_ = 0;
  std::array<uint64_t, 32> type_bytes_{};

  // Durability state: all records with lsn < flushed_lsn_ are durable.
  // Written by the flush leader (under commit_mu_), read lock-free.
  std::atomic<Lsn> flushed_lsn_{0};
  std::atomic<uint64_t> sync_batches_{0};

  // Group-commit coordination. commit_cv_ is keyed by flushed_lsn_
  // advancing (or the leader slot freeing up).
  mutable std::mutex commit_mu_;
  std::condition_variable commit_cv_;
  bool flush_active_ = false;
};

}  // namespace soreorg

#endif  // SOREORG_WAL_LOG_MANAGER_H_
