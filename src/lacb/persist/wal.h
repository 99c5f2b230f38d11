// Write-ahead log for the serving layer.
//
// Between checkpoints, every committed external batch is appended to the
// WAL (framed by its idempotent commit token) so that a crash loses no
// acknowledged work: restore replays the tail through the same
// Platform::CommitExternalBatch path, which deduplicates by token.
//
// File layout:
//   header:  "LACBWAL0" | u32 version | u64 checkpoint_seq
//   record:  u32 len | u8 type | payload[len-1] | u32 crc32(type+payload)
//
// Records are appended with a single write() and (optionally) fsync'd, so
// a crash can only tear the final record. Recovery CRC-validates records
// in order and truncates the file at the first invalid one (torn tail).

#ifndef LACB_PERSIST_WAL_H_
#define LACB_PERSIST_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/common/status.h"
#include "lacb/persist/bytes.h"
#include "lacb/sim/request.h"

namespace lacb::persist {

inline constexpr char kWalMagic[8] = {'L', 'A', 'C', 'B', 'W', 'A', 'L', '0'};
inline constexpr uint32_t kWalVersion = 3;

enum class WalRecordType : uint8_t {
  kDayOpen = 1,   // payload: u64 day
  kBatch = 2,     // payload: u64 token, u64 day, u32 worker_index,
                  //          requests, assignment (VecI64), u8 solve
  kDayClose = 3,  // payload: u64 day
};

/// \brief How a served batch's assignment came about.
enum class SolveOutcome : uint8_t {
  kSolved = 0,   // the policy solve, within its budget
  kOverran = 1,  // the solve ran past its budget; the greedy fallback
                 // committed (the solve's replica state changes stand)
  kSkipped = 2,  // an injected deadline abort skipped the solve outright;
                 // the greedy fallback committed
};

struct WalRecord {
  WalRecordType type;
  uint64_t day = 0;
  // kBatch only:
  uint64_t token = 0;
  uint32_t worker_index = 0;
  std::vector<sim::Request> requests;
  std::vector<int64_t> assignment;
  // Replay runs the solve unless it was skipped, and compares its result
  // with `assignment` only when the live solve was the one committed.
  SolveOutcome solve = SolveOutcome::kSolved;
};

/// \brief Decodes one record body (type byte + payload, the CRC-covered
/// bytes). A truncated payload, trailing bytes, an unknown type or an
/// unknown solve outcome is refused as a Status.
Result<WalRecord> DecodeWalRecord(std::string_view body);

/// \brief Append-only WAL writer. Not thread-safe; the serving layer
/// serializes appends under its environment mutex.
class WalWriter {
 public:
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// \brief Creates (truncates) `path` and writes the header.
  static Result<std::unique_ptr<WalWriter>> Create(const std::string& path,
                                                   uint64_t checkpoint_seq,
                                                   bool do_fsync);

  Status AppendDayOpen(uint64_t day);
  Status AppendDayClose(uint64_t day);
  Status AppendBatch(uint64_t token, uint64_t day, uint32_t worker_index,
                     const std::vector<sim::Request>& requests,
                     const std::vector<int64_t>& assignment,
                     SolveOutcome solve = SolveOutcome::kSolved);

  /// \brief Observer of every durable record, invoked after the local
  /// write (and fsync, when enabled) succeeds with the exact framed bytes
  /// — `u32 len | body | crc` — as they landed on disk. The cluster layer
  /// uses this to ship the record to a replication follower; a follower
  /// appending the bytes verbatim after a header reproduces a
  /// RecoverWal-compatible file. Called under the same serialization as
  /// Append* (the serving layer's environment mutex); must not re-enter
  /// the writer.
  using RecordSink = std::function<void(std::string_view framed_record)>;
  void set_record_sink(RecordSink sink) { record_sink_ = std::move(sink); }

  uint64_t records_written() const { return records_written_; }
  uint64_t bytes_written() const { return bytes_written_; }
  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, int fd, bool do_fsync)
      : path_(std::move(path)), fd_(fd), fsync_(do_fsync) {}

  Status AppendRecord(WalRecordType type, const std::string& payload);

  std::string path_;
  int fd_ = -1;
  bool fsync_ = true;
  uint64_t records_written_ = 0;
  uint64_t bytes_written_ = 0;
  RecordSink record_sink_;
};

struct WalRecovery {
  uint64_t checkpoint_seq = 0;
  std::vector<WalRecord> records;
  bool truncated_torn_tail = false;  // invalid tail detected and dropped
  uint64_t valid_bytes = 0;          // prefix length that CRC-validated
};

/// \brief Reads a WAL, validating CRCs record by record; stops at the
/// first invalid record — a CRC mismatch (torn tail) or a body
/// DecodeWalRecord refuses — and reports how much was valid. A missing file
/// is NotFound; a bad header or any version but kWalVersion (an older log
/// included) is InvalidArgument.
Result<WalRecovery> RecoverWal(const std::string& path);

}  // namespace lacb::persist

#endif  // LACB_PERSIST_WAL_H_
