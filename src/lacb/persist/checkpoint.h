// Versioned, CRC-checksummed checkpoint files with retention.
//
// File layout:
//   "LACBCKPT" | u32 version | u64 seq | u32 section_count
//   per section: Str name | u64 payload_len | payload | u32 crc32(payload)
//
// Readers skip sections they do not recognize (each section is
// self-delimiting), so newer writers can add sections without breaking
// older readers — the forward-compatibility contract of the format.
//
// Files are named `ckpt-<seq>.bin` and written via tmp+rename (see
// WriteFileAtomic), so a checkpoint either exists fully or not at all.
// Retention keeps the newest `retain` checkpoints plus their WALs.

#ifndef LACB_PERSIST_CHECKPOINT_H_
#define LACB_PERSIST_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "lacb/common/result.h"
#include "lacb/common/status.h"

namespace lacb::persist {

inline constexpr char kCheckpointMagic[8] = {'L', 'A', 'C', 'B',
                                             'C', 'K', 'P', 'T'};
// Version 2: a served policy's capacity stage (estimator, capacities, hit
// counts) is saved once, in replica.0, rather than in every replica.<i>.
inline constexpr uint32_t kCheckpointVersion = 2;

struct CheckpointSection {
  std::string name;
  std::string payload;
};

struct Checkpoint {
  uint64_t seq = 0;
  std::vector<CheckpointSection> sections;

  /// \brief Pointer into sections, or nullptr if absent.
  const CheckpointSection* Find(const std::string& name) const;
};

/// \brief Serializes a checkpoint into the on-disk byte layout.
std::string EncodeCheckpoint(const Checkpoint& ckpt);

/// \brief Parses and CRC-validates a checkpoint image. Any CRC mismatch
/// or truncation fails the whole file (checkpoints are atomic units; a
/// reader must never act on a partially valid one).
Result<Checkpoint> DecodeCheckpoint(const std::string& data);

struct LoadResult {
  Checkpoint checkpoint;
  std::string path;
  uint64_t skipped_corrupt = 0;  // newer files that failed validation
};

/// \brief Manages checkpoint files in one directory.
class CheckpointManager {
 public:
  explicit CheckpointManager(std::string dir, size_t retain = 3,
                             bool do_fsync = true)
      : dir_(std::move(dir)), retain_(retain), fsync_(do_fsync) {}

  /// \brief Creates the directory if needed.
  Status EnsureDir() const;

  std::string CheckpointPath(uint64_t seq) const;
  std::string WalPath(uint64_t seq) const;

  /// \brief Atomically writes `ckpt` and prunes old files per retention.
  /// Returns the encoded size in bytes.
  Result<uint64_t> Write(const Checkpoint& ckpt) const;

  /// \brief Loads the newest checkpoint that decodes and CRC-validates,
  /// falling back past corrupt ones (counted in `skipped_corrupt`).
  /// NotFound when the directory holds no valid checkpoint.
  Result<LoadResult> LoadNewest() const;

  /// \brief Sequence numbers of checkpoint files present, ascending.
  std::vector<uint64_t> ListSeqs() const;

 private:
  Status Prune() const;

  std::string dir_;
  size_t retain_;
  bool fsync_;
};

}  // namespace lacb::persist

#endif  // LACB_PERSIST_CHECKPOINT_H_
