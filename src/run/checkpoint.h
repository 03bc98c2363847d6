#ifndef SETCOVER_RUN_CHECKPOINT_H_
#define SETCOVER_RUN_CHECKPOINT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "stream/stream.h"

namespace setcover {

/// One recoverable snapshot of a run: everything needed to
/// continue a one-pass execution after a crash — which algorithm was
/// running, over which stream shape, how far the source had been
/// consumed, the algorithm's serialized state (StateEncoder words, RNG
/// included by each algorithm's EncodeState), and the session's own
/// fault counters so a resumed run reports totals as if uninterrupted.
///
/// On-disk layout (little-endian), file magic "SCKP", version 2:
///   magic, version u32
///   name_len u32, name bytes
///   m u32, n u32, N u64
///   stream_position u64, edges_delivered u64
///   transient_retries u64, corrupt_skipped u64, faults_survived u64
///   session_sequence u64                          (v2; v1 reads as 0)
///   state_len u64, state words (u64 each)
///   crc u32 — CRC-32 of every byte after the magic
///
/// Version 1 files (no session_sequence field) still load; the writer
/// always emits version 2.
///
/// SaveCheckpoint stages into `path + ".tmp"` and atomically renames, so
/// the previous valid checkpoint survives a crash mid-save; Load
/// verifies the CRC and rejects damaged or torn files instead of
/// resuming from garbage.
struct Checkpoint {
  std::string algorithm_name;
  StreamMetadata meta;

  /// Stream records consumed (engine::Session::Position(); pass · N +
  /// record under a multi-pass schedule) — where a resumed run
  /// continues.
  uint64_t stream_position = 0;

  /// Edges actually delivered to the algorithm (>= positions consumed
  /// minus drops, plus duplicates).
  uint64_t edges_delivered = 0;

  /// Fault counters carried across the restart.
  uint64_t transient_retries = 0;
  uint64_t corrupt_skipped = 0;
  uint64_t faults_survived = 0;

  /// Last ingest-batch sequence number applied before this checkpoint
  /// was taken — the exactly-once cursor of the session server
  /// (src/server/): after a crash the server tells the client this
  /// value and the client re-sends from session_sequence + 1, so a
  /// retried batch is applied exactly once. 0 for single-shot engine
  /// runs (and for v1 files).
  uint64_t session_sequence = 0;

  /// The algorithm's EncodeState words.
  std::vector<uint64_t> state_words;
};

/// Writes atomically; false (with *error) on I/O failure.
bool SaveCheckpoint(const Checkpoint& checkpoint, const std::string& path,
                    std::string* error);

/// Reads and CRC-verifies; nullopt (with *error) on a missing file,
/// malformed layout, or checksum mismatch.
std::optional<Checkpoint> LoadCheckpoint(const std::string& path,
                                         std::string* error);

}  // namespace setcover

#endif  // SETCOVER_RUN_CHECKPOINT_H_
