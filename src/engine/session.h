#ifndef SETCOVER_ENGINE_SESSION_H_
#define SETCOVER_ENGINE_SESSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace setcover {
namespace engine {

/// The engine's one drive loop. A Session owns a run's state across
/// calls — algorithm instance, stream position, fault-injection
/// coordinates, retry budget, checkpoint spec, fault counters — and is
/// the only code that applies edges to an algorithm, restores or writes
/// a checkpoint, or assembles a RunReport:
///
///   open (fresh or resumed from checkpoint)
///     -> Ingest(seq 1, edges) -> Ingest(seq 2, edges) -> ...
///     -> Finalize() -> report
///
/// Two clients drive it. The session server (src/server/) pushes
/// client-sized batches through the sequenced Ingest(); engine::Execute
/// pulls record batches from an in-memory stream or a stream file and
/// hands them to Apply().
///
/// Equivalence contract: for the same (algorithm, seed, fault schedule,
/// concatenated edges), a Session produces the bit-identical cover,
/// certificate, and meter readings at ANY ingest batch sizing, because
/// ProcessEdgeBatch makes batching observationally invisible and fault
/// decisions are a pure function of (seed, absolute position).
/// tests/engine_session_test.cc pins this for every registered
/// algorithm.
///
/// Exactly-once ingest: every batch carries a client-assigned sequence
/// number, 1-based and contiguous. A batch at or below the last applied
/// sequence is acknowledged without re-applying (idempotent retry); a
/// gap is rejected. The sequence is persisted inside the checkpoint
/// (Checkpoint::session_sequence), so after a crash the server reports
/// the durable cursor and the client re-sends from there — a batch is
/// applied exactly once no matter how often the transport duplicated it.
struct SessionConfig {
  /// Algorithm by registry name (the server never holds instances).
  std::string algorithm;
  AlgorithmOptions options;

  /// Stream shape declared up front (OpenSession carries it).
  StreamMetadata meta;

  /// Deterministic per-session stream damage, applied to ingested
  /// batches by absolute stream position — identical to handing the
  /// schedule to engine::Execute over the concatenated stream.
  std::optional<FaultSchedule> faults;

  /// Sidecar checkpoint file; empty = volatile session (a crash loses
  /// it and the client replays from scratch).
  std::string checkpoint_path;

  /// Write a checkpoint whenever at least this many stream records were
  /// consumed since the last one, at ingest-batch boundaries. Without
  /// faults a record is a delivered edge; with them, drops and
  /// duplicates make the two differ. 0 disables periodic checkpoints
  /// (explicit WriteCheckpoint() still works when a path is set).
  uint64_t checkpoint_every = 0;

  /// Retry budget for transient read faults, per record.
  BackoffPolicy backoff;

  /// Called with each backoff delay in microseconds. Unset, retries do
  /// not sleep — the server leaves pacing to its clients, and tests
  /// stay instant; the CLI installs a real sleep through
  /// engine::RunConfig.
  std::function<void(uint64_t)> sleeper;
};

enum class IngestStatus {
  kApplied,     // batch consumed, state advanced
  kDuplicate,   // sequence already applied; acknowledged, not re-applied
  kOutOfOrder,  // gap in the sequence; client must back-fill first
  kRejected,    // a record ran out of transient retries; the batch was
                // not applied and the session is marked degraded
  kFailed,      // fatal (finalized session, checkpoint write failure)
};

struct IngestResult {
  IngestStatus status = IngestStatus::kFailed;
  /// The session's durable cursor after the call.
  uint64_t last_sequence = 0;
  /// Checkpoints written by this call (0 or 1).
  uint64_t checkpoints_written = 0;
};

/// Per-session observability, exported through the server's Stats op.
/// The stage timings mirror engine::StageStats: setup (open/resume),
/// stream (sum of Ingest calls), finalize.
struct SessionStats {
  uint64_t edges_delivered = 0;
  uint64_t batches = 0;           // ProcessEdgeBatch calls issued
  uint64_t ingest_calls = 0;      // client batches applied
  uint64_t duplicate_ingests = 0; // retries deduplicated
  uint64_t checkpoints_written = 0;
  uint64_t transient_retries = 0;
  uint64_t corrupt_records_skipped = 0;
  uint64_t faults_survived = 0;
  uint64_t last_sequence = 0;
  bool resumed = false;
  bool finalized = false;
  bool degraded = false;
  double setup_seconds = 0.0;
  double stream_seconds = 0.0;
  double finalize_seconds = 0.0;
  size_t peak_words = 0;
  size_t current_words = 0;
};

/// One run; see the contract above SessionConfig.
class Session {
 public:
  /// Opens a session over a registry algorithm. With `resume` set and a
  /// loadable checkpoint at config.checkpoint_path, restores algorithm
  /// state, position, counters, and the exactly-once cursor from it;
  /// with `resume` set and NO checkpoint file, starts fresh (a crash
  /// before the first checkpoint is indistinguishable from never having
  /// started). A checkpoint that exists but fails to load, or does not
  /// match the configured algorithm/shape, is a fatal error — never a
  /// silent restart. Returns nullptr with *error on failure.
  static std::unique_ptr<Session> Open(const SessionConfig& config,
                                       bool resume, std::string* error);

  /// Opens a session over a caller-resolved algorithm (not owned; it
  /// must outlive the session; config.algorithm and config.options are
  /// unused) — engine::Execute's entry. Here `resume` requires the
  /// checkpoint: a missing file is an error, because a run told to
  /// resume must not silently start over.
  static std::unique_ptr<Session> OpenOver(
      StreamingSetCoverAlgorithm& algorithm, const SessionConfig& config,
      bool resume, std::string* error);

  /// Applies one ingest batch (see the exactly-once contract above).
  /// On kRejected and kFailed, *error describes the failure; no state
  /// advanced unless the failure was a checkpoint write after a
  /// successful apply (then last_sequence reflects the applied batch).
  IngestResult Ingest(uint64_t sequence, std::span<const Edge> edges,
                      std::string* error);

  /// Applies the next records of the stream without a sequence number:
  /// the exactly-once cursor stays where it is (0 for engine::Execute
  /// runs). Records reach ProcessEdgeBatch as the given span, with no
  /// copy, unless a fault schedule is configured; then they pass
  /// through a FaultInjector anchored at the session's position.
  /// Otherwise as Ingest().
  IngestResult Apply(std::span<const Edge> records, std::string* error);

  /// Records that the source lost the rest of its stream: a
  /// checksum-failed chunk counts as one skipped corrupt record, and
  /// either way the final report is degraded.
  void NoteSourceDamage(bool checksum_failed);

  /// Writes a checkpoint now (requires a configured path). True on
  /// success; also true (without writing) for volatile sessions so
  /// callers can checkpoint-all unconditionally on drain.
  bool WriteCheckpoint(std::string* error);

  /// The run so far as a report — counters, meter, stage timings —
  /// without finalizing: what a killed or failed run hands back
  /// (`completed` is false).
  RunReport Snapshot() const;

  /// Ends the stream: finalizes the algorithm into a RunReport (cover,
  /// certificate, meter, fault counters, stage timings). Idempotent —
  /// repeated calls (a client retrying a lost Finalize reply) return
  /// the cached report without re-finalizing.
  const RunReport& Finalize();

  /// Point-in-time counters; cheap, no algorithm work.
  SessionStats Stats() const;

  uint64_t LastSequence() const { return last_sequence_; }
  bool Resumed() const { return resumed_; }

  /// Stream records consumed so far, resumed runs included — the
  /// coordinate checkpoints store and fault decisions key on.
  uint64_t Position() const { return position_; }

 private:
  Session() = default;

  static std::unique_ptr<Session> Start(
      std::unique_ptr<StreamingSetCoverAlgorithm> owned,
      StreamingSetCoverAlgorithm* algorithm, const SessionConfig& config,
      bool resume, bool require_checkpoint, std::string* error);

  /// Applies `records` and moves the exactly-once cursor to `sequence`.
  IngestResult Advance(uint64_t sequence, std::span<const Edge> records,
                       std::string* error);

  /// Runs `records` through the fault schedule into delivery_. False
  /// when a record exhausts its transient retries.
  bool InjectFaults(std::span<const Edge> records, uint64_t* transient_seen,
                    uint64_t* corrupt_seen);

  SessionConfig config_;
  std::unique_ptr<StreamingSetCoverAlgorithm> owned_algorithm_;
  StreamingSetCoverAlgorithm* algorithm_ = nullptr;
  std::string algorithm_name_;

  uint64_t position_ = 0;
  uint64_t resumed_at_ = 0;
  uint64_t position_at_last_checkpoint_ = 0;
  uint64_t last_sequence_ = 0;
  uint64_t edges_delivered_ = 0;
  uint64_t transient_retries_ = 0;
  uint64_t corrupt_records_skipped_ = 0;
  uint64_t faults_survived_ = 0;
  uint64_t checkpoints_written_ = 0;
  uint64_t batches_ = 0;
  uint64_t ingest_calls_ = 0;
  uint64_t duplicate_ingests_ = 0;
  bool resumed_ = false;
  bool degraded_ = false;
  double setup_seconds_ = 0.0;
  double stream_seconds_ = 0.0;
  double finalize_seconds_ = 0.0;

  /// Reusable post-fault delivery buffer (duplicates can make it
  /// slightly larger than the incoming batch).
  std::vector<Edge> delivery_;

  std::optional<RunReport> final_report_;
};

}  // namespace engine
}  // namespace setcover

#endif  // SETCOVER_ENGINE_SESSION_H_
