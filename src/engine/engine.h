#ifndef SETCOVER_ENGINE_ENGINE_H_
#define SETCOVER_ENGINE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/streaming_algorithm.h"
#include "instance/validator.h"
#include "run/checkpoint.h"
#include "stream/fault_injector.h"
#include "stream/schedule.h"
#include "stream/stream_file.h"
#include "util/backoff.h"

namespace setcover {
namespace engine {

/// The execution engine: every way this repository drives an edge
/// stream through a streaming algorithm goes through here. A run is
/// described declaratively by a RunConfig — algorithm, source, fault
/// injection, checkpointing, batching, validation — and Execute() pulls
/// record batches from the source into one engine::Session
/// (engine/session.h), the single drive loop:
///
///   source -> schedule -> Session (fault injector -> algorithm,
///   checkpoints) -> finalize -> validate
///
/// returning one unified RunReport. BestOfRuns, the bench harnesses,
/// RunStreamFromFile, and the CLI are all thin clients of this seam
/// (docs/architecture.md has the layer diagram); the only drive loop
/// outside src/engine/ is the header-inline RunStream in
/// core/streaming_algorithm.h, kept as the reference primitive that
/// tests/engine_equivalence_test.cc pins the engine against.
///
/// Equivalence contract: for the same (algorithm, seed, edges), every
/// source, schedule and batch size produces bit-identical covers,
/// certificates and meter readings to RunStream, and checkpoint bytes
/// identical to a per-edge driver — enforced by
/// tests/engine_equivalence_test.cc for every registered algorithm.

/// Where a run's edges come from. Exactly one of `stream` (an in-memory
/// materialized stream) or `path` (a binary stream file, format v1/v2/
/// v3 auto-detected) must be set; `read_options` tunes the file
/// backends (mmap on/off, background prefetch decoding on/off).
struct SourceSpec {
  const EdgeStream* stream = nullptr;
  std::string path;
  StreamReadOptions read_options;

  /// Stream schedule applied to the raw source: k repeated passes
  /// (multi-pass algorithms), or a sliding-window replay feed
  /// (duplicate-heavy arrival simulation). The default is the plain
  /// one-pass schedule. Windowed schedules take neither checkpoints nor
  /// faults. See stream/schedule.h.
  ScheduleSpec schedule;

  static SourceSpec InMemory(const EdgeStream& stream) {
    SourceSpec spec;
    spec.stream = &stream;
    return spec;
  }
  static SourceSpec File(std::string file_path,
                         StreamReadOptions options = {}) {
    SourceSpec spec;
    spec.path = std::move(file_path);
    spec.read_options = options;
    return spec;
  }
};

/// Crash tolerance for one run. `path` names the sidecar checkpoint
/// file; a checkpoint is written every `every` source records (equal
/// to delivered edges unless faults drop or duplicate records). With
/// `resume`, the run restores from `path`
/// instead of starting fresh — the checkpoint must load, CRC-verify,
/// match the algorithm and stream shape, and decode; anything less is a
/// fatal error, never a silent restart.
struct CheckpointSpec {
  std::string path;
  uint64_t every = 0;
  bool resume = false;
};

/// Built-in observability: wall-clock per pipeline stage, process CPU
/// for the whole run, and how many batches the batcher flushed. Stage
/// boundaries are coarse on purpose — per-edge timing would perturb the
/// hot loop the engine exists to keep fast.
struct StageStats {
  double setup_seconds = 0.0;     // source open + algorithm resolve/resume
  double stream_seconds = 0.0;    // source -> session -> algorithm loop
  double finalize_seconds = 0.0;  // Finalize(): cover + certificate
  double validate_seconds = 0.0;  // certificate validation (when enabled)
  double total_seconds = 0.0;     // Execute() entry to exit
  double cpu_seconds = 0.0;       // process CPU consumed during the run
  uint64_t batches = 0;           // ProcessEdgeBatch calls issued
};

/// Everything a caller learns from an engine run: the solution, the
/// fault and checkpoint counters, per-stage observability, the resolved
/// algorithm identity, meter totals, and the validation verdict.
struct RunReport {
  /// Valid only when `completed`.
  CoverSolution solution;

  /// The run reached Finalize(). False after a simulated kill
  /// (stop_after) or a fatal error (see `error`).
  bool completed = false;

  /// This run restored state from a checkpoint, at this position.
  bool resumed = false;
  uint64_t resumed_at = 0;

  /// Totals across the whole logical run (carried over a resume).
  uint64_t edges_delivered = 0;
  uint64_t checkpoints_written = 0;
  uint64_t transient_retries = 0;
  uint64_t corrupt_records_skipped = 0;
  uint64_t faults_survived = 0;

  /// The run could not consume the full stream (retry budget exhausted
  /// or truncated input) and the cover may be partial; the certificate
  /// still certifies exactly which elements are covered.
  bool degraded = false;
  uint64_t uncovered_elements = 0;

  /// Non-empty on fatal failure (unknown algorithm, unreadable source,
  /// unreadable/corrupt/mismatched checkpoint, undecodable state,
  /// checkpoint write failure).
  std::string error;

  /// Name() of the algorithm that ran (empty when resolution failed).
  std::string algorithm_name;

  /// Space accounting at the end of the run, from the algorithm's
  /// MemoryMeter.
  size_t peak_words = 0;
  size_t current_words = 0;
  std::string meter_breakdown;

  /// Per-stage counters and timings.
  StageStats stages;

  /// Certificate validation verdict; meaningful only when `validated`
  /// (RunConfig::validate was set and the run completed).
  bool validated = false;
  ValidationResult validation;
};

/// One declarative run description, consumed by Execute().
struct RunConfig {
  /// Algorithm to run, by registry name. Ignored when
  /// `algorithm_instance` is set. Unknown names fail with the
  /// registry's unknown-algorithm diagnostic (names + suggestion).
  std::string algorithm;
  AlgorithmOptions options;

  /// Pre-built algorithm to drive instead of a registry name — for
  /// callers that need non-registry parameterizations (bench rows) or
  /// want to inspect the object afterwards. Not owned; must outlive the
  /// call.
  StreamingSetCoverAlgorithm* algorithm_instance = nullptr;

  /// Where the edges come from.
  SourceSpec source;

  /// Deterministic stream damage layered over the source (transient /
  /// duplicate / drop / corrupt, a pure function of (seed, position)).
  std::optional<FaultSchedule> faults;

  /// Checkpoint/resume behavior.
  CheckpointSpec checkpoint;

  /// Simulated kill switch: stop (without finalizing) once this many
  /// source records were consumed this run. 0 disables. The last
  /// checkpoint on disk is then exactly what a real crash leaves.
  uint64_t stop_after = 0;

  /// Retry policy for transient faults, and the sleep between retries
  /// (unset: no sleep; see SessionConfig::sleeper).
  BackoffPolicy backoff;
  std::function<void(uint64_t)> sleeper;

  /// Most source records per batch handed to the session. Checkpoint
  /// positions, the stop_after kill point and end-of-stream also cut
  /// batches, and a file batch never spans two chunks; by the
  /// ProcessEdgeBatch contract reports and algorithm state are
  /// bit-identical at any batch size.
  size_t batch_edges = kIngestBatchEdges;

  /// When set, the completed solution is validated against this
  /// instance (legal cover + legal certificate) and the verdict lands
  /// in RunReport::validation.
  const SetCoverInstance* validate = nullptr;
};

/// Runs the pipeline described by `config` and returns the unified
/// report: resolves the algorithm, opens a Session on it (fresh, or
/// resumed from config.checkpoint), hands it record batches — span
/// slices of an in-memory stream or chunk spans of a stream file, zero
/// copy — then finalizes and validates.
RunReport Execute(const RunConfig& config);

}  // namespace engine
}  // namespace setcover

#endif  // SETCOVER_ENGINE_ENGINE_H_
