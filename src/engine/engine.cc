#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "run/checkpoint.h"
#include "stream/edge.h"
#include "stream/schedule.h"

namespace setcover {
namespace engine {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// Records the algorithm's space accounting into the report — called on
/// every exit path so even killed or failed runs report their meter.
void StampMeter(RunReport* report,
                const StreamingSetCoverAlgorithm& algorithm) {
  report->peak_words = algorithm.Meter().PeakWords();
  report->current_words = algorithm.Meter().CurrentWords();
  report->meter_breakdown = algorithm.Meter().BreakdownString();
}

/// Finalize + bookkeeping shared by every completing path.
void FinalizeRun(RunReport* report, StreamingSetCoverAlgorithm& algorithm) {
  const auto start = Clock::now();
  report->solution = algorithm.Finalize();
  report->stages.finalize_seconds = Seconds(start);
  const std::vector<SetId>& certificate = report->solution.certificate;
  report->uncovered_elements =
      std::count(certificate.begin(), certificate.end(), kNoSet);
  report->completed = true;
  StampMeter(report, algorithm);
}

/// The in-memory fast path: RunStream's exact loop (same batch
/// boundaries, same debug-build first-batch equivalence spot-check)
/// with the engine's counters layered on. Bit-identical to RunStream —
/// pinned by engine_equivalence_test.
void DriveInMemory(RunReport* report, StreamingSetCoverAlgorithm& algorithm,
                   const EdgeStream& stream, size_t batch_edges) {
  const auto start = Clock::now();
  algorithm.Begin(stream.meta);
  std::span<const Edge> edges(stream.edges);
  for (size_t offset = 0; offset < edges.size(); offset += batch_edges) {
    std::span<const Edge> batch =
        edges.subspan(offset, std::min(batch_edges, edges.size() - offset));
#ifndef NDEBUG
    if (offset == 0) {
      // Spot-check the batch/per-edge equivalence contract on the first
      // batch of every debug-build run; cheap relative to the stream.
      ProcessBatchCheckedForEquivalence(algorithm, stream.meta, batch);
      ++report->stages.batches;
      report->edges_delivered += batch.size();
      continue;
    }
#endif
    algorithm.ProcessEdgeBatch(batch);
    ++report->stages.batches;
    report->edges_delivered += batch.size();
  }
  report->stages.stream_seconds = Seconds(start);
  FinalizeRun(report, algorithm);
}

/// The file fast path: RunStreamFromFile's exact loop — chunk-aligned,
/// CRC-verified batches straight off the (possibly prefetching, possibly
/// zero-copy mmap) reader. Damage semantics match the supervised loop:
/// a checksum-failed chunk counts as one corrupt record and degrades
/// the run; early EOF degrades it.
void DriveFile(RunReport* report, StreamingSetCoverAlgorithm& algorithm,
               BatchEdgeReader& reader) {
  const auto start = Clock::now();
  algorithm.Begin(reader.Meta());
  for (std::span<const Edge> batch = reader.NextBatch(); !batch.empty();
       batch = reader.NextBatch()) {
    algorithm.ProcessEdgeBatch(batch);
    ++report->stages.batches;
    report->edges_delivered += batch.size();
  }
  report->stages.stream_seconds = Seconds(start);
  if (reader.ChecksumFailed()) {
    ++report->corrupt_records_skipped;
    ++report->faults_survived;
  }
  if (reader.Truncated() || reader.ChecksumFailed()) report->degraded = true;
  FinalizeRun(report, algorithm);
}

}  // namespace

RunReport Drive(const DriveOptions& options,
                StreamingSetCoverAlgorithm& algorithm, EdgeSource& source) {
  RunReport report;
  report.algorithm_name = algorithm.Name();
  const StreamMetadata& meta = source.Meta();
  const auto setup_start = Clock::now();

  if (options.resume) {
    std::string error;
    std::optional<Checkpoint> checkpoint =
        LoadCheckpoint(options.checkpoint_path, &error);
    if (!checkpoint) {
      report.error = error;
      return report;
    }
    if (checkpoint->algorithm_name != algorithm.Name()) {
      report.error = "checkpoint was written by algorithm '" +
                     checkpoint->algorithm_name + "', not '" +
                     algorithm.Name() + "'";
      return report;
    }
    if (checkpoint->meta.num_sets != meta.num_sets ||
        checkpoint->meta.num_elements != meta.num_elements ||
        checkpoint->meta.stream_length != meta.stream_length) {
      report.error = "checkpoint stream shape does not match the source";
      return report;
    }
    if (!algorithm.DecodeState(meta, checkpoint->state_words)) {
      report.error = "algorithm '" + algorithm.Name() +
                     "' could not decode the checkpointed state";
      return report;
    }
    if (!source.SeekTo(checkpoint->stream_position)) {
      report.error = "source cannot seek to checkpointed position";
      return report;
    }
    report.resumed = true;
    report.resumed_at = checkpoint->stream_position;
    report.edges_delivered = checkpoint->edges_delivered;
    report.transient_retries = checkpoint->transient_retries;
    report.corrupt_records_skipped = checkpoint->corrupt_skipped;
    report.faults_survived = checkpoint->faults_survived;
  } else {
    algorithm.Begin(meta);
  }
  report.stages.setup_seconds = Seconds(setup_start);

  const bool checkpointing =
      !options.checkpoint_path.empty() && options.checkpoint_every > 0;
  const size_t batch_edges =
      options.batch_edges > 0 ? options.batch_edges : kIngestBatchEdges;
  uint64_t delivered_this_run = 0;
  ExponentialBackoff retry(options.backoff);
  const auto stream_start = Clock::now();

  // Batched ingestion: edges accumulate with the same per-edge fault
  // handling as the original per-edge supervisor, and flush through
  // ProcessEdgeBatch. Batches are capped so that every observable
  // boundary of the per-edge loop — checkpoint positions
  // (edges_delivered % checkpoint_every == 0), the stop_after kill
  // point, and end-of-stream — falls exactly on a flush, so
  // checkpoints, reports and the algorithm's state are bit-identical
  // to the per-edge path.
  Edge edge;
  std::vector<Edge> batch;
  batch.reserve(batch_edges);
  auto flush = [&] {
    if (batch.empty()) return;
    algorithm.ProcessEdgeBatch(std::span<const Edge>(batch));
    report.edges_delivered += batch.size();
    delivered_this_run += batch.size();
    ++report.stages.batches;
    batch.clear();
  };
  for (;;) {
    if (options.stop_after != 0 &&
        delivered_this_run + batch.size() >= options.stop_after) {
      // Simulated kill: walk away mid-stream. The last checkpoint on
      // disk is exactly what a real crash would leave behind.
      flush();
      report.stages.stream_seconds = Seconds(stream_start);
      report.uncovered_elements = 0;
      StampMeter(&report, algorithm);
      return report;
    }
    const ReadStatus status = source.Next(&edge);
    if (status == ReadStatus::kTransient) {
      uint64_t delay_us = 0;
      if (!retry.NextDelay(&delay_us)) {
        report.degraded = true;  // retry budget exhausted mid-stream
        break;
      }
      ++report.transient_retries;
      ++report.faults_survived;
      if (options.sleeper) options.sleeper(delay_us);
      continue;
    }
    retry.Reset();
    if (status == ReadStatus::kEnd) break;
    if (status == ReadStatus::kCorrupt) {
      ++report.corrupt_records_skipped;
      ++report.faults_survived;
      continue;
    }

    batch.push_back(edge);
    const uint64_t logical_delivered = report.edges_delivered + batch.size();

    if (checkpointing &&
        logical_delivered % options.checkpoint_every == 0) {
      flush();
      if (!source.HasPendingReplay()) {
        StateEncoder encoder;
        algorithm.EncodeState(&encoder);
        Checkpoint checkpoint;
        checkpoint.algorithm_name = algorithm.Name();
        checkpoint.meta = meta;
        checkpoint.stream_position = source.Position();
        checkpoint.edges_delivered = report.edges_delivered;
        checkpoint.transient_retries = report.transient_retries;
        checkpoint.corrupt_skipped = report.corrupt_records_skipped;
        checkpoint.faults_survived = report.faults_survived;
        checkpoint.state_words = encoder.Words();
        std::string error;
        if (!SaveCheckpoint(checkpoint, options.checkpoint_path, &error)) {
          report.error = error;
          StampMeter(&report, algorithm);
          return report;
        }
        ++report.checkpoints_written;
      }
    } else if (batch.size() >= batch_edges) {
      flush();
    }
  }
  flush();
  report.stages.stream_seconds = Seconds(stream_start);

  if (source.Truncated()) report.degraded = true;
  FinalizeRun(&report, algorithm);
  return report;
}

RunReport Execute(const RunConfig& config) {
  RunReport report;
  const auto total_start = Clock::now();
  const std::clock_t cpu_start = std::clock();
  const auto setup_start = Clock::now();

  // Resolve the algorithm: a caller-provided instance, or the
  // self-describing registry by name.
  std::unique_ptr<StreamingSetCoverAlgorithm> owned;
  StreamingSetCoverAlgorithm* algorithm = config.algorithm_instance;
  if (algorithm == nullptr) {
    owned = MakeAlgorithmByName(config.algorithm, config.options);
    if (owned == nullptr) {
      report.error = UnknownAlgorithmError(config.algorithm);
      return report;
    }
    algorithm = owned.get();
  }
  report.algorithm_name = algorithm->Name();

  const SourceSpec& spec = config.source;
  if ((spec.stream != nullptr) == !spec.path.empty()) {
    report.error = spec.stream == nullptr
                       ? "run config has no source (set SourceSpec::stream "
                         "or SourceSpec::path)"
                       : "run config sets both an in-memory stream and a "
                         "file path; pick one";
    return report;
  }

  const ScheduleSpec& schedule = spec.schedule;
  if (!schedule.Validate(&report.error)) return report;

  const bool checkpointing = !config.checkpoint.path.empty() &&
                             config.checkpoint.every > 0;
  if (schedule.window > 0 && (checkpointing || config.checkpoint.resume)) {
    report.error = "windowed schedules are not checkpointable (the window "
                   "contents are not position-addressable)";
    return report;
  }
  const bool supervised = config.faults.has_value() ||
                          config.stop_after != 0 ||
                          config.checkpoint.resume || checkpointing ||
                          config.batch_edges != kIngestBatchEdges ||
                          !schedule.Trivial();

  if (!supervised) {
    // Fast paths: clean source, no mid-run observation points — the
    // legacy RunStream / RunStreamFromFile loops, verbatim.
    if (spec.stream != nullptr) {
      report.stages.setup_seconds = Seconds(setup_start);
      DriveInMemory(&report, *algorithm, *spec.stream, config.batch_edges);
    } else {
      std::string error;
      auto reader = OpenBatchEdgeReader(spec.path, spec.read_options, &error);
      if (reader == nullptr) {
        report.error = error;
        return report;
      }
      report.stages.setup_seconds = Seconds(setup_start);
      DriveFile(&report, *algorithm, *reader);
    }
  } else {
    // Supervised path: assemble source -> schedule -> fault injector
    // -> Drive. The schedule sits under the injector so fault decisions
    // key on scheduled positions and the whole stack stays
    // deterministic (and, for pass schedules, checkpointable).
    std::unique_ptr<EdgeSource> file_source;
    std::optional<VectorEdgeSource> vector_source;
    EdgeSource* source = nullptr;
    if (spec.stream != nullptr) {
      source = &vector_source.emplace(*spec.stream);
    } else {
      std::string error;
      file_source =
          StreamFileSource::Open(spec.path, spec.read_options, &error);
      if (file_source == nullptr) {
        report.error = error;
        return report;
      }
      source = file_source.get();
    }
    std::optional<ScheduledSource> scheduled;
    if (!schedule.Trivial()) source = &scheduled.emplace(source, schedule);
    std::optional<FaultInjector> injector;
    if (config.faults.has_value())
      source = &injector.emplace(source, *config.faults);

    DriveOptions options;
    options.checkpoint_path = config.checkpoint.path;
    options.checkpoint_every = config.checkpoint.every;
    options.resume = config.checkpoint.resume;
    options.backoff = config.backoff;
    options.sleeper = config.sleeper;
    options.stop_after = config.stop_after;
    options.batch_edges = config.batch_edges;
    const double setup_seconds = Seconds(setup_start);
    report = Drive(options, *algorithm, *source);
    report.stages.setup_seconds += setup_seconds;
  }

  // Validation stage (only meaningful for completed runs).
  if (config.validate != nullptr && report.completed) {
    const auto validate_start = Clock::now();
    report.validation = ValidateSolution(*config.validate, report.solution);
    report.validated = true;
    report.stages.validate_seconds = Seconds(validate_start);
  }

  report.stages.total_seconds = Seconds(total_start);
  report.stages.cpu_seconds =
      double(std::clock() - cpu_start) / double(CLOCKS_PER_SEC);
  return report;
}

}  // namespace engine

// RunStreamFromFile (declared in stream/stream_file.h) predates the
// engine and survives as API surface for examples/tests/benches; it is
// now a thin client of the engine's file fast path, which is its old
// loop verbatim.
std::optional<CoverSolution> RunStreamFromFile(
    StreamingSetCoverAlgorithm& algorithm, const std::string& path,
    const StreamReadOptions& options, std::string* error) {
  engine::RunConfig config;
  config.algorithm_instance = &algorithm;
  config.source = engine::SourceSpec::File(path, options);
  engine::RunReport report = engine::Execute(config);
  if (!report.completed) {
    if (error != nullptr) *error = report.error;
    return std::nullopt;
  }
  return std::move(report.solution);
}

std::optional<CoverSolution> RunStreamFromFile(
    StreamingSetCoverAlgorithm& algorithm, const std::string& path,
    std::string* error) {
  return RunStreamFromFile(algorithm, path, StreamReadOptions{}, error);
}

}  // namespace setcover
