#include "engine/engine.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/session.h"
#include "stream/edge.h"

namespace setcover {
namespace engine {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// The record supply of one Execute run under its schedule: span slices
/// of an in-memory stream, or chunk spans of a stream file straight off
/// the (possibly prefetching, possibly mmap'd) reader, replayed once per
/// scheduled pass. Positions are scheduled coordinates, pass · N +
/// record, where N is the length of one pass.
class ScheduledFeed {
 public:
  ScheduledFeed(const EdgeStream* stream,
                std::unique_ptr<BatchEdgeReader> reader,
                const ScheduleSpec& schedule)
      : stream_(stream),
        reader_(std::move(reader)),
        schedule_(schedule),
        pass_length_(stream_ != nullptr ? stream_->edges.size()
                                        : reader_->Meta().stream_length) {}

  const StreamMetadata& Meta() const {
    return stream_ != nullptr ? stream_->meta : reader_->Meta();
  }

  /// Positions the cursor at scheduled position `position` (a position
  /// equal to the whole schedule's length parks it at the end).
  bool SeekTo(uint64_t position) {
    uint64_t pass = pass_length_ == 0 ? 0 : position / pass_length_;
    uint64_t offset = pass_length_ == 0 ? position : position % pass_length_;
    if (pass >= schedule_.passes) {
      if (pass != schedule_.passes || offset != 0 || pass_length_ == 0)
        return false;
      pass = schedule_.passes - 1;
      offset = pass_length_;
    }
    pass_ = uint32_t(pass);
    return Rewind(offset);
  }

  /// The next batch: up to `limit` source records (fewer at a chunk or
  /// pass end) followed, for a window schedule, by the replay copies
  /// they trigger. *records is the number of source records in it; 0
  /// once the schedule ends or the file ended early (see Damaged()).
  std::span<const Edge> Next(size_t limit, size_t* records) {
    std::span<const Edge> batch = Take(limit);
    while (batch.empty() && !Damaged() && pass_ + 1 < schedule_.passes) {
      ++pass_;
      recent_.clear();
      fresh_ = 0;
      if (!Rewind(0)) break;
      batch = Take(limit);
    }
    *records = batch.size();
    return schedule_.window > 0 ? WithReplays(batch) : batch;
  }

  /// The file ended before N records, or a chunk failed its CRC; either
  /// ends the whole schedule, since replaying a pass that did not
  /// deliver its N records would feed each pass a different sequence.
  bool Damaged() const {
    return reader_ != nullptr &&
           (reader_->Truncated() || reader_->ChecksumFailed());
  }
  bool ChecksumFailed() const {
    return reader_ != nullptr && reader_->ChecksumFailed();
  }

 private:
  bool Rewind(uint64_t offset) {
    pending_ = {};
    if (stream_ != nullptr) {
      if (offset > stream_->edges.size()) return false;
      offset_ = offset;
      return true;
    }
    return reader_->SeekToEdge(offset);
  }

  std::span<const Edge> Take(size_t limit) {
    if (stream_ != nullptr) {
      std::span<const Edge> edges(stream_->edges);
      std::span<const Edge> batch =
          edges.subspan(offset_, std::min(limit, edges.size() - offset_));
      offset_ += batch.size();
      return batch;
    }
    // The reader's span stays valid until its next read, which happens
    // only once this chunk has been handed out whole.
    if (pending_.empty()) pending_ = reader_->NextBatch();
    std::span<const Edge> batch =
        pending_.first(std::min(limit, pending_.size()));
    pending_ = pending_.subspan(batch.size());
    return batch;
  }

  /// The sliding-window transform: each record passes through, and
  /// after every `replay_every` records of the pass the last `window`
  /// of them follow again, oldest first.
  std::span<const Edge> WithReplays(std::span<const Edge> records) {
    replayed_.clear();
    for (const Edge& edge : records) {
      replayed_.push_back(edge);
      recent_.push_back(edge);
      if (recent_.size() > schedule_.window) recent_.pop_front();
      if (++fresh_ >= schedule_.replay_every) {
        fresh_ = 0;
        replayed_.insert(replayed_.end(), recent_.begin(), recent_.end());
      }
    }
    return replayed_;
  }

  const EdgeStream* stream_;
  std::unique_ptr<BatchEdgeReader> reader_;
  ScheduleSpec schedule_;
  uint64_t pass_length_;
  uint32_t pass_ = 0;
  size_t offset_ = 0;               // in-memory cursor within the pass
  std::span<const Edge> pending_;   // rest of the reader's current chunk

  std::deque<Edge> recent_;         // window: last records of the pass
  uint32_t fresh_ = 0;              // window: records since last replay
  std::vector<Edge> replayed_;      // window: the expanded batch
};

}  // namespace

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
  if (schedule.window > 0 && config.faults.has_value()) {
    report.error = "windowed schedules take no fault schedule (a replayed "
                   "window record has no stream position for a fault "
                   "decision to key on)";
    return report;
  }

  std::unique_ptr<BatchEdgeReader> reader;
  if (spec.stream == nullptr) {
    reader = OpenBatchEdgeReader(spec.path, spec.read_options, &report.error);
    if (reader == nullptr) return report;
  }
  ScheduledFeed feed(spec.stream, std::move(reader), schedule);

  SessionConfig session_config;
  session_config.meta = feed.Meta();
  session_config.faults = config.faults;
  session_config.checkpoint_path = config.checkpoint.path;
  session_config.checkpoint_every = config.checkpoint.every;
  session_config.backoff = config.backoff;
  session_config.sleeper = config.sleeper;
  std::unique_ptr<Session> session = Session::OpenOver(
      *algorithm, session_config, config.checkpoint.resume, &report.error);
  if (session == nullptr) return report;
  const uint64_t start_position = session->Position();
  if (start_position != 0 && !feed.SeekTo(start_position)) {
    report.error = "source cannot seek to checkpointed position";
    return report;
  }
  const double setup_seconds = Seconds(setup_start);

  // Batches are cut so that every observable boundary — checkpoint
  // positions (position % every == 0), the stop_after kill point and
  // end-of-stream — falls between two of them; by the ProcessEdgeBatch
  // contract the cut points change nothing else.
  const auto stream_start = Clock::now();
  const uint64_t every = checkpointing ? config.checkpoint.every : 0;
  const size_t batch_edges =
      config.batch_edges > 0 ? config.batch_edges : kIngestBatchEdges;
  uint64_t position = start_position;
  bool stopped = false;  // killed, or a checkpoint write failed
  std::string error;
  for (;;) {
    const uint64_t consumed = position - start_position;
    if (config.stop_after != 0 && consumed >= config.stop_after) {
      // Simulated kill: walk away mid-stream. The last checkpoint on
      // disk is exactly what a real crash would leave behind.
      stopped = true;
      break;
    }
    uint64_t limit = batch_edges;
    if (every > 0) limit = std::min(limit, every - position % every);
    if (config.stop_after != 0)
      limit = std::min(limit, config.stop_after - consumed);
    size_t records = 0;
    const std::span<const Edge> batch = feed.Next(size_t(limit), &records);
    if (records == 0) break;
    const IngestResult result = session->Apply(batch, &error);
    // A record ran out of transient retries: the run ends degraded.
    if (result.status == IngestStatus::kRejected) break;
    if (result.status != IngestStatus::kApplied) {
      stopped = true;
      break;
    }
    position += records;
  }
  const double stream_seconds = Seconds(stream_start);

  if (stopped) {
    report = session->Snapshot();
    report.error = error;  // empty after a simulated kill
  } else {
    if (feed.Damaged()) session->NoteSourceDamage(feed.ChecksumFailed());
    report = session->Finalize();
  }
  report.stages.setup_seconds = setup_seconds;
  report.stages.stream_seconds = stream_seconds;

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
// a thin client of Execute over a file source.
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
