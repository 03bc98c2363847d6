#include "engine/session.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "run/checkpoint.h"
#include "stream/fault_injector.h"

namespace setcover {
namespace engine {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

/// EdgeSource over one batch, positioned at the session's absolute
/// stream coordinate so the fault injector's (seed, position) decisions
/// match a whole-stream run exactly. End-of-span reads as kEnd — "end
/// of this batch", not end of the session's stream.
class SpanEdgeSource : public EdgeSource {
 public:
  SpanEdgeSource(const StreamMetadata& meta, std::span<const Edge> edges,
                 uint64_t base_position)
      : meta_(meta), edges_(edges), base_(base_position) {}

  const StreamMetadata& Meta() const override { return meta_; }

  ReadStatus Next(Edge* edge) override {
    if (offset_ >= edges_.size()) return ReadStatus::kEnd;
    *edge = edges_[offset_++];
    return ReadStatus::kOk;
  }

  size_t Position() const override { return base_ + offset_; }

  bool SeekTo(size_t position) override {
    if (position < base_ || position > base_ + edges_.size()) return false;
    offset_ = position - base_;
    return true;
  }

 private:
  const StreamMetadata& meta_;
  std::span<const Edge> edges_;
  uint64_t base_;
  size_t offset_ = 0;
};

}  // namespace

std::unique_ptr<Session> Session::Open(const SessionConfig& config,
                                       bool resume, std::string* error) {
  std::unique_ptr<StreamingSetCoverAlgorithm> algorithm =
      MakeAlgorithmByName(config.algorithm, config.options);
  if (algorithm == nullptr) {
    if (error != nullptr) *error = UnknownAlgorithmError(config.algorithm);
    return nullptr;
  }
  StreamingSetCoverAlgorithm* raw = algorithm.get();
  return Start(std::move(algorithm), raw, config, resume,
               /*require_checkpoint=*/false, error);
}

std::unique_ptr<Session> Session::OpenOver(
    StreamingSetCoverAlgorithm& algorithm, const SessionConfig& config,
    bool resume, std::string* error) {
  return Start(nullptr, &algorithm, config, resume,
               /*require_checkpoint=*/true, error);
}

std::unique_ptr<Session> Session::Start(
    std::unique_ptr<StreamingSetCoverAlgorithm> owned,
    StreamingSetCoverAlgorithm* algorithm, const SessionConfig& config,
    bool resume, bool require_checkpoint, std::string* error) {
  const auto setup_start = Clock::now();
  std::unique_ptr<Session> session(new Session());
  session->config_ = config;
  session->owned_algorithm_ = std::move(owned);
  session->algorithm_ = algorithm;
  session->algorithm_name_ = algorithm->Name();

  std::optional<Checkpoint> checkpoint;
  if (resume) {
    // Without require_checkpoint, a missing file means "crashed before
    // the first checkpoint" and is a legitimate fresh start; anything
    // else wrong with an *existing* file is fatal (never a silent
    // restart).
    bool present = require_checkpoint;
    if (!present && !config.checkpoint_path.empty()) {
      std::FILE* probe = std::fopen(config.checkpoint_path.c_str(), "rb");
      if (probe != nullptr) {
        std::fclose(probe);
        present = true;
      }
    }
    if (present) {
      std::string load_error;
      checkpoint = LoadCheckpoint(config.checkpoint_path, &load_error);
      if (!checkpoint) {
        if (error != nullptr) *error = load_error;
        return nullptr;
      }
    }
  }

  if (checkpoint) {
    if (checkpoint->algorithm_name != session->algorithm_name_) {
      if (error != nullptr) {
        *error = "checkpoint was written by algorithm '" +
                 checkpoint->algorithm_name + "', not '" +
                 session->algorithm_name_ + "'";
      }
      return nullptr;
    }
    if (checkpoint->meta.num_sets != config.meta.num_sets ||
        checkpoint->meta.num_elements != config.meta.num_elements ||
        checkpoint->meta.stream_length != config.meta.stream_length) {
      if (error != nullptr)
        *error = "checkpoint stream shape does not match the stream";
      return nullptr;
    }
    if (!algorithm->DecodeState(config.meta, checkpoint->state_words)) {
      if (error != nullptr) {
        *error = "algorithm '" + session->algorithm_name_ +
                 "' could not decode the checkpointed state";
      }
      return nullptr;
    }
    session->position_ = checkpoint->stream_position;
    session->resumed_at_ = checkpoint->stream_position;
    session->position_at_last_checkpoint_ = checkpoint->stream_position;
    session->edges_delivered_ = checkpoint->edges_delivered;
    session->transient_retries_ = checkpoint->transient_retries;
    session->corrupt_records_skipped_ = checkpoint->corrupt_skipped;
    session->faults_survived_ = checkpoint->faults_survived;
    session->last_sequence_ = checkpoint->session_sequence;
    session->resumed_ = true;
  } else {
    algorithm->Begin(config.meta);
  }
  session->setup_seconds_ = Seconds(setup_start);
  return session;
}

IngestResult Session::Ingest(uint64_t sequence, std::span<const Edge> edges,
                             std::string* error) {
  IngestResult result;
  result.last_sequence = last_sequence_;
  if (final_report_.has_value()) {
    if (error != nullptr) *error = "session already finalized";
    return result;
  }
  if (sequence <= last_sequence_) {
    ++duplicate_ingests_;
    result.status = IngestStatus::kDuplicate;
    return result;
  }
  if (sequence != last_sequence_ + 1) {
    if (error != nullptr) *error = "ingest sequence gap";
    result.status = IngestStatus::kOutOfOrder;
    return result;
  }
  return Advance(sequence, edges, error);
}

IngestResult Session::Apply(std::span<const Edge> records,
                            std::string* error) {
  if (final_report_.has_value()) {
    IngestResult result;
    result.last_sequence = last_sequence_;
    if (error != nullptr) *error = "session already finalized";
    return result;
  }
  return Advance(last_sequence_, records, error);
}

bool Session::InjectFaults(std::span<const Edge> records,
                           uint64_t* transient_seen, uint64_t* corrupt_seen) {
  // A fresh injector over the batch, anchored at the session's absolute
  // position. Its replay state (transient countdowns, owed duplicates)
  // lives strictly inside one batch: a record's faults are delivered
  // before the span's kEnd, so nothing straddles batches and a
  // checkpoint at a batch boundary never sees pending replay.
  delivery_.clear();
  if (delivery_.capacity() < records.size()) delivery_.reserve(records.size());
  SpanEdgeSource span_source(config_.meta, records, position_);
  FaultInjector injector(&span_source, *config_.faults);
  ExponentialBackoff retry(config_.backoff);
  Edge edge;
  for (;;) {
    const ReadStatus status = injector.Next(&edge);
    if (status == ReadStatus::kTransient) {
      uint64_t delay_us = 0;
      if (!retry.NextDelay(&delay_us)) return false;
      ++*transient_seen;
      if (config_.sleeper) config_.sleeper(delay_us);
      continue;
    }
    retry.Reset();
    if (status == ReadStatus::kEnd) return true;
    if (status == ReadStatus::kCorrupt) {
      ++*corrupt_seen;
      continue;
    }
    delivery_.push_back(edge);
  }
}

IngestResult Session::Advance(uint64_t sequence,
                              std::span<const Edge> records,
                              std::string* error) {
  IngestResult result;
  result.last_sequence = last_sequence_;
  const auto stream_start = Clock::now();

  std::span<const Edge> delivery = records;
  uint64_t transient_seen = 0, corrupt_seen = 0;
  if (config_.faults.has_value()) {
    if (!InjectFaults(records, &transient_seen, &corrupt_seen)) {
      // Budget exhausted before anything reached the algorithm: the
      // batch is rejected whole, so a retry of it stays idempotent.
      stream_seconds_ += Seconds(stream_start);
      if (error != nullptr)
        *error = "transient retry budget exhausted mid-batch";
      degraded_ = true;
      result.status = IngestStatus::kRejected;
      return result;
    }
    delivery = delivery_;
  }

  // Everything that survives fault injection is applied in one
  // ProcessEdgeBatch call — by the batch/per-edge contract this leaves
  // state bit-identical to any other batching of the same edges.
  if (!delivery.empty()) {
#ifndef NDEBUG
    if (!resumed_ && batches_ == 0) {
      // Spot-check the batch/per-edge equivalence contract on the first
      // batch of every fresh debug-build run; cheap relative to the
      // stream.
      ProcessBatchCheckedForEquivalence(*algorithm_, config_.meta, delivery);
    } else {
      algorithm_->ProcessEdgeBatch(delivery);
    }
#else
    algorithm_->ProcessEdgeBatch(delivery);
#endif
    ++batches_;
  }
  position_ += records.size();
  edges_delivered_ += delivery.size();
  transient_retries_ += transient_seen;
  corrupt_records_skipped_ += corrupt_seen;
  faults_survived_ += transient_seen + corrupt_seen;
  last_sequence_ = sequence;
  ++ingest_calls_;
  result.status = IngestStatus::kApplied;
  result.last_sequence = last_sequence_;
  stream_seconds_ += Seconds(stream_start);

  if (config_.checkpoint_every > 0 && !config_.checkpoint_path.empty() &&
      position_ - position_at_last_checkpoint_ >= config_.checkpoint_every) {
    if (!WriteCheckpoint(error)) {
      result.status = IngestStatus::kFailed;
      return result;
    }
    result.checkpoints_written = 1;
  }
  return result;
}

void Session::NoteSourceDamage(bool checksum_failed) {
  if (checksum_failed) {
    ++corrupt_records_skipped_;
    ++faults_survived_;
  }
  degraded_ = true;
}

bool Session::WriteCheckpoint(std::string* error) {
  if (config_.checkpoint_path.empty()) return true;  // volatile session
  Checkpoint checkpoint;
  checkpoint.algorithm_name = algorithm_name_;
  checkpoint.meta = config_.meta;
  checkpoint.stream_position = position_;
  checkpoint.edges_delivered = edges_delivered_;
  checkpoint.transient_retries = transient_retries_;
  checkpoint.corrupt_skipped = corrupt_records_skipped_;
  checkpoint.faults_survived = faults_survived_;
  checkpoint.session_sequence = last_sequence_;
  StateEncoder encoder;
  algorithm_->EncodeState(&encoder);
  checkpoint.state_words = encoder.Words();
  if (!SaveCheckpoint(checkpoint, config_.checkpoint_path, error))
    return false;
  ++checkpoints_written_;
  position_at_last_checkpoint_ = position_;
  return true;
}

RunReport Session::Snapshot() const {
  RunReport report;
  report.algorithm_name = algorithm_name_;
  report.resumed = resumed_;
  report.resumed_at = resumed_at_;
  report.edges_delivered = edges_delivered_;
  report.checkpoints_written = checkpoints_written_;
  report.transient_retries = transient_retries_;
  report.corrupt_records_skipped = corrupt_records_skipped_;
  report.faults_survived = faults_survived_;
  report.degraded = degraded_;
  report.peak_words = algorithm_->Meter().PeakWords();
  report.current_words = algorithm_->Meter().CurrentWords();
  report.meter_breakdown = algorithm_->Meter().BreakdownString();
  report.stages.setup_seconds = setup_seconds_;
  report.stages.stream_seconds = stream_seconds_;
  report.stages.finalize_seconds = finalize_seconds_;
  report.stages.total_seconds =
      setup_seconds_ + stream_seconds_ + finalize_seconds_;
  report.stages.batches = batches_;
  return report;
}

const RunReport& Session::Finalize() {
  if (final_report_.has_value()) return *final_report_;
  const auto finalize_start = Clock::now();
  CoverSolution solution = algorithm_->Finalize();
  finalize_seconds_ = Seconds(finalize_start);
  final_report_ = Snapshot();
  RunReport& report = *final_report_;
  report.solution = std::move(solution);
  report.completed = true;
  report.uncovered_elements =
      std::count(report.solution.certificate.begin(),
                 report.solution.certificate.end(), kNoSet);
  return report;
}

SessionStats Session::Stats() const {
  SessionStats stats;
  stats.edges_delivered = edges_delivered_;
  stats.batches = batches_;
  stats.ingest_calls = ingest_calls_;
  stats.duplicate_ingests = duplicate_ingests_;
  stats.checkpoints_written = checkpoints_written_;
  stats.transient_retries = transient_retries_;
  stats.corrupt_records_skipped = corrupt_records_skipped_;
  stats.faults_survived = faults_survived_;
  stats.last_sequence = last_sequence_;
  stats.resumed = resumed_;
  stats.finalized = final_report_.has_value();
  stats.degraded = degraded_;
  stats.setup_seconds = setup_seconds_;
  stats.stream_seconds = stream_seconds_;
  stats.finalize_seconds = finalize_seconds_;
  stats.peak_words = algorithm_->Meter().PeakWords();
  stats.current_words = algorithm_->Meter().CurrentWords();
  return stats;
}

}  // namespace engine
}  // namespace setcover
