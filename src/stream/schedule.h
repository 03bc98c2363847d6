#ifndef SETCOVER_STREAM_SCHEDULE_H_
#define SETCOVER_STREAM_SCHEDULE_H_

#include <cstdint>
#include <string>

namespace setcover {

/// Declarative arrival schedule for a run's source: how the underlying
/// one-pass record sequence is presented to the algorithm. The default
/// (passes == 1, window == 0) is the plain one-pass feed.
/// engine::Execute applies it to the record batches it cuts from the
/// source (engine/engine.cc).
struct ScheduleSpec {
  /// k >= 1 repeated passes over the underlying stream (Chakrabarti–
  /// Wirth style multi-pass). Each pass replays the identical record
  /// sequence; scheduled position p maps to pass p / N, record p % N,
  /// so checkpoints compose with multi-pass runs.
  uint32_t passes = 1;

  /// Sliding-window replay: keep the last `window` records of the
  /// current pass and re-deliver them (oldest first) after every
  /// `replay_every` fresh records — a duplicate-heavy arrival feed.
  /// Replayed records have no stream position of their own, so window
  /// schedules are not resumable and take no fault schedule: the
  /// engine rejects them combined with checkpointing or faults.
  uint32_t window = 0;
  uint32_t replay_every = 0;

  bool Validate(std::string* error) const;
};

}  // namespace setcover

#endif  // SETCOVER_STREAM_SCHEDULE_H_
