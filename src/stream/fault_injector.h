#ifndef SETCOVER_STREAM_FAULT_INJECTOR_H_
#define SETCOVER_STREAM_FAULT_INJECTOR_H_

#include <cstdint>
#include <optional>

#include "stream/edge_source.h"

namespace setcover {

/// The kinds of stream damage the injector can manufacture, mirroring
/// what a real deployment sees from flaky disks, retried RPCs and
/// at-least-once delivery.
enum class FaultKind : uint8_t {
  kNone = 0,
  kTransient,  // reading the record fails kTransient a few times, then
               // succeeds
  kDuplicate,  // the record is delivered twice
  kDrop,       // the record is silently lost
  kCorrupt,    // the record arrives garbled (out-of-range ids)
};

/// Rates (per underlying record, in [0, 1]) and the seed of a fault
/// schedule. The schedule is a pure function of (seed, position): the
/// same seed over the same stream always injects the same faults at
/// the same places, and — crucially for checkpoint resume — replaying
/// from position k reproduces the identical suffix of faults. Rates
/// that sum above 1 are scaled down proportionally.
struct FaultSchedule {
  uint64_t seed = 1;
  double transient_rate = 0.0;
  double duplicate_rate = 0.0;
  double drop_rate = 0.0;
  double corrupt_rate = 0.0;

  /// Consecutive kTransient failures delivered before the read at a
  /// transient-faulty position succeeds.
  uint32_t transient_failures = 2;

  /// A schedule with every fault kind active, for sweep tests.
  static FaultSchedule AllKinds(uint64_t seed, double rate_each = 0.02);
};

/// Deterministic fault-injection layer: wraps any EdgeSource and
/// damages its output according to a FaultSchedule. engine::Session
/// runs every batch of a fault-injected run through one; the
/// robustness and kill-and-resume tests use it to prove the engine
/// survives dirty streams and recovers bit-exactly while faults keep
/// firing.
///
/// Determinism contract: the fault decision for the record at
/// underlying position p depends only on (schedule.seed, p). SeekTo()
/// therefore restores not just the data but the exact fault replay.
/// A transient fault belongs to a record: a read that finds the base
/// source exhausted ends the stream without one, so a stream cut into
/// spans sees each record's faults exactly once, in the span that
/// holds the record.
class FaultInjector : public EdgeSource {
 public:
  FaultInjector(EdgeSource* base, FaultSchedule schedule);

  const StreamMetadata& Meta() const override { return base_->Meta(); }
  ReadStatus Next(Edge* edge) override;
  size_t Position() const override;
  bool SeekTo(size_t position) override;

  /// What the schedule decrees for the record at position `p`.
  FaultKind KindAt(size_t p) const;

  /// Faults actually delivered so far, by kind (indexed by FaultKind).
  size_t DeliveredFaults(FaultKind kind) const {
    return delivered_[static_cast<size_t>(kind)];
  }

 private:
  double UniformAt(size_t p) const;

  EdgeSource* base_;
  FaultSchedule schedule_;
  double scale_ = 1.0;
  // The record at `held_position_`, read from the base while its
  // transient failures are still being delivered.
  std::optional<Edge> held_;
  size_t held_position_ = 0;
  // Second copy of a duplicated record, owed to the consumer.
  std::optional<Edge> pending_duplicate_;
  size_t pending_position_ = 0;
  // Transient failures already delivered for the held record.
  uint32_t transient_delivered_ = 0;
  size_t delivered_[5] = {0, 0, 0, 0, 0};
};

}  // namespace setcover

#endif  // SETCOVER_STREAM_FAULT_INJECTOR_H_
