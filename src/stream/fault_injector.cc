#include "stream/fault_injector.h"

#include <algorithm>

namespace setcover {
namespace {

// SplitMix64 finalizer — a stateless position hash, so fault decisions
// are a pure function of (seed, position) and survive SeekTo replay.
uint64_t Mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

FaultSchedule FaultSchedule::AllKinds(uint64_t seed, double rate_each) {
  FaultSchedule schedule;
  schedule.seed = seed;
  schedule.transient_rate = rate_each;
  schedule.duplicate_rate = rate_each;
  schedule.drop_rate = rate_each;
  schedule.corrupt_rate = rate_each;
  return schedule;
}

FaultInjector::FaultInjector(EdgeSource* base, FaultSchedule schedule)
    : base_(base), schedule_(schedule) {
  double sum = schedule_.transient_rate + schedule_.duplicate_rate +
               schedule_.drop_rate + schedule_.corrupt_rate;
  scale_ = sum > 1.0 ? 1.0 / sum : 1.0;
}

double FaultInjector::UniformAt(size_t p) const {
  return double(Mix64(schedule_.seed ^ (uint64_t{p} + 1) *
                                           0xD1B54A32D192ED03ULL) >>
                11) *
         0x1.0p-53;
}

FaultKind FaultInjector::KindAt(size_t p) const {
  double u = UniformAt(p);
  double edge = schedule_.transient_rate * scale_;
  if (u < edge) return FaultKind::kTransient;
  edge += schedule_.duplicate_rate * scale_;
  if (u < edge) return FaultKind::kDuplicate;
  edge += schedule_.drop_rate * scale_;
  if (u < edge) return FaultKind::kDrop;
  edge += schedule_.corrupt_rate * scale_;
  if (u < edge) return FaultKind::kCorrupt;
  return FaultKind::kNone;
}

size_t FaultInjector::Position() const {
  if (pending_duplicate_.has_value()) return pending_position_;
  if (held_.has_value()) return held_position_;
  return base_->Position();
}

bool FaultInjector::SeekTo(size_t position) {
  if (!base_->SeekTo(position)) return false;
  held_.reset();
  pending_duplicate_.reset();
  transient_delivered_ = 0;
  return true;
}

ReadStatus FaultInjector::Next(Edge* edge) {
  if (pending_duplicate_.has_value()) {
    *edge = *pending_duplicate_;
    pending_duplicate_.reset();
    return ReadStatus::kOk;
  }
  for (;;) {
    if (!held_.has_value()) {
      held_position_ = base_->Position();
      Edge record{};
      const ReadStatus status = base_->Next(&record);
      if (status == ReadStatus::kCorrupt) *edge = record;
      if (status != ReadStatus::kOk) return status;
      held_ = record;
      transient_delivered_ = 0;
    }
    const size_t p = held_position_;
    const FaultKind kind = KindAt(p);
    if (kind == FaultKind::kTransient &&
        transient_delivered_ < schedule_.transient_failures) {
      ++transient_delivered_;
      ++delivered_[static_cast<size_t>(FaultKind::kTransient)];
      return ReadStatus::kTransient;
    }
    *edge = *held_;
    held_.reset();
    switch (kind) {
      case FaultKind::kDrop:
        ++delivered_[static_cast<size_t>(FaultKind::kDrop)];
        continue;  // the record is lost; move on to the next one
      case FaultKind::kDuplicate:
        pending_duplicate_ = *edge;
        pending_position_ = p;
        ++delivered_[static_cast<size_t>(FaultKind::kDuplicate)];
        return ReadStatus::kOk;
      case FaultKind::kCorrupt: {
        // Garble both ids out of range — detectably damaged, the way a
        // checksum-failing record surfaces after decoding.
        uint64_t h = Mix64(schedule_.seed ^ uint64_t{p} ^
                           0xC2B2AE3D27D4EB4FULL);
        edge->set = Meta().num_sets + static_cast<uint32_t>(h % 1009);
        edge->element =
            Meta().num_elements + static_cast<uint32_t>((h >> 32) % 1013);
        ++delivered_[static_cast<size_t>(FaultKind::kCorrupt)];
        return ReadStatus::kCorrupt;
      }
      default:
        return ReadStatus::kOk;
    }
  }
}

}  // namespace setcover
