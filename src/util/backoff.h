#ifndef SETCOVER_UTIL_BACKOFF_H_
#define SETCOVER_UTIL_BACKOFF_H_

#include <cstdint>

namespace setcover {

/// Bounded exponential backoff parameters, used by engine::Session
/// when a stream record hits a transient fault. All delays are pure
/// arithmetic here — whoever consumes the schedule decides whether (and
/// how) to actually sleep, which keeps the policy deterministic and
/// testable.
struct BackoffPolicy {
  /// Retries allowed per faulting operation before giving up.
  uint32_t max_retries = 8;

  /// Delay before the first retry, in microseconds.
  uint64_t initial_delay_us = 100;

  /// Multiplier applied after every retry (>= 1).
  double multiplier = 2.0;

  /// Ceiling on any single delay, in microseconds.
  uint64_t max_delay_us = 100000;

  /// Fraction of each delay that is randomized away (clamped to
  /// [0, 1]): an emitted delay is uniform in
  /// (base * (1 - jitter), base]. 0 keeps the historical fully
  /// deterministic schedule. Jitter decorrelates the retry storms of
  /// many clients hammering one recovering server.
  double jitter = 0.0;

  /// Seed of the jitter stream. The whole schedule is a pure function
  /// of (policy, seed): equal seeds emit equal delay sequences, which
  /// is what makes jittered backoff unit-testable (backoff_test.cc
  /// pins the bounds and the determinism).
  uint64_t jitter_seed = 1;
};

/// Iterator over one faulting operation's retry schedule:
///
///   ExponentialBackoff backoff(policy);
///   uint64_t delay_us;
///   while (backoff.NextDelay(&delay_us)) { sleep(delay_us); retry(); }
///   // retries exhausted
///
/// Reset() rearms the schedule after a success so the object can be
/// reused for the next fault.
class ExponentialBackoff {
 public:
  explicit ExponentialBackoff(BackoffPolicy policy = {});

  /// Produces the next delay. Returns false (and leaves *delay_us
  /// untouched) once `max_retries` delays have been handed out.
  bool NextDelay(uint64_t* delay_us);

  /// Rearms the schedule for a fresh operation.
  void Reset();

  /// Delays handed out since the last Reset().
  uint32_t Attempts() const { return attempts_; }

 private:
  BackoffPolicy policy_;
  uint32_t attempts_ = 0;
  uint64_t next_delay_us_ = 0;
  // SplitMix64 state of the jitter stream. Deliberately not rearmed by
  // Reset(): successive operations keep drawing fresh (but seeded, so
  // reproducible) jitter instead of replaying the first operation's.
  uint64_t jitter_state_ = 0;
};

}  // namespace setcover

#endif  // SETCOVER_UTIL_BACKOFF_H_
