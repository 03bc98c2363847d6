#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. The benchmark's own code
// opens a span around each call it makes into a layer of the program;
// nothing inside the program is instrumented. Spans stay in memory
// until the run ends and are then written out in Chrome trace-event
// JSON (loadable in Perfetto or chrome://tracing).
//
// Each recording thread owns one Lane, so recording takes no lock.
// Span ids are unique across lanes; `parent` is the enclosing span's id
// (0 for a root) and `op` identifies the benchmark operation — one
// solve or one session — every span of that operation shares.

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "measure.h"

namespace perfbench {

struct Span {
  const char* name = "";  // string literal
  int64_t start_ns = 0;   // since the trace epoch
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;

  double Seconds() const { return double(end_ns - start_ns) * 1e-9; }
};

class Trace;

class Lane {
 public:
  /// Records a finished span with explicit endpoints.
  uint64_t Record(const char* name, Clock::time_point start,
                  Clock::time_point end, uint64_t op, uint64_t parent);

 private:
  friend class Trace;
  friend class ScopedSpan;
  Lane(const Trace* trace, uint32_t index) : trace_(trace), index_(index) {}
  uint64_t NextId() { return (uint64_t(index_ + 1) << 40) | ++counter_; }

  const Trace* trace_;
  uint32_t index_;
  uint64_t counter_ = 0;
  std::vector<Span> spans_;
};

class Trace {
 public:
  Trace() : epoch_(Clock::now()) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// A new recording lane; call before the threads that use it start.
  Lane* AddLane();

  int64_t Nanos(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  /// Sum of span durations named `name`, per op, in seconds.
  std::map<uint64_t, double> TotalByOp(const std::string& name) const;

  /// Median over ops of TotalByOp(name); 0 when no op recorded one.
  double MedianOverOps(const std::string& name) const;

  /// Durations of every span named `name`, in seconds.
  std::vector<double> Durations(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON. False on I/O error.
  bool Write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::deque<Lane> lanes_;  // stable addresses
};

/// Times one call into a layer. A null lane records nothing, so an
/// untraced path runs the same code with no spans.
class ScopedSpan {
 public:
  ScopedSpan(Lane* lane, const char* name, uint64_t op, uint64_t parent)
      : lane_(lane), name_(name), op_(op), parent_(parent),
        id_(lane != nullptr ? lane->NextId() : 0), start_(Clock::now()) {}
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Lane* lane_;
  const char* name_;
  uint64_t op_;
  uint64_t parent_;
  uint64_t id_;
  Clock::time_point start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
