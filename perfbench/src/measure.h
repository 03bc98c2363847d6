#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

// Shared plumbing of the benchmark driver: clocks, order statistics,
// process memory readings, the per-run scratch directory, and the
// result every workload returns.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);
double Max(const std::vector<double>& values);

/// One reported number. `name` and `unit` match BENCHMARK.json.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run produced. Every op that failed a correctness
/// check counts in `failed` against `attempted`; `correct` is false as
/// soon as one did, and `problems` says why.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  /// Human-readable lines (sample counts, instance facts) printed
  /// before the result line.
  std::vector<std::string> notes;

  bool Correct() const { return failed == 0 && problems.empty(); }
  void Fail(const std::string& why);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Settings shared by every workload, from the command line.
struct RunSettings {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;     // per-run directory, removed at exit
  std::string trace_path;  // where the traced run writes its spans
  std::string server_bin;  // setcover_server, for push-durable
};

/// Resident-set readings from /proc/<pid>/status, in MiB (0 when the
/// field cannot be read). pid 0 means this process.
double ReadRssMb(pid_t pid);
double ReadPeakRssMb(pid_t pid);

/// Resets this process's peak-RSS high-water mark to its current RSS
/// (/proc/self/clear_refs, mode 5), so VmHWM afterwards covers only the
/// solves, not input generation. False when the kernel refuses.
bool ResetPeakRss();

/// Size of a regular file in bytes (0 when missing).
uint64_t FileBytes(const std::string& path);

/// Whole-file read; empty on failure.
std::vector<char> ReadFile(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
