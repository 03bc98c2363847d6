#ifndef SETCOVER_UTIL_MEMORY_METER_H_
#define SETCOVER_UTIL_MEMORY_METER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace setcover {

/// Accounts for the working-set size of a streaming algorithm in machine
/// words (one word = 64 bits), the unit the paper's space bounds are
/// stated in (up to constant factors).
///
/// Algorithms register named components once (e.g. "levels", "solution",
/// "tracking") and update each component's current word count as their
/// data structures grow and shrink. The meter maintains the running total
/// and its peak over the whole stream, which is what the benchmarks
/// report as "space".
///
/// This explicit accounting — rather than a malloc hook — measures the
/// *information-theoretic* state the algorithm carries, which is the
/// quantity lower bounds such as Theorem 2 speak about; container
/// overheads (capacity slack, hash-table load factors) are deliberately
/// excluded, and each algorithm documents the word cost it charges per
/// stored item.
///
/// Excluded overhead is held to a constant factor, not left unbounded:
/// every table behind a metered item is sized to its live population
/// (util/sparse_id_table.h), and tests/alloc_bytes_test.cc checks the
/// allocated bytes of each algorithm in Table 1's regime against
/// 4 · 8 · PeakWords() plus an m-bit solution bitset and O(n) bytes.
/// bench_scaling reports the measured bytes next to the words.
class MemoryMeter {
 public:
  using ComponentId = size_t;

  MemoryMeter() = default;

  /// Registers a component and returns its handle. Names are for
  /// reporting only and need not be unique (but should be).
  ComponentId Register(std::string name);

  /// Sets the current size of `id` to `words` and updates the peak.
  void Set(ComponentId id, size_t words);

  /// Adds `delta` words to `id` (may not underflow).
  void Add(ComponentId id, size_t delta);

  /// Removes `delta` words from `id`. Requires the component to hold at
  /// least `delta` words.
  void Sub(ComponentId id, size_t delta);

  /// Current total across all components, in words.
  size_t CurrentWords() const { return current_total_; }

  /// Largest value `CurrentWords()` ever reached.
  size_t PeakWords() const { return peak_total_; }

  /// Current size of one component.
  size_t ComponentWords(ComponentId id) const { return sizes_[id]; }

  /// Peak size of one component (independent of when the total peaked).
  size_t ComponentPeakWords(ComponentId id) const { return peaks_[id]; }

  /// Human-readable per-component breakdown of peaks, for bench output.
  std::string BreakdownString() const;

  /// Resets all counts (components stay registered).
  void Reset();

 private:
  std::vector<std::string> names_;
  std::vector<size_t> sizes_;
  std::vector<size_t> peaks_;
  size_t current_total_ = 0;
  size_t peak_total_ = 0;
};

}  // namespace setcover

#endif  // SETCOVER_UTIL_MEMORY_METER_H_
