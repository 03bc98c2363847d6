#ifndef SETCOVER_UTIL_ALLOC_COUNTER_H_
#define SETCOVER_UTIL_ALLOC_COUNTER_H_

#include <cstddef>

namespace setcover::alloc_counter {

/// Live-heap byte counter: the physical side of "space", measured next
/// to the metered words of util/memory_meter.h.
///
/// util/alloc_counter.cc replaces the global `operator new`/`delete`
/// with versions that add and subtract `malloc_usable_size` of every
/// block, so the count includes allocator rounding and container slack
/// — everything the meter leaves out. It is its own CMake target
/// (`setcover_alloc_counter`), linked only into the binaries that
/// measure bytes (alloc_bytes_test, bench_scaling); the library and the
/// tools keep the default allocator. Only C++ allocations are seen: a
/// direct `malloc` or an `mmap` is not.

/// Bytes currently held by live `new` allocations.
size_t LiveBytes();

/// Largest `LiveBytes()` since the last ResetPeak().
size_t PeakBytes();

/// Restarts peak tracking from the current live count.
void ResetPeak();

/// Peak live bytes allocated while `fn` runs, above what was live when
/// it started. Single-threaded use: allocations on other threads during
/// the window are counted too.
template <typename Fn>
size_t PeakBytesDuring(Fn&& fn) {
  const size_t base = LiveBytes();
  ResetPeak();
  fn();
  return PeakBytes() - base;
}

}  // namespace setcover::alloc_counter

#endif  // SETCOVER_UTIL_ALLOC_COUNTER_H_
