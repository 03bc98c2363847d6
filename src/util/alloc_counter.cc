#include "util/alloc_counter.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace setcover::alloc_counter {
namespace {

std::atomic<size_t> live_bytes{0};
std::atomic<size_t> peak_bytes{0};

void* Allocate(size_t size, size_t alignment) {
  if (size == 0) size = 1;
  void* p = alignment <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(alignment,
                                     (size + alignment - 1) / alignment *
                                         alignment);
  if (p == nullptr) return nullptr;
  const size_t usable = malloc_usable_size(p);
  const size_t live =
      live_bytes.fetch_add(usable, std::memory_order_relaxed) + usable;
  size_t peak = peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !peak_bytes.compare_exchange_weak(peak, live,
                                           std::memory_order_relaxed)) {
  }
  return p;
}

void* AllocateOrThrow(size_t size, size_t alignment) {
  void* p = Allocate(size, alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void Release(void* p) {
  if (p == nullptr) return;
  live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

size_t LiveBytes() { return live_bytes.load(std::memory_order_relaxed); }

size_t PeakBytes() { return peak_bytes.load(std::memory_order_relaxed); }

void ResetPeak() {
  peak_bytes.store(live_bytes.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
}

}  // namespace setcover::alloc_counter

// Replacements of every global allocation function ([new.delete]); the
// sized and nothrow forms route to the same two helpers.
using setcover::alloc_counter::Allocate;
using setcover::alloc_counter::AllocateOrThrow;
using setcover::alloc_counter::Release;

void* operator new(size_t size) { return AllocateOrThrow(size, 1); }
void* operator new[](size_t size) { return AllocateOrThrow(size, 1); }
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, 1);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return Allocate(size, 1);
}
void* operator new(size_t size, std::align_val_t al) {
  return AllocateOrThrow(size, size_t(al));
}
void* operator new[](size_t size, std::align_val_t al) {
  return AllocateOrThrow(size, size_t(al));
}
void* operator new(size_t size, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return Allocate(size, size_t(al));
}
void* operator new[](size_t size, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return Allocate(size, size_t(al));
}

void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, size_t) noexcept { Release(p); }
void operator delete[](void* p, size_t) noexcept { Release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}
