// Allocated bytes vs metered words: the paper's space bounds are about
// the state an algorithm carries, and util/memory_meter.h counts that
// state in words. This suite holds each algorithm's *physical* live
// heap to the metered figure, so a dense table the meter writes off as
// "container overhead" (an m-indexed array behind an Õ(m/√n) sample,
// say) fails here instead of hiding in RSS.
//
// The binary links setcover_alloc_counter, which replaces the global
// operator new/delete with a live malloc_usable_size counter.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "instance/generators.h"
#include "stream/orderings.h"
#include "util/alloc_counter.h"
#include "util/rng.h"

namespace setcover {
namespace {

TEST(AllocCounter, CountsLiveNewAllocations) {
  const size_t before = alloc_counter::LiveBytes();
  auto block = std::make_unique<std::vector<char>>(1 << 20);
  EXPECT_GE(alloc_counter::LiveBytes(), before + (1 << 20));
  size_t peak = alloc_counter::PeakBytesDuring([] {
    std::vector<uint64_t> scratch(1 << 16);
    scratch.back() = 1;
  });
  EXPECT_GE(peak, size_t{8} << 16);
  block.reset();
  EXPECT_LE(alloc_counter::LiveBytes(), before);
}

// Seeded planted instance with m = n² sets (Theorem 3's regime),
// streamed in random order; built once per n and shared by every case.
const EdgeStream& PlantedStream(uint32_t n) {
  static std::map<uint32_t, EdgeStream> streams;
  auto it = streams.find(n);
  if (it == streams.end()) {
    Rng rng(4200 + n);
    PlantedCoverParams params;
    params.num_elements = n;
    params.num_sets = n * n;
    params.planted_cover_size = 4;
    params.decoy_min_size = 1;
    params.decoy_max_size = 4;
    auto instance = GeneratePlantedCover(params, rng);
    it = streams.emplace(n, RandomOrderStream(instance, rng)).first;
  }
  return it->second;
}

// The allowance, in bytes, for a run of n elements and m sets that
// metered `peak_words` at its peak:
//
//   4 · 8 · peak_words   Each metered word is 8 bytes. The containers
//                        holding metered items carry at most 3× that
//                        while they grow: a SparseIdMap entry is metered
//                        at 16 bytes and occupies 8-byte slots at load
//                        ≥ ¼ (≤ 32 bytes), and during a rehash the old
//                        half-size array is live too (≤ 48 bytes); a
//                        std::vector reallocating holds old + new (≤ 3×
//                        its size). The fourth factor absorbs malloc's
//                        size-class rounding.
//   + m/8                The m-bit in_solution_ bitset that kk,
//                        adversarial-level and the random-order variants
//                        keep deliberately (random-order's batch screen
//                        gathers from it with SIMD), which no meter
//                        charges.
//   + 64 · n             Unmetered O(n) element bookkeeping: the covered
//                        and marked bitsets, and Finalize's returned
//                        CoverSolution (an n-entry certificate plus a
//                        cover of at most n sets).
size_t AllowedBytes(size_t peak_words, uint32_t n, uint32_t m) {
  return 4 * 8 * peak_words + m / 8 + 64 * size_t{n};
}

class AlgorithmBytes
    : public testing::TestWithParam<std::tuple<std::string, uint32_t>> {};

TEST_P(AlgorithmBytes, PeakHeapWithinMeteredWords) {
  const auto& [name, n] = GetParam();
  const EdgeStream& stream = PlantedStream(n);
  auto algorithm = MakeAlgorithmByName(name, {.seed = 11});
  ASSERT_NE(algorithm, nullptr);

  const size_t peak_bytes = alloc_counter::PeakBytesDuring([&] {
    algorithm->Begin(stream.meta);
    algorithm->ProcessEdgeBatch(stream.edges);
    algorithm->Finalize();
  });
  const size_t peak_words = algorithm->Meter().PeakWords();
  const size_t allowed =
      AllowedBytes(peak_words, n, stream.meta.num_sets);
  EXPECT_LE(peak_bytes, allowed)
      << name << " n=" << n << ": " << peak_bytes << " bytes live at peak vs "
      << peak_words << " metered words ("
      << double(peak_bytes) / double(8 * peak_words)
      << "x the metered bytes)";
}

INSTANTIATE_TEST_SUITE_P(
    Registered, AlgorithmBytes,
    testing::Combine(testing::Values("kk", "adversarial-level",
                                     "random-order", "random-order-sketch",
                                     "random-order-paper",
                                     "set-arrival-threshold",
                                     "random-order-nguess",
                                     "first-set-patching"),
                     testing::Values(256u, 1024u)),
    [](const testing::TestParamInfo<AlgorithmBytes::ParamType>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_n" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace setcover
