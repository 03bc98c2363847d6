// Experiment F10 — space-scaling exponents. Table 1's rows are
// asymptotic laws; this bench fits them. With m = n², the predicted
// peak-space growth per n-doubling is:
//
//   KK:            Θ(m)      = Θ(n²)    → 4.0× per doubling
//   Algorithm 2:   Θ(m·n/α²) = Θ(n)·polylog at α = Θ(√n) → ~2×
//   Algorithm 1:   Θ(m/√n)   = Θ(n^1.5) → ~2.83×
//   patching:      Θ(n)      → 2×
//
// Counters report measured peak words at each n and the ratio to the
// previous n (the per-doubling growth factor). The *ordering* of the
// measured exponents — patch < alg2 < alg1 < kk — is the quantitative
// content of Table 1's space column.
//
// Next to each metered peak sits the physical one: `bytes_n<k>` is the
// peak live heap (util/alloc_counter.h, the hook tests/alloc_bytes_test
// asserts with) from Begin to Finalize, and `bytes_per_word_n<k>` its
// ratio to the metered words — 8 when every allocated byte is metered,
// higher where containers carry slack or unmetered tables.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "core/adversarial_level.h"
#include "core/kk_algorithm.h"
#include "core/random_order.h"
#include "core/trivial.h"
#include "util/alloc_counter.h"

namespace setcover {
namespace {

using bench::PlantedWorkload;

enum Kind { kKkKind, kAlg2Kind, kAlg1Kind, kPatchKind };

const char* KindName(Kind kind) {
  switch (kind) {
    case kKkKind:
      return "kk_theta_m";
    case kAlg2Kind:
      return "alg2_theta_mn_over_a2";
    case kAlg1Kind:
      return "alg1_theta_m_over_sqrtn";
    case kPatchKind:
      return "patch_theta_n";
  }
  return "?";
}

struct Peak {
  size_t words = 0;
  size_t bytes = 0;
};

// One run driven directly, so the byte window holds the algorithm's own
// allocations and none of the engine's or the validator's. Aborts on an
// invalid cover: a bench must never report numbers for a broken run.
Peak Measure(StreamingSetCoverAlgorithm& algorithm,
             const SetCoverInstance& instance, const EdgeStream& stream) {
  CoverSolution solution;
  Peak peak;
  peak.bytes = alloc_counter::PeakBytesDuring([&] {
    algorithm.Begin(stream.meta);
    algorithm.ProcessEdgeBatch(stream.edges);
    solution = algorithm.Finalize();
  });
  peak.words = algorithm.Meter().PeakWords();
  const ValidationResult validation = ValidateSolution(instance, solution);
  if (!validation.ok) {
    std::fprintf(stderr, "bench: %s produced invalid cover: %s\n",
                 algorithm.Name().c_str(), validation.error.c_str());
    std::abort();
  }
  return peak;
}

Peak PeakFor(Kind kind, uint32_t n, uint64_t seed) {
  const uint32_t m = n * n;
  auto instance = PlantedWorkload(n, m, /*opt=*/4, /*seed=*/1700 + n);
  Rng rng(1800 + n);
  auto stream = RandomOrderStream(instance, rng);
  switch (kind) {
    case kKkKind: {
      KkAlgorithm algorithm(seed);
      return Measure(algorithm, instance, stream);
    }
    case kAlg2Kind: {
      AdversarialLevelParams params;
      params.alpha = 2.0 * std::sqrt(double(n));
      AdversarialLevelAlgorithm algorithm(seed, params);
      return Measure(algorithm, instance, stream);
    }
    case kAlg1Kind: {
      RandomOrderAlgorithm algorithm(seed);
      return Measure(algorithm, instance, stream);
    }
    case kPatchKind: {
      FirstSetPatching algorithm;
      return Measure(algorithm, instance, stream);
    }
  }
  return {};
}

void BM_SpaceScaling(benchmark::State& state) {
  const Kind kind = static_cast<Kind>(state.range(0));
  const uint32_t sizes[] = {128, 256, 512, 1024};
  Peak peaks[4];
  for (auto _ : state) {
    for (int i = 0; i < 4; ++i) peaks[i] = PeakFor(kind, sizes[i], 7);
  }
  state.SetLabel(KindName(kind));
  for (int i = 0; i < 4; ++i) {
    const std::string n = std::to_string(sizes[i]);
    state.counters["peak_n" + n] = double(peaks[i].words);
    state.counters["bytes_n" + n] = double(peaks[i].bytes);
    state.counters["bytes_per_word_n" + n] =
        double(peaks[i].bytes) / double(peaks[i].words);
  }
  // Per-doubling growth factors and the fitted log₂-slope over the
  // whole range (the scaling exponent in n).
  for (int i = 1; i < 4; ++i) {
    state.counters["growth_" + std::to_string(sizes[i])] =
        double(peaks[i].words) / double(peaks[i - 1].words);
  }
  state.counters["fitted_exponent"] =
      std::log2(double(peaks[3].words) / double(peaks[0].words)) / 3.0;
  // Space exponents don't depend on the host, but stamping the core
  // count into every scaling row keeps the committed baselines
  // self-describing: the check.sh gate compares host-sensitive rows
  // only between hosts with matching num_cpus.
  state.counters["num_cpus"] = double(std::thread::hardware_concurrency());
}

BENCHMARK(BM_SpaceScaling)
    ->DenseRange(kKkKind, kPatchKind)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace setcover

BENCHMARK_MAIN();
