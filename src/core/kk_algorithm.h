#ifndef SETCOVER_CORE_KK_ALGORITHM_H_
#define SETCOVER_CORE_KK_ALGORITHM_H_

#include <cstdint>
#include <vector>

#include "core/streaming_algorithm.h"
#include "util/bitset.h"
#include "util/memory_meter.h"
#include "util/rng.h"
#include "util/types.h"

namespace setcover {

/// Tuning knobs for the KK algorithm. The defaults implement the paper's
/// rule exactly; `inclusion_constant` scales the inclusion probability
/// (the paper's hidden constant) and is exposed for the ablation bench.
struct KkParams {
  /// Multiplies the inclusion probability 2^i √n / m.
  double inclusion_constant = 1.0;
};

/// The KK algorithm (Theorem 1; Khanna & Konrad, ITCS'22): the
/// adversarial-order Õ(√n)-approximation with Õ(m) space that this
/// paper's results are measured against.
///
/// For every set S the algorithm maintains its *uncovered-degree* d(S):
/// the number of stream edges (S, u) seen while u was still uncovered.
/// Whenever d(S) reaches i·√n for an integer i >= 1, S is included in
/// the solution with probability min(1, 2^i·√n/m); an included set
/// covers all of its elements that arrive from that point on. Elements
/// left uncovered at the end are patched with the first set R(u) that
/// contained them.
///
/// Space: m words of degree counters + Õ(n) element state = Õ(m) (the
/// paper's Theorem 2 shows this is optimal for Õ(√n)-approximation in
/// adversarial order). The per-level set counts that drive the paper's
/// analysis (E|S_i| <= ½ E|S_{i-1}|, §1.2) are exposed through
/// `LevelHistogram()` for the level-decay benchmark.
///
/// Hot-path layout: solution membership and element coverage are dense
/// bitsets (one indexed load per edge) rather than hash probes. KK's
/// state is Θ(m) anyway, so the m-bit membership bitset costs nothing
/// asymptotically; the meter charges per-item word costs (see
/// util/memory_meter.h on container overhead).
class KkAlgorithm : public StreamingSetCoverAlgorithm {
 public:
  explicit KkAlgorithm(uint64_t seed, KkParams params = {});

  std::string Name() const override { return "kk"; }
  void Begin(const StreamMetadata& meta) override;
  void ProcessEdge(const Edge& edge) override;
  void ProcessEdgeBatch(std::span<const Edge> edges) override;
  CoverSolution Finalize() override;
  const MemoryMeter& Meter() const override { return meter_; }
  void EncodeState(StateEncoder* encoder) const override;
  bool DecodeState(const StreamMetadata& meta,
                   const std::vector<uint64_t>& words) override;
  size_t StateWords() const override;

  /// Histogram of final levels: entry i counts the sets whose
  /// uncovered-degree ended in [i·√n, (i+1)·√n). Valid after Finalize().
  std::vector<size_t> LevelHistogram() const;

  /// Number of sets included by the probabilistic process (before
  /// patching). Valid after Finalize().
  size_t SampledCoverSize() const { return solution_order_.size(); }

 private:
  void MaybeInclude(SetId s, uint32_t level);
  inline void ProcessEdgeImpl(const Edge& edge);

  uint64_t seed_;
  KkParams params_;
  Rng rng_;
  StreamMetadata meta_;
  uint32_t sqrt_n_ = 1;

  std::vector<uint32_t> uncovered_degree_;  // d(S), m words
  // next_threshold_[s] is the next level boundary i·√n that d(S) has
  // not reached yet, so the hot path is a single equality compare
  // instead of a modulo. Derived accelerator state (a pure function of
  // uncovered_degree_ and √n, rebuilt in DecodeState), hence unmetered.
  // It is 4 bytes per set next to d(S)'s 4, inside the 8 bytes per set
  // the meter charges for d(S), so KK's allocated bytes still match its
  // metered words (tests/alloc_bytes_test.cc).
  std::vector<uint32_t> next_threshold_;
  std::vector<SetId> first_set_;            // R(u), n words
  std::vector<SetId> certificate_;          // C(u), n words
  DynamicBitset covered_;                   // U, n bits
  DynamicBitset in_solution_;               // membership, m bits
  std::vector<SetId> solution_order_;

  MemoryMeter meter_;
  MemoryMeter::ComponentId degrees_words_;
  MemoryMeter::ComponentId element_state_words_;
  MemoryMeter::ComponentId solution_words_;
};

}  // namespace setcover

#endif  // SETCOVER_CORE_KK_ALGORITHM_H_
