#ifndef SETCOVER_CORE_RANDOM_ORDER_H_
#define SETCOVER_CORE_RANDOM_ORDER_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/streaming_algorithm.h"
#include "util/bitset.h"
#include "util/count_min.h"
#include "util/memory_meter.h"
#include "util/rng.h"
#include "util/sparse_id_table.h"
#include "util/types.h"

namespace setcover {

/// Tuning parameters of Algorithm 1 (the random-order algorithm).
///
/// The paper's constants (thresholds like j·log⁶m, schedule K =
/// ½log n − 3 log log m − 2) only activate at astronomically large n and
/// m; the paper itself notes "we have not attempted to minimize the
/// poly-log factors" (§4.2). This struct keeps every *structural* rule
/// of Algorithm 1 intact and exposes the constants:
///
///  * the subepoch schedule keeps the paper's shape — algorithm A(i)
///    consumes a stream share proportional to 2^i, divided evenly over
///    its epochs and √n subepochs — normalized so the main loop uses a
///    `main_budget_fraction` share of the stream instead of the paper's
///    1/log³m sliver;
///  * detection thresholds (heavy elements in epoch 0, forward-degree
///    marking at epoch ends) are derived from the *implemented* schedule
///    with the paper's literal margins 1.085 / 1.1, i.e. threshold =
///    1.085 · (expected count of a just-heavy element), exactly as in
///    Lemma 6's proof;
///  * `PaperFaithful()` switches to the literal constants of the paper
///    (useful to check the code against the listing; at laptop scale the
///    thresholds are then unreachable and the algorithm degenerates to
///    epoch-0 sampling + patching, which is still a valid cover).
///
/// Defaults are calibrated for n in [256, 4096] and m = Θ(n²) — the
/// regime Theorem 3 assumes (m = Ω̃(n²) ∩ poly(n)).
struct RandomOrderParams {
  /// C in the epoch-0 / level sampling probability p_j = min(1, C·2^j·√n·log₂(m)/m).
  double sampling_constant = 0.25;

  /// Extra multiplier on the level inclusion probabilities p_j for
  /// j >= 1 only (p_j = min(1, boost·C·2^j·√n·log₂(m)/m)). The paper
  /// folds this into its single constant C; keeping it separate lets the epoch-0
  /// sample stay small while special sets detected by the counting
  /// machinery are actually included at laptop scale. Paper value: 1.
  double level_inclusion_boost = 16.0;

  /// Share of the stream the main loop (epoch 0 + A(1..K)) may consume;
  /// the rest is the tail pass (lines 33-36). Paper: ≈ 1/log³m.
  double main_budget_fraction = 0.45;

  /// Upper bound on the epoch-0 detection prefix as a stream fraction
  /// (Lemma 2 part 1 needs the prefix to be a small constant fraction).
  double epoch0_fraction_cap = 0.02;

  /// c_q in the tracking rate q_j = min(1, c_q·2^j/n). Paper: c_q = 1;
  /// the default boosts the statistical signal at laptop scale while
  /// keeping the tracked sample at Õ(m/n) ≪ m/√n words.
  double tracking_rate_constant = 4.0;

  /// c_t in the special-set threshold τ_j = max(1, round(j·c_t)).
  /// Paper: c_t = log⁶m.
  double special_threshold_constant = 1.0;

  /// The paper's detection margin: mark when the observed count is at
  /// least `mark_margin` × the expectation of a borderline-heavy element
  /// (1.085 in Lemma 6, between the 1.07 "light" and 1.1 "heavy" rates).
  double mark_margin = 1.085;

  /// Heavy-degree coefficient: an element is heavy in epoch j if its
  /// forward-degree to special sets is ≥ heavy_margin·m/(2^j·√n).
  double heavy_margin = 1.1;

  /// Optimistic marking is skipped when the detection threshold falls
  /// below this count — at that point the statistic is pure noise.
  /// (Skipping only costs space/ratio, never correctness.)
  double min_mark_threshold = 3.0;

  /// K = number of algorithms A(i). 0 = auto: the paper's
  /// ½log₂n − 3·log₂log₂m − 2 when positive, else min(3, ½log₂n − 2)
  /// clamped to ≥ 1.
  uint32_t num_algorithms = 0;

  /// J = epochs per algorithm. 0 = auto: min(6, log₂m − ½log₂n)
  /// clamped to ≥ 1 (the paper uses the unclamped value).
  uint32_t num_epochs = 0;

  /// When true, epoch-0 heavy-element detection counts occurrences in a
  /// Count-Min sketch instead of an n-word exact array. The sketch only
  /// overcounts, so extra elements may be optimistically marked (and
  /// later patched) — correctness is unaffected; space trades n words
  /// for Õ(N·√n/m) cells, a win once n ≫ (N/m)·√n·polylog. The paper's
  /// listing uses exact counters; this is the library's engineering
  /// alternative, compared in the ablation bench.
  bool use_sketch_epoch0 = false;

  /// Width multiplier for the epoch-0 sketch (cells = factor·N·√n/m).
  double sketch_width_factor = 16.0;

  /// When true, Begin() derives every schedule quantity and threshold
  /// from the paper's literal formulas instead of the calibrated ones.
  bool paper_faithful = false;

  /// Literal paper constants (see above).
  static RandomOrderParams PaperFaithful();
};

/// Per-epoch instrumentation used by the invariants benchmark (I1-I3,
/// Lemma 8): how many sets turned special, how many were added to the
/// solution, tracking pressure, and optimistic marking activity.
struct RandomOrderEpochStats {
  uint32_t algorithm_index = 0;  // i, 1-based
  uint32_t epoch = 0;            // j, 1-based
  size_t special_sets = 0;       // sets whose counter hit τ_j
  size_t added_to_solution = 0;  // of those, sampled into Sol (p_j)
  size_t sampled_for_tracking = 0;  // of those, sampled into Q̃' (q_j)
  size_t tracked_sets = 0;       // |Q̃| during this epoch
  size_t tracked_edges = 0;      // edges recorded into T this epoch
  size_t optimistically_marked = 0;  // elements marked at epoch end
  double mark_threshold = 0.0;   // τ used at epoch end (0 = skipped)
};

/// Whole-run instrumentation.
struct RandomOrderStats {
  size_t epoch0_sampled = 0;  // |Sol| after line 6
  size_t epoch0_marked = 0;   // heavy elements marked in epoch 0
  std::vector<RandomOrderEpochStats> epochs;
  /// Every probabilistic Sol addition with its stream position — the raw
  /// material for the missed-edge measurements (I2).
  std::vector<std::pair<SetId, size_t>> additions;
  size_t tail_witnessed = 0;  // elements first witnessed in the tail
  size_t marked_without_witness = 0;  // at Finalize (missed-edge victims)
  size_t patched = 0;  // sets added by the patching phase (line 38)
  /// Elements whose certificate came from the patching phase — the
  /// elements whose covering edges the algorithm "missed" (I2).
  std::vector<ElementId> patched_elements;
};

/// Algorithm 1 (Theorem 3): the one-pass Õ(√n)-approximation for
/// *random-order* edge streams using space Õ(m/√n) — the paper's main
/// result, which together with the Theorem 2 lower bound separates the
/// random-order from the adversarial-order model.
///
/// Structure (paper §4.1, Algorithm 1):
///   * the set family is split into √n batches of m/√n sets; only one
///     batch has live counters at any time, which is where the space
///     saving over the KK algorithm comes from;
///   * epoch 0 samples each set into Sol w.p. p₀ and marks elements of
///     degree ≥ 1.1·m/√n by counting occurrences in a short prefix
///     (they are covered by the epoch-0 sample w.h.p., so marking them
///     is safe "optimism");
///   * algorithms A(1..K) run in sequence; A(i) is responsible for sets
///     that still cover ≈ n/2^i uncovered elements, and consumes a
///     stream share ∝ 2^i so that such sets produce a detectable count
///     signal before their elements are gone (§1.2 "Techniques");
///   * within A(i), epoch j counts, for each set of the current batch,
///     edges to unmarked elements; a set reaching τ_j is *special* and
///     enters Sol w.p. p_j = 2^j·p₀ and the tracking sample Q̃' w.p.
///     q_j; epoch j+1 tracks edges incident to Q̃ (the previous epoch's
///     sample) and marks elements whose tracked count certifies a heavy
///     forward-degree to special sets — the paper's replacement for the
///     coverage monotonicity that the KK algorithm gets for free;
///   * after A(K), the tail pass only records witnesses for Sol sets,
///     and the patching phase covers anything left with its first
///     incident set R(u).
///
/// Correctness (a valid cover + certificate) holds for any arrival
/// order and any parameters; the space/ratio guarantees are what the
/// random order buys.
class RandomOrderAlgorithm : public StreamingSetCoverAlgorithm {
 public:
  explicit RandomOrderAlgorithm(uint64_t seed, RandomOrderParams params = {});

  std::string Name() const override { return "random-order"; }
  void Begin(const StreamMetadata& meta) override;
  void ProcessEdge(const Edge& edge) override;
  void ProcessEdgeBatch(std::span<const Edge> edges) override;
  CoverSolution Finalize() override;
  const MemoryMeter& Meter() const override { return meter_; }
  void EncodeState(StateEncoder* encoder) const override;
  bool DecodeState(const StreamMetadata& meta,
                   const std::vector<uint64_t>& words) override;
  size_t StateWords() const override;

  /// Instrumentation for the invariants bench. Valid after Finalize().
  const RandomOrderStats& Stats() const { return stats_; }

  /// Schedule actually in effect (valid after Begin()).
  uint32_t NumAlgorithms() const { return num_algorithms_; }
  uint32_t NumEpochs() const { return num_epochs_; }
  uint32_t NumBatches() const { return num_batches_; }
  size_t SubepochLength(uint32_t i) const;  // ℓ_i, i in [1, K]

 private:
  enum class Phase { kEpoch0, kMain, kTail };

  inline void ProcessEdgeImpl(const Edge& edge);
  void AddToSolution(SetId s);
  void StartAlgorithm(uint32_t i);  // sample fresh Q̃ (line 10)
  void StartEpoch();                // reset T, Q̃' (lines 13-14)
  void StartSubepoch();             // reset batch counters (line 17)
  void EndEpoch();                  // marking rule (line 31) + rotation
  void Advance();                   // position & phase bookkeeping
  double TrackingRate(uint32_t j) const;    // q_j
  double InclusionProbability(uint32_t j) const;  // p_j
  uint32_t SpecialThreshold(uint32_t j) const;    // τ_j
  double MarkThreshold() const;     // τ for line 31 at current (i, j)

  uint64_t seed_;
  RandomOrderParams params_;
  Rng rng_;
  StreamMetadata meta_;

  // Schedule.
  uint32_t num_algorithms_ = 1;  // K
  uint32_t num_epochs_ = 1;      // J
  uint32_t num_batches_ = 1;     // √n
  uint32_t batch_size_ = 1;      // ⌈m/√n⌉
  size_t epoch0_length_ = 0;
  std::vector<size_t> subepoch_length_;  // ℓ_i, index 1..K
  double p0_ = 0.0;

  // Cursor.
  Phase phase_ = Phase::kTail;
  size_t position_ = 0;          // stream position (edges seen)
  size_t phase_remaining_ = 0;   // edges left in the current subepoch
  uint32_t cur_algorithm_ = 0;   // i
  uint32_t cur_epoch_ = 0;       // j
  uint32_t cur_batch_ = 0;       // k
  size_t main_remaining_ = 0;    // hard budget for the main loop
  double cur_tracked_rate_ = 0.0;  // rate at which current Q̃ was drawn

  // Element state (Õ(n), lines 3-4).
  DynamicBitset marked_;
  std::vector<SetId> first_set_;  // R(u)
  std::vector<SetId> witness_;    // covering certificate
  std::vector<uint32_t> epoch0_degree_;
  std::unique_ptr<CountMinSketch> epoch0_sketch_;

  // Solution. in_solution_ is the one m-sized structure: m bits (128 KiB
  // at m = 2²⁰, unmetered), kept dense because ProcessEdgeBatch screens
  // each chunk with a SIMD gather over it.
  DynamicBitset in_solution_;
  std::vector<SetId> solution_order_;

  // Tracking machinery — Õ(m/√n) entries, held in open-addressing
  // tables sized to that population (util/sparse_id_table.h), so the
  // bytes they allocate track what the meter charges and EncodeState
  // carries: 2 words per tracked set and per (element, count) entry.
  SparseIdSet tracked_;                     // Q̃
  SparseIdSet tracked_next_;                // Q̃'
  SparseIdMap<uint32_t> tracking_counts_;   // T
  std::vector<uint32_t> batch_counters_;    // C[·] for the live batch

  RandomOrderStats stats_;
  RandomOrderEpochStats cur_epoch_stats_;

  MemoryMeter meter_;
  MemoryMeter::ComponentId element_state_words_;
  MemoryMeter::ComponentId epoch0_words_;
  MemoryMeter::ComponentId solution_words_;
  MemoryMeter::ComponentId tracked_words_;
  MemoryMeter::ComponentId tracking_counts_words_;
  MemoryMeter::ComponentId batch_counter_words_;
};

}  // namespace setcover

#endif  // SETCOVER_CORE_RANDOM_ORDER_H_
