// State serialization round-trip tests: continuing a decoded instance
// must be bit-identical to continuing the original — the property that
// makes the message-passing reduction equivalent to replay.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comm/reduction.h"
#include "core/adversarial_level.h"
#include "core/kk_algorithm.h"
#include "core/random_order.h"
#include "core/registry.h"
#include "core/trivial.h"
#include "instance/generators.h"
#include "instance/validator.h"
#include "stream/orderings.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace setcover {
namespace {

class RestoreSweep : public testing::TestWithParam<std::string> {};

TEST_P(RestoreSweep, ResumedRunMatchesUninterruptedRun) {
  Rng rng(1);
  PlantedCoverParams p;
  p.num_elements = 96;
  p.num_sets = 512;
  p.planted_cover_size = 4;
  auto inst = GeneratePlantedCover(p, rng);
  auto stream = RandomOrderStream(inst, rng);

  for (double cut_fraction : {0.0, 0.33, 0.8, 1.0}) {
    size_t cut = size_t(double(stream.size()) * cut_fraction);

    // Reference: uninterrupted run, snapshotting at the cut.
    auto reference = MakeAlgorithmByName(GetParam(), {.seed = 7});
    reference->Begin(stream.meta);
    for (size_t i = 0; i < cut; ++i) {
      reference->ProcessEdge(stream.edges[i]);
    }
    StateEncoder encoder;
    reference->EncodeState(&encoder);

    // Resumed: a fresh instance reconstructed purely from the words.
    auto resumed = MakeAlgorithmByName(GetParam(), {.seed = 999});
    ASSERT_TRUE(resumed->DecodeState(stream.meta, encoder.Words()))
        << GetParam() << " cut at " << cut_fraction;

    for (size_t i = cut; i < stream.size(); ++i) {
      reference->ProcessEdge(stream.edges[i]);
      resumed->ProcessEdge(stream.edges[i]);
    }
    auto reference_solution = reference->Finalize();
    auto resumed_solution = resumed->Finalize();
    EXPECT_EQ(resumed_solution.cover, reference_solution.cover)
        << GetParam() << " cut at " << cut_fraction;
    EXPECT_EQ(resumed_solution.certificate, reference_solution.certificate)
        << GetParam() << " cut at " << cut_fraction;
  }
}

TEST_P(RestoreSweep, RejectsMalformedMessages) {
  StreamMetadata meta{64, 32, 128};
  auto algorithm = MakeAlgorithmByName(GetParam(), {.seed = 1});
  EXPECT_FALSE(algorithm->DecodeState(meta, {1, 2, 3}));
  EXPECT_FALSE(algorithm->DecodeState(meta, {}));
  // The instance must remain usable after a failed decode.
  algorithm->Begin(meta);
  algorithm->ProcessEdge({0, 0});
  auto solution = algorithm->Finalize();
  EXPECT_LE(solution.cover.size(), 64u);
}

INSTANTIATE_TEST_SUITE_P(
    Restorable, RestoreSweep,
    testing::Values("kk", "adversarial-level", "random-order",
                    "first-set-patching"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// Word offset of the first id in the sparse table a state message
// carries: adversarial-level's level map L, or random-order's tracking
// sample Q̃. Walks the EncodeState layouts; the word before it is the
// table's entry count.
size_t FirstSparseIdWord(const std::string& algorithm,
                         const StreamMetadata& meta,
                         const std::vector<uint64_t>& words) {
  if (algorithm == "adversarial-level") return 4 + 1;  // RNG, count
  size_t at = 12;  // RNG, tracked rate, cursor scalars
  at += EncodedBoolVectorWords(meta.num_elements);  // marked
  for (int field = 0; field < 3; ++field) {  // first_set, witness, degrees
    at += EncodedU32VectorWords(words[at]);
  }
  at += 1;  // sketch flag (exact counters: 0)
  at += EncodedU32VectorWords(words[at]);  // solution
  return at + 1;  // Q̃'s count word, then its ids two per word
}

// The sparse tables store any key but their empty marker without
// complaint, so for an out-of-range id in a forged state message
// DecodeState's range check is the only guard. A message patched to carry set id m, or kNoSet (the
// tables' empty marker), must be refused, and the instance must run
// exactly as a fresh one afterwards.
class ForgedSparseIds : public testing::TestWithParam<std::string> {};

TEST_P(ForgedSparseIds, OutOfRangeIdIsRejected) {
  Rng rng(3);
  PlantedCoverParams p;
  p.num_elements = 256;
  p.num_sets = 4096;
  p.planted_cover_size = 4;
  auto inst = GeneratePlantedCover(p, rng);
  auto stream = RandomOrderStream(inst, rng);

  auto reference = MakeAlgorithmByName(GetParam(), {.seed = 7});
  reference->Begin(stream.meta);
  for (size_t i = 0; i < stream.size() / 4; ++i) {
    reference->ProcessEdge(stream.edges[i]);
  }
  StateEncoder encoder;
  reference->EncodeState(&encoder);
  const std::vector<uint64_t>& words = encoder.Words();
  const size_t at = FirstSparseIdWord(GetParam(), stream.meta, words);
  ASSERT_LT(at, words.size());
  ASSERT_GT(words[at - 1], 0u) << "the cut must leave the table non-empty";
  ASSERT_LT(words[at] & 0xFFFFFFFFu, stream.meta.num_sets);
  ASSERT_TRUE(MakeAlgorithmByName(GetParam(), {.seed = 7})
                  ->DecodeState(stream.meta, words));

  auto fresh = MakeAlgorithmByName(GetParam(), {.seed = 7});
  fresh->Begin(stream.meta);
  for (const Edge& edge : stream.edges) fresh->ProcessEdge(edge);
  const CoverSolution expected = fresh->Finalize();

  for (uint32_t forged_id : {stream.meta.num_sets, kNoSet}) {
    std::vector<uint64_t> forged = words;
    forged[at] = (forged[at] & ~uint64_t{0xFFFFFFFF}) | forged_id;
    auto victim = MakeAlgorithmByName(GetParam(), {.seed = 7});
    EXPECT_FALSE(victim->DecodeState(stream.meta, forged))
        << GetParam() << " accepted id " << forged_id;

    victim->Begin(stream.meta);
    for (const Edge& edge : stream.edges) victim->ProcessEdge(edge);
    const CoverSolution solution = victim->Finalize();
    EXPECT_TRUE(ValidateSolution(inst, solution).ok);
    EXPECT_EQ(solution.cover, expected.cover) << GetParam();
    EXPECT_EQ(solution.certificate, expected.certificate) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    SparseTables, ForgedSparseIds,
    testing::Values("adversarial-level", "random-order"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(MessagePassingReductionTest, MatchesReplayReduction) {
  Rng rng(2);
  auto family = Lemma1Family::Build(400, 4, 12, rng);
  AlgorithmFactory kk = [](uint64_t seed) {
    return std::make_unique<KkAlgorithm>(seed);
  };
  for (bool intersecting : {false, true}) {
    Rng gen(intersecting ? 3u : 4u);
    auto disj = intersecting
                    ? GenerateIntersectingInstance(4, 12, 3, gen)
                    : GenerateDisjointInstance(4, 12, 3, gen);
    auto replay = RunTheorem2Reduction(family, disj, kk, 11);
    auto message = RunTheorem2ReductionMessagePassing(family, disj, kk, 11);
    ASSERT_TRUE(message.message_passing_ok);
    EXPECT_EQ(replay.min_estimate, message.min_estimate);
    EXPECT_EQ(replay.argmin_fork, message.argmin_fork);
    EXPECT_EQ(replay.disjoint_case_opt_lower_bound,
              message.disjoint_case_opt_lower_bound);
    EXPECT_EQ(message.boundary_state_words.size(), 3u);
  }
}

TEST(MessagePassingReductionTest, ReportsUnsupportedAlgorithms) {
  Rng rng(5);
  auto family = Lemma1Family::Build(100, 2, 4, rng);
  auto disj = GenerateDisjointInstance(2, 4, 2, rng);
  // Every registered algorithm decodes now, so fake one that refuses.
  class UndecodableAlgorithm : public StoreEverythingGreedy {
   public:
    bool DecodeState(const StreamMetadata&,
                     const std::vector<uint64_t>&) override {
      return false;
    }
  };
  AlgorithmFactory unsupported = [](uint64_t) {
    return std::make_unique<UndecodableAlgorithm>();
  };
  auto result =
      RunTheorem2ReductionMessagePassing(family, disj, unsupported, 1);
  EXPECT_FALSE(result.message_passing_ok);
}

TEST(MessagePassingReductionTest, MessageSizesAreLiteralEncodings) {
  Rng rng(6);
  auto family = Lemma1Family::Build(400, 4, 12, rng);
  auto disj = GenerateDisjointInstance(4, 12, 3, rng);
  AlgorithmFactory kk = [](uint64_t seed) {
    return std::make_unique<KkAlgorithm>(seed);
  };
  auto result = RunTheorem2ReductionMessagePassing(family, disj, kk, 7);
  ASSERT_TRUE(result.message_passing_ok);
  // KK state ≈ m degrees (packed 2/word) + element state: all
  // boundaries carry (m+1)/2 + ~3n/2-ish words, certainly > m/4.
  for (size_t words : result.boundary_state_words) {
    EXPECT_GT(words, size_t{family.m()} / 4);
  }
}

}  // namespace
}  // namespace setcover
