// Failure-injection / robustness sweep: every registered algorithm is
// subjected to malformed-but-legal stream conditions — duplicated
// edges, infeasible instances (elements that never arrive), wildly
// wrong N metadata, empty sets, extreme shapes — and must never crash,
// never emit an out-of-range id, and always certify what it claims to
// cover.

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "engine/engine.h"
#include "instance/generators.h"
#include "instance/validator.h"
#include "stream/fault_injector.h"
#include "stream/orderings.h"
#include "util/rng.h"

#include "per_edge_oracle.h"

namespace setcover {
namespace {

// Weaker validity: certificates that exist must be sound (in-cover and
// element-containing), but elements may be uncovered (for infeasible
// inputs).
void ExpectPartialSolutionSound(const SetCoverInstance& inst,
                                const CoverSolution& solution,
                                const std::string& context) {
  ASSERT_EQ(solution.certificate.size(), inst.NumElements()) << context;
  std::vector<bool> in_cover(inst.NumSets(), false);
  for (SetId s : solution.cover) {
    ASSERT_LT(s, inst.NumSets()) << context;
    EXPECT_FALSE(in_cover[s]) << context << ": duplicate set in cover";
    in_cover[s] = true;
  }
  for (ElementId u = 0; u < inst.NumElements(); ++u) {
    SetId w = solution.certificate[u];
    if (w == kNoSet) continue;
    ASSERT_LT(w, inst.NumSets()) << context;
    EXPECT_TRUE(in_cover[w]) << context;
    EXPECT_TRUE(inst.Contains(w, u)) << context;
  }
}

class RobustnessSweep : public testing::TestWithParam<std::string> {};

TEST_P(RobustnessSweep, SurvivesDuplicatedEdges) {
  Rng rng(11);
  UniformRandomParams p;
  p.num_elements = 50;
  p.num_sets = 60;
  auto inst = GenerateUniformRandom(p, rng);
  auto stream = RandomOrderStream(inst, rng);
  // Triple every edge, reshuffle.
  std::vector<Edge> tripled;
  for (const Edge& e : stream.edges) {
    tripled.push_back(e);
    tripled.push_back(e);
    tripled.push_back(e);
  }
  rng.Shuffle(tripled);
  EdgeStream noisy = MakeStream(inst, std::move(tripled));

  auto algorithm = MakeAlgorithmByName(GetParam(), {.seed = 3});
  auto solution = RunStream(*algorithm, noisy);
  auto check = ValidateSolution(inst, solution);
  EXPECT_TRUE(check.ok) << GetParam() << ": " << check.error;
}

TEST_P(RobustnessSweep, SurvivesInfeasibleInstances) {
  // Element 49 is in no set; everything else must still be certified.
  std::vector<std::vector<ElementId>> sets(30);
  Rng rng(13);
  for (auto& set : sets) set = rng.RandomSubset(49, 4);
  auto inst = SetCoverInstance::FromSets(50, std::move(sets));
  // Patch coverage of 0..48 manually to keep the rest feasible.
  auto stream = RandomOrderStream(inst, rng);

  auto algorithm = MakeAlgorithmByName(GetParam(), {.seed = 5});
  auto solution = RunStream(*algorithm, stream);
  ExpectPartialSolutionSound(inst, solution, GetParam());
  EXPECT_EQ(solution.certificate[49], kNoSet) << GetParam();
}

TEST_P(RobustnessSweep, SurvivesWrongStreamLengthMetadata) {
  Rng rng(17);
  PlantedCoverParams p;
  p.num_elements = 64;
  p.num_sets = 256;
  p.planted_cover_size = 4;
  auto inst = GeneratePlantedCover(p, rng);
  auto stream = RandomOrderStream(inst, rng);
  for (size_t fake_n : {size_t{1}, size_t{10} * stream.size()}) {
    auto algorithm = MakeAlgorithmByName(GetParam(), {.seed = 7});
    StreamMetadata meta = stream.meta;
    meta.stream_length = fake_n;
    algorithm->Begin(meta);
    for (const Edge& e : stream.edges) algorithm->ProcessEdge(e);
    auto solution = algorithm->Finalize();
    auto check = ValidateSolution(inst, solution);
    EXPECT_TRUE(check.ok)
        << GetParam() << " with N=" << fake_n << ": " << check.error;
  }
}

TEST_P(RobustnessSweep, SurvivesEmptyAndSingletonExtremes) {
  // All-empty sets except one giant set; plus a 1×1 instance.
  std::vector<std::vector<ElementId>> sets(20);
  sets[7].resize(30);
  for (ElementId u = 0; u < 30; ++u) sets[7][u] = u;
  auto giant = SetCoverInstance::FromSets(30, std::move(sets));
  Rng rng(19);
  auto stream = RandomOrderStream(giant, rng);
  auto algorithm = MakeAlgorithmByName(GetParam(), {.seed = 9});
  auto solution = RunStream(*algorithm, stream);
  auto check = ValidateSolution(giant, solution);
  EXPECT_TRUE(check.ok) << GetParam() << ": " << check.error;
  // Probabilistic samplers may carry a few extra (useless) sampled
  // sets, but the cover must stay tiny — every element lives in set 7.
  EXPECT_GE(solution.cover.size(), 1u) << GetParam();
  EXPECT_LE(solution.cover.size(), 20u) << GetParam();

  auto tiny = SetCoverInstance::FromSets(1, {{0}});
  auto tiny_stream = RandomOrderStream(tiny, rng);
  auto algorithm2 = MakeAlgorithmByName(GetParam(), {.seed = 9});
  auto tiny_solution = RunStream(*algorithm2, tiny_stream);
  EXPECT_TRUE(ValidateSolution(tiny, tiny_solution).ok) << GetParam();
}

TEST_P(RobustnessSweep, SurvivesHighMultiplicityElement) {
  // One element in every set (a universal element) — stress for degree
  // counters and heavy-element detection.
  std::vector<std::vector<ElementId>> sets(200);
  Rng rng(23);
  for (auto& set : sets) {
    set = rng.RandomSubset(63, 3);
    set.push_back(63);
  }
  auto inst = SetCoverInstance::FromSets(64, std::move(sets));
  auto stream = RandomOrderStream(inst, rng);
  auto algorithm = MakeAlgorithmByName(GetParam(), {.seed = 11});
  auto solution = RunStream(*algorithm, stream);
  auto check = ValidateSolution(inst, solution);
  EXPECT_TRUE(check.ok) << GetParam() << ": " << check.error;
}

TEST_P(RobustnessSweep, SurvivesEveryFaultKindUnderSupervision) {
  // Dirty-stream torture: transient failures, duplicates, drops and
  // corrupt records all firing, several fixed fault seeds. Supervised
  // runs must complete, stay in range, and certify soundly — dropped
  // records may legitimately leave elements uncovered, nothing more.
  Rng rng(29);
  UniformRandomParams p;
  p.num_elements = 50;
  p.num_sets = 70;
  auto inst = GenerateUniformRandom(p, rng);
  auto stream = RandomOrderStream(inst, rng);

  for (uint64_t fault_seed : {uint64_t{1}, uint64_t{77}, uint64_t{4242}}) {
    engine::RunConfig config;
    config.algorithm = GetParam();
    config.options.seed = 15;
    config.source = engine::SourceSpec::InMemory(stream);
    config.faults = FaultSchedule::AllKinds(fault_seed, 0.05);
    engine::RunReport report = engine::Execute(config);

    // What the injector did, read off the per-edge oracle.
    VectorEdgeSource base(stream);
    FaultInjector source(&base, *config.faults);
    auto oracle = MakeAlgorithmByName(GetParam(), {.seed = 15});
    RunPerEdgeOracle(*oracle, source);

    const std::string context =
        GetParam() + " fault_seed=" + std::to_string(fault_seed);
    ASSERT_TRUE(report.completed) << context << ": " << report.error;
    EXPECT_FALSE(report.degraded) << context;
    ExpectPartialSolutionSound(inst, report.solution, context);
    // Accounting lines up with what the injector actually did.
    EXPECT_EQ(report.corrupt_records_skipped,
              source.DeliveredFaults(FaultKind::kCorrupt))
        << context;
    EXPECT_EQ(report.edges_delivered,
              stream.size() + source.DeliveredFaults(FaultKind::kDuplicate) -
                  source.DeliveredFaults(FaultKind::kDrop) -
                  source.DeliveredFaults(FaultKind::kCorrupt))
        << context;
  }
}

TEST_P(RobustnessSweep, FaultSweepIsDeterministic) {
  // The same fault seed must yield the identical cover twice — the
  // property checkpoint resume builds on.
  Rng rng(31);
  UniformRandomParams p;
  p.num_elements = 40;
  p.num_sets = 50;
  auto inst = GenerateUniformRandom(p, rng);
  auto stream = RandomOrderStream(inst, rng);

  CoverSolution first, second;
  for (int round = 0; round < 2; ++round) {
    engine::RunConfig config;
    config.algorithm = GetParam();
    config.options.seed = 8;
    config.source = engine::SourceSpec::InMemory(stream);
    config.faults = FaultSchedule::AllKinds(55, 0.06);
    engine::RunReport report = engine::Execute(config);
    ASSERT_TRUE(report.completed) << GetParam() << ": " << report.error;
    (round == 0 ? first : second) = report.solution;
  }
  EXPECT_EQ(first.cover, second.cover) << GetParam();
  EXPECT_EQ(first.certificate, second.certificate) << GetParam();
}

std::string SweepName(const testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, RobustnessSweep,
                         testing::ValuesIn(RegisteredAlgorithmNames()),
                         SweepName);

}  // namespace
}  // namespace setcover
