#include "core/registry.h"


#include <gtest/gtest.h>

#include "instance/generators.h"
#include "instance/validator.h"
#include "stream/orderings.h"
#include "util/rng.h"

namespace setcover {
namespace {

TEST(RegistryTest, EveryRegisteredNameConstructs) {
  for (const std::string& name : RegisteredAlgorithmNames()) {
    auto algorithm = MakeAlgorithmByName(name);
    ASSERT_NE(algorithm, nullptr) << name;
    EXPECT_FALSE(algorithm->Name().empty());
  }
}

TEST(RegistryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(MakeAlgorithmByName("no-such-algorithm"), nullptr);
  EXPECT_EQ(MakeAlgorithmByName(""), nullptr);
}

TEST(RegistryTest, EveryRegisteredAlgorithmSolves) {
  Rng rng(1);
  PlantedCoverParams params;
  params.num_elements = 64;
  params.num_sets = 256;
  params.planted_cover_size = 4;
  auto inst = GeneratePlantedCover(params, rng);
  auto stream = RandomOrderStream(inst, rng);
  for (const std::string& name : RegisteredAlgorithmNames()) {
    auto algorithm = MakeAlgorithmByName(name, {.seed = 5});
    ASSERT_NE(algorithm, nullptr);
    auto solution = RunStream(*algorithm, stream);
    auto check = ValidateSolution(inst, solution);
    EXPECT_TRUE(check.ok) << name << ": " << check.error;
  }
}

TEST(RegistryTest, AlphaOptionReachesAlgorithms) {
  auto a = MakeAlgorithmByName("element-sampling", {.seed = 1, .alpha = 4});
  auto b = MakeAlgorithmByName("element-sampling", {.seed = 1, .alpha = 16});
  StreamMetadata meta{1024, 256, 4096};
  a->Begin(meta);
  b->Begin(meta);
  // Smaller α → bigger sample → more element-state words.
  EXPECT_GT(a->Meter().CurrentWords(), 0u);
  EXPECT_GT(b->Meter().CurrentWords(), 0u);
}

TEST(RegistryTest, EveryRowIsSelfDescribing) {
  for (const AlgorithmInfo& info : AlgorithmRegistry()) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_FALSE(info.description.empty()) << info.name;
    EXPECT_FALSE(info.space_class.empty()) << info.name;
    EXPECT_FALSE(info.approx_class.empty()) << info.name;
    EXPECT_FALSE(info.supported_orders.empty()) << info.name;
    ASSERT_NE(info.factory, nullptr) << info.name;
    EXPECT_EQ(FindAlgorithm(info.name), &info);
  }
  EXPECT_EQ(AlgorithmRegistry().size(), RegisteredAlgorithmNames().size());
  EXPECT_EQ(FindAlgorithm("no-such-algorithm"), nullptr);
}

TEST(RegistryTest, FactoryNameIsPrefixOfRegistryName) {
  // Checkpoints key off the constructed object's Name(). Parameterized
  // variants (random-order-sketch, random-order-paper) intentionally
  // report the base algorithm's name — their state layouts are
  // interchangeable — so the registry name is always an extension of
  // the object name, never unrelated.
  for (const AlgorithmInfo& info : AlgorithmRegistry()) {
    EXPECT_EQ(info.name.rfind(info.factory({})->Name(), 0), 0u) << info.name;
  }
}

TEST(RegistryTest, SuggestsNearestNameForTypos) {
  EXPECT_EQ(SuggestAlgorithmName("kkk"), "kk");
  EXPECT_EQ(SuggestAlgorithmName("random-ordr"), "random-order");
  EXPECT_EQ(SuggestAlgorithmName("element-samplign"), "element-sampling");
  // Exact names suggest themselves; garbage suggests nothing.
  EXPECT_EQ(SuggestAlgorithmName("kk"), "kk");
  EXPECT_EQ(SuggestAlgorithmName("zzzzzzzzzzzzzzzz"), "");
  EXPECT_EQ(SuggestAlgorithmName(""), "");
}

TEST(RegistryTest, UnknownAlgorithmErrorListsNamesAndSuggestion) {
  const std::string message = UnknownAlgorithmError("random-ordr");
  EXPECT_NE(message.find("did you mean 'random-order'"), std::string::npos)
      << message;
  for (const std::string& name : RegisteredAlgorithmNames()) {
    EXPECT_NE(message.find(name), std::string::npos) << name;
  }
}

TEST(RegistryTest, SeedsArehonored) {
  Rng rng(2);
  PlantedCoverParams params;
  params.num_elements = 64;
  params.num_sets = 128;
  params.planted_cover_size = 4;
  auto inst = GeneratePlantedCover(params, rng);
  auto stream = RandomOrderStream(inst, rng);
  auto a1 = MakeAlgorithmByName("kk", {.seed = 9});
  auto a2 = MakeAlgorithmByName("kk", {.seed = 9});
  EXPECT_EQ(RunStream(*a1, stream).cover, RunStream(*a2, stream).cover);
}

}  // namespace
}  // namespace setcover
