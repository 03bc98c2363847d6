// The fault injector's whole value is determinism: the same schedule
// over the same stream must damage it identically, and seeking back to
// a checkpointed position must replay the identical damaged suffix —
// that is what makes kill-and-resume bit-exact even on dirty streams.

#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "instance/generators.h"
#include "stream/fault_injector.h"
#include "stream/orderings.h"
#include "util/rng.h"

namespace setcover {
namespace {

EdgeStream TestStream(uint64_t seed = 29) {
  Rng rng(seed);
  UniformRandomParams p;
  p.num_elements = 80;
  p.num_sets = 100;
  auto inst = GenerateUniformRandom(p, rng);
  return RandomOrderStream(inst, rng);
}

// One observable event: status plus the delivered edge (zeroed when the
// status carries no edge).
using Event = std::tuple<ReadStatus, uint32_t, uint32_t>;

std::vector<Event> Drain(FaultInjector& injector) {
  std::vector<Event> events;
  for (;;) {
    Edge edge{0, 0};
    ReadStatus status = injector.Next(&edge);
    if (status == ReadStatus::kTransient || status == ReadStatus::kEnd)
      events.emplace_back(status, 0, 0);
    else
      events.emplace_back(status, edge.set, edge.element);
    if (status == ReadStatus::kEnd) return events;
  }
}

TEST(FaultInjectorTest, SameScheduleSameDamage) {
  EdgeStream stream = TestStream();
  VectorEdgeSource source1(stream), source2(stream);
  FaultInjector injector1(&source1, FaultSchedule::AllKinds(41, 0.05));
  FaultInjector injector2(&source2, FaultSchedule::AllKinds(41, 0.05));
  EXPECT_EQ(Drain(injector1), Drain(injector2));
}

TEST(FaultInjectorTest, DifferentSeedsDamageDifferently) {
  EdgeStream stream = TestStream();
  VectorEdgeSource source1(stream), source2(stream);
  FaultInjector injector1(&source1, FaultSchedule::AllKinds(41, 0.05));
  FaultInjector injector2(&source2, FaultSchedule::AllKinds(42, 0.05));
  EXPECT_NE(Drain(injector1), Drain(injector2));
}

TEST(FaultInjectorTest, SeekReplaysTheIdenticalFaultSuffix) {
  EdgeStream stream = TestStream();
  VectorEdgeSource source(stream);
  FaultInjector injector(&source, FaultSchedule::AllKinds(7, 0.08));

  // Full trace, remembering (position, events-so-far) at every record
  // boundary — where the position moved past a record, with no copy of
  // it still owed — i.e. where a position-based checkpoint is legal.
  std::vector<Event> full;
  std::vector<std::pair<size_t, size_t>> boundaries;
  for (;;) {
    Edge edge{0, 0};
    const size_t before = injector.Position();
    ReadStatus status = injector.Next(&edge);
    if (status == ReadStatus::kTransient || status == ReadStatus::kEnd)
      full.emplace_back(status, 0, 0);
    else
      full.emplace_back(status, edge.set, edge.element);
    if (status == ReadStatus::kEnd) break;
    if (injector.Position() != before)
      boundaries.emplace_back(injector.Position(), full.size());
  }
  ASSERT_GT(boundaries.size(), 10u);

  for (size_t i = 0; i < boundaries.size(); i += boundaries.size() / 7) {
    auto [position, consumed] = boundaries[i];
    VectorEdgeSource replay_source(stream);
    FaultInjector replay(&replay_source, FaultSchedule::AllKinds(7, 0.08));
    ASSERT_TRUE(replay.SeekTo(position));
    std::vector<Event> suffix = Drain(replay);
    ASSERT_EQ(suffix.size(), full.size() - consumed) << "cut " << i;
    for (size_t j = 0; j < suffix.size(); ++j)
      EXPECT_EQ(suffix[j], full[consumed + j]) << "cut " << i << " event "
                                               << j;
  }
}

TEST(FaultInjectorTest, AllFaultKindsActuallyFire) {
  EdgeStream stream = TestStream(31);
  VectorEdgeSource source(stream);
  FaultInjector injector(&source, FaultSchedule::AllKinds(5, 0.06));
  std::vector<Event> events = Drain(injector);

  EXPECT_GT(injector.DeliveredFaults(FaultKind::kTransient), 0u);
  EXPECT_GT(injector.DeliveredFaults(FaultKind::kDuplicate), 0u);
  EXPECT_GT(injector.DeliveredFaults(FaultKind::kDrop), 0u);
  EXPECT_GT(injector.DeliveredFaults(FaultKind::kCorrupt), 0u);

  // Conservation: every underlying record is delivered once, plus one
  // extra per duplicate, minus dropped ones; corrupt deliveries are
  // flagged, never silent.
  size_t ok = 0, corrupt = 0;
  for (const auto& [status, set, element] : events) {
    if (status == ReadStatus::kOk) ++ok;
    if (status == ReadStatus::kCorrupt) {
      ++corrupt;
      EXPECT_TRUE(set >= stream.meta.num_sets ||
                  element >= stream.meta.num_elements)
          << "corrupt record not detectably out of range";
    }
  }
  EXPECT_EQ(ok, stream.size() +
                    injector.DeliveredFaults(FaultKind::kDuplicate) -
                    injector.DeliveredFaults(FaultKind::kDrop) -
                    injector.DeliveredFaults(FaultKind::kCorrupt));
  EXPECT_EQ(corrupt, injector.DeliveredFaults(FaultKind::kCorrupt));
}

TEST(FaultInjectorTest, DuplicateDeliversTheSameRecordTwice) {
  EdgeStream stream = TestStream();
  VectorEdgeSource source(stream);
  FaultSchedule schedule;
  schedule.seed = 3;
  schedule.duplicate_rate = 1.0;
  FaultInjector injector(&source, schedule);

  for (size_t i = 0; i < stream.size(); ++i) {
    Edge first{0, 0}, second{0, 0};
    ASSERT_EQ(injector.Next(&first), ReadStatus::kOk);
    EXPECT_EQ(injector.Position(), i) << "the second copy is still owed";
    ASSERT_EQ(injector.Next(&second), ReadStatus::kOk);
    EXPECT_EQ(injector.Position(), i + 1);
    EXPECT_EQ(first.set, second.set);
    EXPECT_EQ(first.element, second.element);
  }
  Edge edge;
  EXPECT_EQ(injector.Next(&edge), ReadStatus::kEnd);
}

TEST(FaultInjectorTest, TransientFailsExactlyConfiguredTimes) {
  EdgeStream stream = TestStream();
  VectorEdgeSource source(stream);
  FaultSchedule schedule;
  schedule.seed = 3;
  schedule.transient_rate = 1.0;
  schedule.transient_failures = 3;
  FaultInjector injector(&source, schedule);

  Edge edge;
  for (size_t i = 0; i < stream.size(); ++i) {
    for (int f = 0; f < 3; ++f)
      ASSERT_EQ(injector.Next(&edge), ReadStatus::kTransient) << i;
    ASSERT_EQ(injector.Next(&edge), ReadStatus::kOk) << i;
    EXPECT_EQ(edge.set, stream.edges[i].set);
    EXPECT_EQ(edge.element, stream.edges[i].element);
  }
  // A transient fault belongs to a record: past the last one the
  // stream just ends, so a stream cut into spans never sees a record's
  // faults twice.
  EXPECT_EQ(injector.Next(&edge), ReadStatus::kEnd);
}

TEST(FaultInjectorTest, DropOnlyScheduleLosesEverything) {
  EdgeStream stream = TestStream();
  VectorEdgeSource source(stream);
  FaultSchedule schedule;
  schedule.seed = 3;
  schedule.drop_rate = 1.0;
  FaultInjector injector(&source, schedule);
  Edge edge;
  EXPECT_EQ(injector.Next(&edge), ReadStatus::kEnd);
  EXPECT_EQ(injector.DeliveredFaults(FaultKind::kDrop), stream.size());
}

}  // namespace
}  // namespace setcover
