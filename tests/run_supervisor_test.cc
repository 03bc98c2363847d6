// Kill-and-resume equivalence — the acceptance bar for the run
// subsystem: for every registered algorithm, killing a supervised run
// at edge k and resuming from the checkpoint must finish with the
// bit-identical cover, certificate and meter reading of an
// uninterrupted run, on clean streams and on fault-injected ones.
// Runs are driven through engine::Execute over caller-owned algorithm
// instances, so each test can inspect the object afterwards.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "engine/engine.h"
#include "instance/generators.h"
#include "instance/validator.h"
#include "run/checkpoint.h"
#include "stream/fault_injector.h"
#include "stream/orderings.h"
#include "stream/stream_file.h"
#include "util/rng.h"

#include "per_edge_oracle.h"

namespace setcover {
namespace {

struct Fixture {
  SetCoverInstance instance;
  EdgeStream stream;
};

Fixture MakeFixture(uint64_t seed = 101) {
  Rng rng(seed);
  UniformRandomParams p;
  p.num_elements = 60;
  p.num_sets = 80;
  Fixture fixture{GenerateUniformRandom(p, rng), {}};
  fixture.stream = RandomOrderStream(fixture.instance, rng);
  return fixture;
}

/// A run of `algorithm` (caller-owned) over `source`.
engine::RunConfig Over(StreamingSetCoverAlgorithm& algorithm,
                       engine::SourceSpec source) {
  engine::RunConfig config;
  config.algorithm_instance = &algorithm;
  config.source = std::move(source);
  return config;
}

engine::RunConfig Over(StreamingSetCoverAlgorithm& algorithm,
                       const EdgeStream& stream) {
  return Over(algorithm, engine::SourceSpec::InMemory(stream));
}

std::string CheckpointPath(const std::string& tag) {
  std::string name = "supervisor_" + tag + ".sckp";
  for (char& c : name)
    if (c == '-') c = '_';
  return testing::TempDir() + name;
}

// Certificates that exist must be sound even when coverage is partial
// (dropped/corrupted records can legitimately lose elements).
void ExpectCertificateSound(const SetCoverInstance& inst,
                            const CoverSolution& solution,
                            const std::string& context) {
  ASSERT_EQ(solution.certificate.size(), inst.NumElements()) << context;
  std::vector<bool> in_cover(inst.NumSets(), false);
  for (SetId s : solution.cover) {
    ASSERT_LT(s, inst.NumSets()) << context;
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

class SupervisorSweep : public testing::TestWithParam<std::string> {};

TEST_P(SupervisorSweep, KillAndResumeIsBitIdentical) {
  Fixture fixture = MakeFixture();
  const std::string path = CheckpointPath("clean_" + GetParam());

  // Uninterrupted reference run under the same supervisor.
  auto reference = MakeAlgorithmByName(GetParam(), {.seed = 21});
  engine::RunReport expected =
      engine::Execute(Over(*reference, fixture.stream));
  ASSERT_TRUE(expected.completed) << expected.error;
  ASSERT_EQ(expected.edges_delivered, fixture.stream.size());

  for (uint64_t k : {uint64_t{1}, uint64_t{13}, uint64_t{64},
                     uint64_t{fixture.stream.size() - 1}}) {
    // Phase 1: run to edge k, checkpoint there, die.
    auto victim = MakeAlgorithmByName(GetParam(), {.seed = 21});
    engine::RunConfig kill_config = Over(*victim, fixture.stream);
    kill_config.checkpoint.path = path;
    kill_config.checkpoint.every = k;
    kill_config.stop_after = k;
    engine::RunReport killed = engine::Execute(kill_config);
    ASSERT_FALSE(killed.completed) << GetParam() << " k=" << k;
    ASSERT_EQ(killed.checkpoints_written, 1u) << GetParam() << " k=" << k;

    // Phase 2: fresh object, fresh source, resume, replay the tail.
    auto revived = MakeAlgorithmByName(GetParam(), {.seed = 999});
    engine::RunConfig resume_config = Over(*revived, fixture.stream);
    resume_config.checkpoint.path = path;
    resume_config.checkpoint.resume = true;
    engine::RunReport resumed = engine::Execute(resume_config);
    ASSERT_TRUE(resumed.completed)
        << GetParam() << " k=" << k << ": " << resumed.error;
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.resumed_at, k) << GetParam() << " k=" << k;
    EXPECT_EQ(resumed.edges_delivered, fixture.stream.size());

    EXPECT_EQ(resumed.solution.cover, expected.solution.cover)
        << GetParam() << " k=" << k;
    EXPECT_EQ(resumed.solution.certificate, expected.solution.certificate)
        << GetParam() << " k=" << k;
    EXPECT_EQ(revived->Meter().CurrentWords(),
              reference->Meter().CurrentWords())
        << GetParam() << " k=" << k;
  }
  std::remove(path.c_str());
}

TEST_P(SupervisorSweep, KillAndResumeUnderFaultsIsBitIdentical) {
  Fixture fixture = MakeFixture(211);
  const std::string path = CheckpointPath("faulty_" + GetParam());
  const FaultSchedule schedule = FaultSchedule::AllKinds(17, 0.04);

  auto reference = MakeAlgorithmByName(GetParam(), {.seed = 23});
  engine::RunConfig reference_config = Over(*reference, fixture.stream);
  reference_config.faults = schedule;
  engine::RunReport expected = engine::Execute(reference_config);
  ASSERT_TRUE(expected.completed) << expected.error;

  // Phase 1: checkpoint periodically, die mid-stream.
  auto victim = MakeAlgorithmByName(GetParam(), {.seed = 23});
  engine::RunConfig kill_config = Over(*victim, fixture.stream);
  kill_config.faults = schedule;
  kill_config.checkpoint.path = path;
  kill_config.checkpoint.every = 11;
  kill_config.stop_after = 60;
  engine::RunReport killed = engine::Execute(kill_config);
  ASSERT_FALSE(killed.completed) << GetParam();
  ASSERT_GT(killed.checkpoints_written, 0u) << GetParam();

  // Phase 2: resume over an identically-faulty fresh source.
  auto revived = MakeAlgorithmByName(GetParam(), {.seed = 999});
  engine::RunConfig resume_config = Over(*revived, fixture.stream);
  resume_config.faults = schedule;
  resume_config.checkpoint.path = path;
  resume_config.checkpoint.resume = true;
  engine::RunReport resumed = engine::Execute(resume_config);
  ASSERT_TRUE(resumed.completed) << GetParam() << ": " << resumed.error;
  EXPECT_TRUE(resumed.resumed);

  EXPECT_EQ(resumed.solution.cover, expected.solution.cover) << GetParam();
  EXPECT_EQ(resumed.solution.certificate, expected.solution.certificate)
      << GetParam();
  EXPECT_EQ(revived->Meter().CurrentWords(),
            reference->Meter().CurrentWords())
      << GetParam();
  EXPECT_EQ(resumed.edges_delivered, expected.edges_delivered)
      << GetParam();
  std::remove(path.c_str());
}

std::string SweepName(const testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SupervisorSweep,
                         testing::ValuesIn(RegisteredAlgorithmNames()),
                         SweepName);

TEST(RunSupervisorTest, KillAndResumeOverAnOnDiskStreamFile) {
  // The deployment path end to end: stream file on disk, supervised run
  // killed mid-stream, a second process-simulating run resumes via
  // SeekToEdge and matches the uninterrupted result exactly.
  Rng rng(47);
  UniformRandomParams p;
  p.num_elements = 200;
  p.num_sets = 3000;
  p.min_set_size = 2;
  p.max_set_size = 5;
  auto inst = GenerateUniformRandom(p, rng);
  auto stream = RandomOrderStream(inst, rng);
  ASSERT_GT(stream.size(), size_t{4096}) << "want multiple v2 chunks";

  const std::string stream_path = testing::TempDir() + "supervisor.sces";
  const std::string ckpt_path = CheckpointPath("on_disk");
  ASSERT_TRUE(WriteStreamFile(stream, stream_path));

  const engine::SourceSpec file = engine::SourceSpec::File(stream_path);
  auto reference = MakeAlgorithmByName("random-order", {.seed = 31});
  engine::RunReport expected = engine::Execute(Over(*reference, file));
  ASSERT_TRUE(expected.completed) << expected.error;

  auto victim = MakeAlgorithmByName("random-order", {.seed = 31});
  engine::RunConfig kill_config = Over(*victim, file);
  kill_config.checkpoint.path = ckpt_path;
  kill_config.checkpoint.every = 1000;
  kill_config.stop_after = 5500;  // dies inside the second chunk
  engine::RunReport killed = engine::Execute(kill_config);
  ASSERT_FALSE(killed.completed);
  ASSERT_GT(killed.checkpoints_written, 0u);

  auto revived = MakeAlgorithmByName("random-order", {.seed = 777});
  engine::RunConfig resume_config = Over(*revived, file);
  resume_config.checkpoint.path = ckpt_path;
  resume_config.checkpoint.resume = true;
  engine::RunReport resumed = engine::Execute(resume_config);
  ASSERT_TRUE(resumed.completed) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_at, 5000u);

  EXPECT_EQ(resumed.solution.cover, expected.solution.cover);
  EXPECT_EQ(resumed.solution.certificate, expected.solution.certificate);
  EXPECT_EQ(revived->Meter().CurrentWords(),
            reference->Meter().CurrentWords());
  EXPECT_TRUE(ValidateSolution(inst, resumed.solution).ok);
  std::remove(stream_path.c_str());
  std::remove(ckpt_path.c_str());
}

TEST(RunSupervisorTest, KillAndResumeIsBitIdenticalAcrossFormats) {
  // The checkpoint coordinate is an edge index, so a run checkpointed
  // over one file format must resume identically over any other — and
  // the prefetch pipeline (whose seeks restart a worker thread) must
  // not perturb it either.
  Rng rng(61);
  UniformRandomParams p;
  p.num_elements = 200;
  p.num_sets = 3000;
  p.min_set_size = 2;
  p.max_set_size = 5;
  auto inst = GenerateUniformRandom(p, rng);
  auto stream = RandomOrderStream(inst, rng);
  ASSERT_GT(stream.size(), size_t{2} * 4096);

  std::string error;
  engine::RunReport expected;
  {
    auto reference = MakeAlgorithmByName("random-order", {.seed = 31});
    expected = engine::Execute(Over(*reference, stream));
    ASSERT_TRUE(expected.completed) << expected.error;
  }

  for (StreamFormat format :
       {StreamFormat::kV1, StreamFormat::kV2, StreamFormat::kV3}) {
    for (bool prefetch : {false, true}) {
      const std::string label = "v" + std::to_string(uint32_t(format)) +
                                (prefetch ? "+prefetch" : "+sync");
      const std::string stream_path =
          testing::TempDir() + "formats_" + label + ".sces";
      const std::string ckpt_path = CheckpointPath(("fmt_" + label).c_str());
      ASSERT_TRUE(WriteStreamFile(stream, stream_path, format, &error))
          << error;
      StreamReadOptions read_options;
      read_options.prefetch = prefetch;
      const engine::SourceSpec file =
          engine::SourceSpec::File(stream_path, read_options);

      auto victim = MakeAlgorithmByName("random-order", {.seed = 31});
      engine::RunConfig kill_config = Over(*victim, file);
      kill_config.checkpoint.path = ckpt_path;
      kill_config.checkpoint.every = 1000;
      kill_config.stop_after = 5500;
      engine::RunReport killed = engine::Execute(kill_config);
      ASSERT_FALSE(killed.completed) << label;
      ASSERT_GT(killed.checkpoints_written, 0u) << label;

      auto revived = MakeAlgorithmByName("random-order", {.seed = 777});
      engine::RunConfig resume_config = Over(*revived, file);
      resume_config.checkpoint.path = ckpt_path;
      resume_config.checkpoint.resume = true;
      engine::RunReport resumed = engine::Execute(resume_config);
      ASSERT_TRUE(resumed.completed) << label << ": " << resumed.error;
      EXPECT_TRUE(resumed.resumed) << label;
      EXPECT_EQ(resumed.resumed_at, 5000u) << label;

      EXPECT_EQ(resumed.solution.cover, expected.solution.cover) << label;
      EXPECT_EQ(resumed.solution.certificate, expected.solution.certificate)
          << label;
      EXPECT_EQ(resumed.edges_delivered, expected.edges_delivered) << label;
      std::remove(stream_path.c_str());
      std::remove(ckpt_path.c_str());
    }
  }
}

TEST(RunSupervisorTest, ChecksumFailedChunkDegradesTheRun) {
  // A stream file whose second chunk fails its CRC ends the stream
  // early; the supervised run must come back degraded (and count the
  // corrupt signal), never silently complete on a fifth of the data.
  Rng rng(53);
  UniformRandomParams p;
  p.num_elements = 150;
  p.num_sets = 2500;
  p.min_set_size = 2;
  p.max_set_size = 5;
  auto inst = GenerateUniformRandom(p, rng);
  auto stream = RandomOrderStream(inst, rng);
  ASSERT_GT(stream.size(), size_t{4096});

  const std::string path = testing::TempDir() + "degraded.sces";
  ASSERT_TRUE(WriteStreamFile(stream, path));
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 28 + 8 + 4096 * 8 + 8 + 100, SEEK_SET);  // chunk 1 payload
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0x10, f);
  std::fclose(f);

  auto algorithm = MakeAlgorithmByName("kk", {.seed = 3});
  engine::RunReport report =
      engine::Execute(Over(*algorithm, engine::SourceSpec::File(path)));

  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.corrupt_records_skipped, 1u);
  EXPECT_EQ(report.edges_delivered, 4096u);
  ExpectCertificateSound(inst, report.solution, "checksum-degraded");
  std::remove(path.c_str());
}

TEST(RunSupervisorTest, SurvivesTransientFaultsWithBackoff) {
  Fixture fixture = MakeFixture();
  FaultSchedule schedule;
  schedule.seed = 9;
  schedule.transient_rate = 0.1;
  schedule.transient_failures = 2;

  auto algorithm = MakeAlgorithmByName("kk", {.seed = 3});
  std::vector<uint64_t> slept;
  engine::RunConfig config = Over(*algorithm, fixture.stream);
  config.faults = schedule;
  config.sleeper = [&slept](uint64_t us) { slept.push_back(us); };
  engine::RunReport report = engine::Execute(config);

  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_FALSE(report.degraded);
  EXPECT_GT(report.transient_retries, 0u);
  EXPECT_EQ(report.transient_retries, slept.size());
  EXPECT_EQ(report.edges_delivered, fixture.stream.size());
  EXPECT_TRUE(ValidateSolution(fixture.instance, report.solution).ok);
}

TEST(RunSupervisorTest, ExhaustedRetriesDegradeToCertifiedPartialCover) {
  Fixture fixture = MakeFixture();
  FaultSchedule schedule;
  schedule.seed = 9;
  schedule.transient_rate = 0.1;
  schedule.transient_failures = 1000;  // unrecoverable position

  auto algorithm = MakeAlgorithmByName("kk", {.seed = 3});
  engine::RunConfig config = Over(*algorithm, fixture.stream);
  config.faults = schedule;
  config.backoff.max_retries = 4;
  engine::RunReport report = engine::Execute(config);

  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_TRUE(report.degraded);
  EXPECT_LT(report.edges_delivered, fixture.stream.size());
  ExpectCertificateSound(fixture.instance, report.solution, "degraded");
}

TEST(RunSupervisorTest, CorruptRecordsAreSkippedAndCounted) {
  Fixture fixture = MakeFixture();
  FaultSchedule schedule;
  schedule.seed = 13;
  schedule.corrupt_rate = 0.05;

  auto algorithm = MakeAlgorithmByName("kk", {.seed = 3});
  engine::RunConfig config = Over(*algorithm, fixture.stream);
  config.faults = schedule;
  engine::RunReport report = engine::Execute(config);

  // What the injector did, read off the per-edge oracle.
  VectorEdgeSource base(fixture.stream);
  FaultInjector source(&base, schedule);
  auto oracle = MakeAlgorithmByName("kk", {.seed = 3});
  RunPerEdgeOracle(*oracle, source);

  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_GT(report.corrupt_records_skipped, 0u);
  EXPECT_EQ(report.corrupt_records_skipped,
            source.DeliveredFaults(FaultKind::kCorrupt));
  EXPECT_EQ(report.edges_delivered,
            fixture.stream.size() - report.corrupt_records_skipped);
  ExpectCertificateSound(fixture.instance, report.solution, "corrupt");
}

TEST(RunSupervisorTest, RejectsCorruptedCheckpoint) {
  Fixture fixture = MakeFixture();
  const std::string path = CheckpointPath("reject_corrupt");

  auto victim = MakeAlgorithmByName("kk", {.seed = 3});
  engine::RunConfig kill_config = Over(*victim, fixture.stream);
  kill_config.checkpoint.path = path;
  kill_config.checkpoint.every = 20;
  kill_config.stop_after = 20;
  engine::Execute(kill_config);

  // Flip one byte mid-file; resume must refuse, not resume from garbage.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 40, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, 40, SEEK_SET);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);

  auto revived = MakeAlgorithmByName("kk", {.seed = 3});
  engine::RunConfig resume_config = Over(*revived, fixture.stream);
  resume_config.checkpoint.path = path;
  resume_config.checkpoint.resume = true;
  engine::RunReport report = engine::Execute(resume_config);
  EXPECT_FALSE(report.completed);
  EXPECT_FALSE(report.error.empty());
  std::remove(path.c_str());
}

TEST(RunSupervisorTest, RejectsCheckpointFromAnotherAlgorithm) {
  Fixture fixture = MakeFixture();
  const std::string path = CheckpointPath("reject_mismatch");

  auto victim = MakeAlgorithmByName("kk", {.seed = 3});
  engine::RunConfig kill_config = Over(*victim, fixture.stream);
  kill_config.checkpoint.path = path;
  kill_config.checkpoint.every = 20;
  kill_config.stop_after = 20;
  engine::Execute(kill_config);

  auto other = MakeAlgorithmByName("first-set-patching", {.seed = 3});
  engine::RunConfig resume_config = Over(*other, fixture.stream);
  resume_config.checkpoint.path = path;
  resume_config.checkpoint.resume = true;
  engine::RunReport report = engine::Execute(resume_config);
  EXPECT_FALSE(report.completed);
  EXPECT_NE(report.error.find("kk"), std::string::npos);
  std::remove(path.c_str());
}

TEST(RunSupervisorTest, NeverCheckpointsWhileSourceOwesAReplay) {
  // With duplicates firing constantly and checkpoint.every = 1, every
  // odd delivery happens while the injector owes the second copy; the
  // engine must only write at true record boundaries.
  Fixture fixture = MakeFixture();
  const std::string path = CheckpointPath("pending_replay");
  FaultSchedule schedule;
  schedule.seed = 3;
  schedule.duplicate_rate = 1.0;

  auto algorithm = MakeAlgorithmByName("kk", {.seed = 3});
  engine::RunConfig config = Over(*algorithm, fixture.stream);
  config.faults = schedule;
  config.checkpoint.path = path;
  config.checkpoint.every = 1;
  engine::RunReport report = engine::Execute(config);

  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_EQ(report.edges_delivered, 2 * fixture.stream.size());
  // Exactly one checkpoint per record boundary, none mid-duplicate.
  EXPECT_EQ(report.checkpoints_written, fixture.stream.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace setcover
