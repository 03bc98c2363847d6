// Engine equivalence — the acceptance bar for the src/engine/ refactor:
// for every registered algorithm, engine::Execute must produce
// bit-identical covers, certificates, meter readings, and checkpoint
// bytes to the legacy drive loops it replaced (the header-inline
// RunStream reference primitive, and a hand-rolled per-edge supervised
// driver for checkpoint bytes), across in-memory adversarial/random
// sources and stream files (v2 sync, v3 + prefetch), including
// kill-and-resume through the engine — plus the stream schedules
// (multi-pass and sliding-window) layered over those sources.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
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

namespace setcover {
namespace {

struct Fixture {
  SetCoverInstance instance;
  EdgeStream stream;
};

Fixture MakeFixture(uint64_t seed, StreamOrder order) {
  Rng rng(seed);
  UniformRandomParams p;
  p.num_elements = 60;
  p.num_sets = 80;
  Fixture fixture{GenerateUniformRandom(p, rng), {}};
  fixture.stream = OrderedStream(fixture.instance, order, rng);
  return fixture;
}

/// Planted fixture for the schedule tests: known OPT, decoy sets, a few
/// thousand edges.
Fixture MakePlantedFixture(uint64_t seed) {
  Rng rng(seed);
  PlantedCoverParams p;
  p.num_elements = 120;
  p.num_sets = 600;
  p.planted_cover_size = 6;
  Fixture fixture{GeneratePlantedCover(p, rng), {}};
  fixture.stream = RandomOrderStream(fixture.instance, rng);
  return fixture;
}

engine::RunConfig InMemoryConfig(const std::string& algorithm,
                                 const EdgeStream& stream) {
  engine::RunConfig config;
  config.algorithm = algorithm;
  config.options.seed = 21;
  config.source = engine::SourceSpec::InMemory(stream);
  return config;
}

void ExpectSameSolution(const engine::RunReport& actual,
                        const engine::RunReport& expected,
                        const std::string& context) {
  EXPECT_EQ(actual.solution.cover, expected.solution.cover) << context;
  EXPECT_EQ(actual.solution.certificate, expected.solution.certificate)
      << context;
  EXPECT_EQ(actual.edges_delivered, expected.edges_delivered) << context;
  EXPECT_EQ(actual.uncovered_elements, expected.uncovered_elements)
      << context;
}

std::string TempPath(const std::string& tag) {
  std::string name = "engine_" + tag;
  for (char& c : name)
    if (c == '-') c = '_';
  return testing::TempDir() + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

class EngineSweep : public testing::TestWithParam<std::string> {};

// Fast in-memory path == the legacy RunStream reference primitive, on
// an adversarial (set-major) and a random-order stream. Covers,
// certificates, and both meter readings must match bit for bit.
TEST_P(EngineSweep, InMemoryExecuteMatchesRunStream) {
  for (StreamOrder order : {StreamOrder::kSetMajor, StreamOrder::kRandom}) {
    Fixture fixture = MakeFixture(101, order);
    auto reference = MakeAlgorithmByName(GetParam(), {.seed = 21});
    CoverSolution expected = RunStream(*reference, fixture.stream);

    engine::RunConfig config;
    config.algorithm = GetParam();
    config.options.seed = 21;
    config.source = engine::SourceSpec::InMemory(fixture.stream);
    engine::RunReport report = engine::Execute(config);

    const std::string context =
        GetParam() + " order=" + StreamOrderName(order);
    ASSERT_TRUE(report.completed) << context << ": " << report.error;
    EXPECT_EQ(report.algorithm_name, reference->Name()) << context;
    EXPECT_EQ(report.edges_delivered, fixture.stream.size()) << context;
    EXPECT_GE(report.stages.batches, 1u) << context;
    EXPECT_EQ(report.solution.cover, expected.cover) << context;
    EXPECT_EQ(report.solution.certificate, expected.certificate) << context;
    EXPECT_EQ(report.peak_words, reference->Meter().PeakWords()) << context;
    EXPECT_EQ(report.current_words, reference->Meter().CurrentWords())
        << context;
    EXPECT_EQ(report.meter_breakdown, reference->Meter().BreakdownString())
        << context;
  }
}

// File sources — v2 synchronous and v3 with the background prefetch
// decoder — must agree with RunStream over the same edges. (Peak words
// are compared only in NDEBUG builds: debug builds run RunStream's
// first-batch equivalence spot-check, which the file fast path, like
// the old RunStreamFromFile, never did.)
TEST_P(EngineSweep, FileExecuteMatchesRunStream) {
  Fixture fixture = MakeFixture(131, StreamOrder::kRandom);
  auto reference = MakeAlgorithmByName(GetParam(), {.seed = 33});
  CoverSolution expected = RunStream(*reference, fixture.stream);

  struct Variant {
    StreamFormat format;
    bool prefetch;
    const char* tag;
  };
  for (const Variant& variant :
       {Variant{StreamFormat::kV2, false, "v2_sync"},
        Variant{StreamFormat::kV3, true, "v3_prefetch"}}) {
    const std::string context = GetParam() + " " + variant.tag;
    const std::string path =
        TempPath("file_" + GetParam() + "_" + variant.tag + ".bin");
    std::string error;
    ASSERT_TRUE(WriteStreamFile(fixture.stream, path, variant.format, &error))
        << context << ": " << error;

    StreamReadOptions read_options;
    read_options.prefetch = variant.prefetch;
    engine::RunConfig config;
    config.algorithm = GetParam();
    config.options.seed = 33;
    config.source = engine::SourceSpec::File(path, read_options);
    engine::RunReport report = engine::Execute(config);

    ASSERT_TRUE(report.completed) << context << ": " << report.error;
    EXPECT_FALSE(report.degraded) << context;
    EXPECT_EQ(report.edges_delivered, fixture.stream.size()) << context;
    EXPECT_EQ(report.solution.cover, expected.cover) << context;
    EXPECT_EQ(report.solution.certificate, expected.certificate) << context;
    EXPECT_EQ(report.current_words, reference->Meter().CurrentWords())
        << context;
#ifdef NDEBUG
    EXPECT_EQ(report.peak_words, reference->Meter().PeakWords()) << context;
#endif
    std::remove(path.c_str());
  }
}

// Kill-and-resume driven entirely through engine::Execute: a run killed
// at edge k and resumed from its checkpoint must finish bit-identical
// to an uninterrupted engine run.
TEST_P(EngineSweep, KillAndResumeThroughEngineIsBitIdentical) {
  Fixture fixture = MakeFixture(101, StreamOrder::kRandom);
  const std::string path = TempPath("resume_" + GetParam() + ".sckp");

  engine::RunConfig base;
  base.algorithm = GetParam();
  base.options.seed = 21;
  base.source = engine::SourceSpec::InMemory(fixture.stream);
  engine::RunReport expected = engine::Execute(base);
  ASSERT_TRUE(expected.completed) << expected.error;

  for (uint64_t k : {uint64_t{1}, uint64_t{13}, uint64_t{64},
                     uint64_t{fixture.stream.size() - 1}}) {
    const std::string context = GetParam() + " k=" + std::to_string(k);

    engine::RunConfig kill = base;
    kill.checkpoint.path = path;
    kill.checkpoint.every = k;
    kill.stop_after = k;
    engine::RunReport killed = engine::Execute(kill);
    ASSERT_FALSE(killed.completed) << context;
    ASSERT_TRUE(killed.error.empty()) << context << ": " << killed.error;
    ASSERT_EQ(killed.checkpoints_written, 1u) << context;

    engine::RunConfig resume = base;
    resume.options.seed = 999;  // must be ignored: state comes from disk
    resume.checkpoint.path = path;
    resume.checkpoint.resume = true;
    engine::RunReport resumed = engine::Execute(resume);
    ASSERT_TRUE(resumed.completed) << context << ": " << resumed.error;
    EXPECT_TRUE(resumed.resumed) << context;
    EXPECT_EQ(resumed.resumed_at, k) << context;
    EXPECT_EQ(resumed.edges_delivered, fixture.stream.size()) << context;
    EXPECT_EQ(resumed.solution.cover, expected.solution.cover) << context;
    EXPECT_EQ(resumed.solution.certificate, expected.solution.certificate)
        << context;
    EXPECT_EQ(resumed.current_words, expected.current_words) << context;
  }
  std::remove(path.c_str());
}

// Checkpoint wire bytes: the engine's periodic checkpoint at edge k
// must be byte-identical to one written by a hand-rolled per-edge
// driver — same SCKP header, counters, and encoded state words.
TEST_P(EngineSweep, CheckpointBytesMatchPerEdgeOracle) {
  Fixture fixture = MakeFixture(101, StreamOrder::kRandom);
  const std::string engine_path = TempPath("bytes_a_" + GetParam() + ".sckp");
  const std::string oracle_path = TempPath("bytes_b_" + GetParam() + ".sckp");

  for (uint64_t k : {uint64_t{37}, uint64_t{128}}) {
    const std::string context = GetParam() + " k=" + std::to_string(k);

    engine::RunConfig config;
    config.algorithm = GetParam();
    config.options.seed = 21;
    config.source = engine::SourceSpec::InMemory(fixture.stream);
    config.checkpoint.path = engine_path;
    config.checkpoint.every = k;
    config.stop_after = k;
    engine::RunReport killed = engine::Execute(config);
    ASSERT_EQ(killed.checkpoints_written, 1u) << context;

    // Per-edge oracle: the pre-batching supervised loop in miniature.
    auto oracle = MakeAlgorithmByName(GetParam(), {.seed = 21});
    oracle->Begin(fixture.stream.meta);
    for (uint64_t i = 0; i < k; ++i) {
      oracle->ProcessEdge(fixture.stream.edges[i]);
    }
    StateEncoder encoder;
    oracle->EncodeState(&encoder);
    Checkpoint checkpoint;
    checkpoint.algorithm_name = oracle->Name();
    checkpoint.meta = fixture.stream.meta;
    checkpoint.stream_position = k;
    checkpoint.edges_delivered = k;
    checkpoint.state_words = encoder.Words();
    std::string error;
    ASSERT_TRUE(SaveCheckpoint(checkpoint, oracle_path, &error))
        << context << ": " << error;

    const std::string engine_bytes = ReadFileBytes(engine_path);
    ASSERT_FALSE(engine_bytes.empty()) << context;
    EXPECT_EQ(engine_bytes, ReadFileBytes(oracle_path)) << context;
  }
  std::remove(engine_path.c_str());
  std::remove(oracle_path.c_str());
}

// Execute's declarative fault spec must assemble the identical pipeline
// a caller would wire by hand (source -> FaultInjector -> Drive).
TEST_P(EngineSweep, FaultSpecMatchesManualAssembly) {
  Fixture fixture = MakeFixture(211, StreamOrder::kRandom);
  const FaultSchedule schedule = FaultSchedule::AllKinds(17, 0.04);

  auto manual = MakeAlgorithmByName(GetParam(), {.seed = 23});
  VectorEdgeSource base(fixture.stream);
  FaultInjector faulty(&base, schedule);
  engine::RunReport expected = engine::Drive({}, *manual, faulty);
  ASSERT_TRUE(expected.completed) << expected.error;

  engine::RunConfig config;
  config.algorithm = GetParam();
  config.options.seed = 23;
  config.source = engine::SourceSpec::InMemory(fixture.stream);
  config.faults = schedule;
  engine::RunReport report = engine::Execute(config);

  ASSERT_TRUE(report.completed) << GetParam() << ": " << report.error;
  EXPECT_EQ(report.solution.cover, expected.solution.cover) << GetParam();
  EXPECT_EQ(report.solution.certificate, expected.solution.certificate)
      << GetParam();
  EXPECT_EQ(report.edges_delivered, expected.edges_delivered) << GetParam();
  EXPECT_EQ(report.transient_retries, expected.transient_retries)
      << GetParam();
  EXPECT_EQ(report.corrupt_records_skipped,
            expected.corrupt_records_skipped)
      << GetParam();
  EXPECT_EQ(report.faults_survived, expected.faults_survived) << GetParam();
  EXPECT_EQ(report.degraded, expected.degraded) << GetParam();
  EXPECT_EQ(report.current_words, manual->Meter().CurrentWords())
      << GetParam();
}

// The batcher knob: any batch size must leave covers, certificates and
// state bit-identical (the ProcessEdgeBatch contract, enforced at the
// engine seam).
TEST_P(EngineSweep, BatchSizeIsObservationallyInvisible) {
  Fixture fixture = MakeFixture(101, StreamOrder::kRandom);
  engine::RunConfig config;
  config.algorithm = GetParam();
  config.options.seed = 21;
  config.source = engine::SourceSpec::InMemory(fixture.stream);
  engine::RunReport expected = engine::Execute(config);
  ASSERT_TRUE(expected.completed) << expected.error;

  for (size_t batch_edges : {size_t{1}, size_t{7}, size_t{1000}}) {
    engine::RunConfig odd = config;
    odd.batch_edges = batch_edges;
    engine::RunReport report = engine::Execute(odd);
    const std::string context =
        GetParam() + " batch=" + std::to_string(batch_edges);
    ASSERT_TRUE(report.completed) << context << ": " << report.error;
    EXPECT_EQ(report.solution.cover, expected.solution.cover) << context;
    EXPECT_EQ(report.solution.certificate, expected.solution.certificate)
        << context;
    EXPECT_EQ(report.current_words, expected.current_words) << context;
  }
}

// A 2-pass schedule is one pass over the physically doubled stream:
// same declared metadata (the scheduled source reports one pass's
// meta), twice the edges.
TEST_P(EngineSweep, TwoPassScheduleMatchesDoubledStream) {
  Fixture fixture = MakePlantedFixture(421);
  EdgeStream doubled = fixture.stream;
  doubled.edges.insert(doubled.edges.end(), fixture.stream.edges.begin(),
                       fixture.stream.edges.end());
  engine::RunReport expected =
      engine::Execute(InMemoryConfig(GetParam(), doubled));
  ASSERT_TRUE(expected.completed) << expected.error;

  engine::RunConfig config = InMemoryConfig(GetParam(), fixture.stream);
  config.source.schedule.passes = 2;
  engine::RunReport report = engine::Execute(config);
  ASSERT_TRUE(report.completed) << GetParam() << ": " << report.error;
  EXPECT_EQ(report.solution.cover, expected.solution.cover) << GetParam();
  EXPECT_EQ(report.solution.certificate, expected.solution.certificate)
      << GetParam();
  EXPECT_EQ(report.edges_delivered, 2 * fixture.stream.size()) << GetParam();
}

std::string TestName(const testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, EngineSweep,
                         testing::ValuesIn(RegisteredAlgorithmNames()),
                         TestName);

// Multi-chunk on-disk kill-and-resume through the engine: checkpoints
// land mid-file (across v3 chunk boundaries), the resume seeks into the
// compressed file, and the finished run matches an uninterrupted
// file-fast-path run.
TEST(EngineTest, MultiChunkFileKillAndResume) {
  Rng rng(7);
  UniformRandomParams p;
  p.num_elements = 200;
  p.num_sets = 3000;
  SetCoverInstance instance = GenerateUniformRandom(p, rng);
  EdgeStream stream = RandomOrderStream(instance, rng);
  ASSERT_GT(stream.size(), 2 * kIngestBatchEdges);

  const std::string file_path = TempPath("multichunk.bin");
  const std::string ckpt_path = TempPath("multichunk.sckp");
  std::string error;
  ASSERT_TRUE(WriteStreamFile(stream, file_path, StreamFormat::kV3, &error))
      << error;

  StreamReadOptions read_options;
  read_options.prefetch = true;
  engine::RunConfig base;
  base.algorithm = "kk";
  base.options.seed = 5;
  base.source = engine::SourceSpec::File(file_path, read_options);
  engine::RunReport expected = engine::Execute(base);
  ASSERT_TRUE(expected.completed) << expected.error;

  engine::RunConfig kill = base;
  kill.checkpoint.path = ckpt_path;
  kill.checkpoint.every = 1000;
  kill.stop_after = 5500;
  engine::RunReport killed = engine::Execute(kill);
  ASSERT_FALSE(killed.completed);
  ASSERT_EQ(killed.checkpoints_written, 5u);

  engine::RunConfig resume = base;
  resume.checkpoint.path = ckpt_path;
  resume.checkpoint.resume = true;
  engine::RunReport resumed = engine::Execute(resume);
  ASSERT_TRUE(resumed.completed) << resumed.error;
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_at, 5000u);
  EXPECT_EQ(resumed.edges_delivered, stream.size());
  EXPECT_EQ(resumed.solution.cover, expected.solution.cover);
  EXPECT_EQ(resumed.solution.certificate, expected.solution.certificate);
  EXPECT_EQ(resumed.current_words, expected.current_words);

  std::remove(file_path.c_str());
  std::remove(ckpt_path.c_str());
}

// A 2-pass schedule over a v3 FILE resumes mid-pass-2: scheduled
// positions (pass * N + record) are the checkpoint coordinate, so
// kill-and-resume composes with multi-pass runs.
TEST(EngineTest, TwoPassFileScheduleKillAndResume) {
  Fixture fixture = MakePlantedFixture(431);
  const std::string path = TempPath("twopass.scs3");
  const std::string ckpt = TempPath("twopass.sckp");
  std::string error;
  ASSERT_TRUE(
      WriteStreamFile(fixture.stream, path, StreamFormat::kV3, &error))
      << error;

  engine::RunConfig base = InMemoryConfig("kk", fixture.stream);
  base.source = engine::SourceSpec::File(path);
  base.source.schedule.passes = 2;
  engine::RunReport expected = engine::Execute(base);
  ASSERT_TRUE(expected.completed) << expected.error;
  ASSERT_EQ(expected.edges_delivered, 2 * fixture.stream.size());

  engine::RunConfig kill = base;
  kill.checkpoint.path = ckpt;
  kill.checkpoint.every = 100;
  // Deep into pass 2.
  kill.stop_after = fixture.stream.size() + fixture.stream.size() / 2;
  engine::RunReport killed = engine::Execute(kill);
  ASSERT_TRUE(killed.error.empty()) << killed.error;
  ASSERT_FALSE(killed.completed);

  engine::RunConfig resume = base;
  resume.checkpoint.path = ckpt;
  resume.checkpoint.every = 100;
  resume.checkpoint.resume = true;
  engine::RunReport resumed = engine::Execute(resume);
  ASSERT_TRUE(resumed.completed) << resumed.error;
  EXPECT_GT(resumed.resumed_at, fixture.stream.size());
  ExpectSameSolution(resumed, expected, "2-pass resume");
  std::remove(path.c_str());
  std::remove(ckpt.c_str());
}

// Sliding-window schedules re-deliver recent records (duplicate-heavy
// arrival): the run completes, delivers more edges than the stream
// holds, still produces a valid certified cover of the instance, and
// is deterministic — the same schedule twice gives the same solution.
// (The cover may legitimately differ from the plain run: replays
// change which set claims an element.)
TEST(EngineTest, WindowScheduleDeliversReplaysAndStaysCorrect) {
  Fixture fixture = MakePlantedFixture(441);
  engine::RunConfig config = InMemoryConfig("kk", fixture.stream);
  config.source.schedule.window = 16;
  config.source.schedule.replay_every = 64;
  config.validate = &fixture.instance;
  engine::RunReport report = engine::Execute(config);
  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_GT(report.edges_delivered, fixture.stream.size());
  EXPECT_TRUE(report.validation.ok) << report.validation.error;

  engine::RunReport again = engine::Execute(config);
  ASSERT_TRUE(again.completed) << again.error;
  EXPECT_EQ(report.solution.cover, again.solution.cover);
  EXPECT_EQ(report.solution.certificate, again.solution.certificate);
  EXPECT_EQ(report.edges_delivered, again.edges_delivered);
}

// Windowed schedules are not checkpointable — replayed window contents
// are not position-addressable — and the engine must say so, not
// write a checkpoint that cannot resume.
TEST(EngineTest, WindowScheduleRejectsCheckpointing) {
  Fixture fixture = MakePlantedFixture(441);
  engine::RunConfig config = InMemoryConfig("kk", fixture.stream);
  config.source.schedule.window = 16;
  config.source.schedule.replay_every = 64;
  config.checkpoint.path = TempPath("window.sckp");
  config.checkpoint.every = 10;
  engine::RunReport report = engine::Execute(config);
  ASSERT_FALSE(report.completed);
  EXPECT_NE(report.error.find("not checkpointable"), std::string::npos)
      << report.error;
}

TEST(EngineTest, UnknownAlgorithmFailsWithSuggestion) {
  EdgeStream stream;
  engine::RunConfig config;
  config.algorithm = "kkk";
  config.source = engine::SourceSpec::InMemory(stream);
  engine::RunReport report = engine::Execute(config);
  EXPECT_FALSE(report.completed);
  EXPECT_NE(report.error.find("did you mean 'kk'"), std::string::npos)
      << report.error;
  EXPECT_NE(report.error.find("registered algorithms:"), std::string::npos)
      << report.error;
}

TEST(EngineTest, ConfigWithoutExactlyOneSourceFails) {
  engine::RunConfig none;
  none.algorithm = "kk";
  EXPECT_FALSE(engine::Execute(none).error.empty());

  EdgeStream stream;
  engine::RunConfig both;
  both.algorithm = "kk";
  both.source = engine::SourceSpec::InMemory(stream);
  both.source.path = "also-a-file";
  EXPECT_FALSE(engine::Execute(both).error.empty());
}

TEST(EngineTest, ValidationStageReportsVerdict) {
  Fixture fixture = MakeFixture(101, StreamOrder::kRandom);
  engine::RunConfig config;
  config.algorithm = "kk";
  config.options.seed = 21;
  config.source = engine::SourceSpec::InMemory(fixture.stream);
  config.validate = &fixture.instance;
  engine::RunReport report = engine::Execute(config);
  ASSERT_TRUE(report.completed) << report.error;
  EXPECT_TRUE(report.validated);
  EXPECT_TRUE(report.validation.ok) << report.validation.error;
  EXPECT_GE(report.stages.total_seconds, 0.0);

  engine::RunConfig unvalidated = config;
  unvalidated.validate = nullptr;
  EXPECT_FALSE(engine::Execute(unvalidated).validated);
}

}  // namespace
}  // namespace setcover
