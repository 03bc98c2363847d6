// Experiment F7 — systems throughput: edges/second sustained by each
// one-pass algorithm on a large random-order stream. The paper is about
// space, but a streaming system also lives or dies by per-edge cost;
// this bench pins it down (items/s = edges/s).
//
// Ingestion goes through ProcessEdgeBatch in kIngestBatchEdges chunks —
// the same path RunStream and engine::Execute use — so these numbers
// measure the deployed pipeline, not a
// per-edge-virtual-call strawman. BM_NGuessThreads measures the
// parallel multi-run driver across thread counts on the same stream.
//
// BM_FileReplay measures the on-disk replay path end to end (open →
// map → decode → CRC → ProcessEdgeBatch, through engine::Execute)
// across the stream-file format and decoder matrix; v3-mmap-prefetch
// is the shipping default. The files live in a private temporary
// directory, removed at exit, so concurrent runs never share one.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include <unistd.h>

#include "bench/bench_util.h"
#include "core/adversarial_level.h"
#include "core/kk_algorithm.h"
#include "core/multi_run.h"
#include "core/random_order.h"
#include "core/set_arrival.h"
#include "core/trivial.h"
#include "engine/engine.h"
#include "offline/greedy.h"
#include "stream/orderings.h"
#include "stream/stream_file.h"

namespace setcover {
namespace {

enum AlgKind { kKkAlg, kAdvLevel, kRandOrder, kPatch, kSetArr };

std::unique_ptr<StreamingSetCoverAlgorithm> Make(AlgKind kind,
                                                 uint64_t seed) {
  switch (kind) {
    case kKkAlg:
      return std::make_unique<KkAlgorithm>(seed);
    case kAdvLevel:
      return std::make_unique<AdversarialLevelAlgorithm>(seed);
    case kRandOrder:
      return std::make_unique<RandomOrderAlgorithm>(seed);
    case kPatch:
      return std::make_unique<FirstSetPatching>();
    case kSetArr:
      return std::make_unique<SetArrivalThreshold>();
  }
  return nullptr;
}

const char* KindName(AlgKind kind) {
  switch (kind) {
    case kKkAlg:
      return "kk";
    case kAdvLevel:
      return "adversarial-level";
    case kRandOrder:
      return "random-order";
    case kPatch:
      return "first-set-patching";
    case kSetArr:
      return "set-arrival-threshold";
  }
  return "?";
}

// Workload and stream are generated once and shared by every benchmark
// in this binary: generation costs more than a measured iteration, and
// a shared fixture guarantees all BM_Throughput rows (and the threads
// sweep) rank algorithms on the identical edge sequence.
const SetCoverInstance& SharedInstance() {
  static const SetCoverInstance instance = [] {
    const uint32_t n = 1024;
    const uint32_t m = 262144;  // 256·n: ~0.7M edges
    return bench::PlantedWorkload(n, m, 8, /*seed=*/4242);
  }();
  return instance;
}

const EdgeStream& SharedStream() {
  static const EdgeStream stream = [] {
    Rng rng(17);
    return RandomOrderStream(SharedInstance(), rng);
  }();
  return stream;
}

void IngestBatched(StreamingSetCoverAlgorithm& algorithm,
                   const EdgeStream& stream) {
  algorithm.Begin(stream.meta);
  std::span<const Edge> edges(stream.edges);
  for (size_t offset = 0; offset < edges.size();
       offset += kIngestBatchEdges) {
    algorithm.ProcessEdgeBatch(edges.subspan(
        offset, std::min(kIngestBatchEdges, edges.size() - offset)));
  }
}

void BM_Throughput(benchmark::State& state) {
  const AlgKind kind = static_cast<AlgKind>(state.range(0));
  const EdgeStream& stream = SharedStream();

  for (auto _ : state) {
    auto algorithm = Make(kind, 3);
    IngestBatched(*algorithm, stream);
    benchmark::DoNotOptimize(algorithm->Finalize());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stream.size()));
  state.SetLabel(KindName(kind));
  state.counters["stream_edges"] = double(stream.size());
}

BENCHMARK(BM_Throughput)
    ->DenseRange(kKkAlg, kSetArr)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5);

// The ingest-ceiling rows: Begin + batched ProcessEdgeBatch only — no
// Finalize — so the number is the pure per-edge cost of the streaming
// rule, the ceiling any deployment of that algorithm can sustain. These
// are the rows the SIMD batch kernels (util/simd.h) exist to lift, and
// scripts/check.sh --bench-smoke gates each one at 0.7x the committed
// baseline so a kernel regression fails CI. docs/performance.md keeps
// the human-readable table.
void BM_IngestCeiling(benchmark::State& state) {
  const AlgKind kind = static_cast<AlgKind>(state.range(0));
  const EdgeStream& stream = SharedStream();

  for (auto _ : state) {
    auto algorithm = Make(kind, 3);
    IngestBatched(*algorithm, stream);
    benchmark::DoNotOptimize(algorithm->Meter().PeakWords());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stream.size()));
  state.SetLabel(std::string("ingest-ceiling/") + KindName(kind));
  state.counters["stream_edges"] = double(stream.size());
}

BENCHMARK(BM_IngestCeiling)
    ->Arg(kKkAlg)
    ->Arg(kAdvLevel)
    ->Arg(kRandOrder)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5);

// The parallel-guess wrapper across thread counts. Results are
// bit-identical at every point of this sweep (thread_pool_test proves
// it); only the wall-clock should move, and only on multi-core hosts.
void BM_NGuessThreads(benchmark::State& state) {
  const unsigned threads = static_cast<unsigned>(state.range(0));
  const EdgeStream& stream = SharedStream();

  for (auto _ : state) {
    NGuessRandomOrder algorithm(/*seed=*/3, RandomOrderParams{}, threads);
    IngestBatched(algorithm, stream);
    benchmark::DoNotOptimize(algorithm.Finalize());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stream.size()));
  state.SetLabel("random-order-nguess");
  state.counters["threads"] = double(threads);
  state.counters["stream_edges"] = double(stream.size());
  // Parallel-speedup rows are only comparable between hosts with the
  // same core count; the gate in scripts/check.sh reads this to
  // annotate-and-skip cross-host comparisons instead of gating flat
  // single-core numbers against a multi-core baseline (or vice versa).
  state.counters["num_cpus"] = double(std::thread::hardware_concurrency());
}

BENCHMARK(BM_NGuessThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()  // worker threads carry the load; CPU time of the
                     // calling thread alone would fake a speedup
    ->MinTime(0.5);

// The engine's own in-memory entry point: the same kk run as the
// BM_Throughput row, but through engine::Execute — algorithm
// resolution, the session's zero-copy batch path, finalize and report
// stamping
// — so the gap between the two rows is the engine's overhead over a
// hand-driven loop.
void BM_ExecuteIngest(benchmark::State& state) {
  const EdgeStream& stream = SharedStream();
  engine::RunConfig config;
  config.algorithm = "kk";
  config.options.seed = 3;
  config.source = engine::SourceSpec::InMemory(stream);

  for (auto _ : state) {
    engine::RunReport report = engine::Execute(config);
    if (!report.completed) {
      state.SkipWithError(report.error.c_str());
      break;
    }
    benchmark::DoNotOptimize(report.solution.cover.size());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stream.size()));
  state.SetLabel("execute-ingest/kk");
  state.counters["stream_edges"] = double(stream.size());
}

BENCHMARK(BM_ExecuteIngest)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->MinTime(0.5);

// ---- Offline-kernel rows: the bucket-queue greedy vs the lazy-heap
// reference it replaced (identical outputs, greedy_kernel_test), the
// counting-sort orderings, and the CSR instance build. items/s = edges/s
// throughout, so these rows compare directly with the ingest rows.

void BM_GreedyCover(benchmark::State& state) {
  const SetCoverInstance& instance = SharedInstance();
  GreedyWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyCover(instance, &workspace));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(instance.NumEdges()));
  state.SetLabel("greedy/bucket-queue");
  state.counters["cover_size"] =
      double(GreedyCover(instance, &workspace).cover.size());
}

BENCHMARK(BM_GreedyCover)->Unit(benchmark::kMillisecond)->MinTime(0.5);

void BM_GreedyCoverReference(benchmark::State& state) {
  const SetCoverInstance& instance = SharedInstance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyCoverReference(instance));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(instance.NumEdges()));
  state.SetLabel("greedy/reference-heap");
}

BENCHMARK(BM_GreedyCoverReference)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5);

void BM_OrderedStream(benchmark::State& state) {
  const StreamOrder order = static_cast<StreamOrder>(state.range(0));
  const SetCoverInstance& instance = SharedInstance();
  for (auto _ : state) {
    Rng rng(17);
    benchmark::DoNotOptimize(OrderedStream(instance, order, rng));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(instance.NumEdges()));
  state.SetLabel("ordered-stream/" + StreamOrderName(order));
}

BENCHMARK(BM_OrderedStream)
    ->Arg(int(StreamOrder::kElementMajor))
    ->Arg(int(StreamOrder::kRoundRobinSets))
    ->Arg(int(StreamOrder::kLargeSetsLast))
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.5);

void BM_InstanceBuild(benchmark::State& state) {
  // FromEdges over the shuffled shared stream: the radix build every
  // Finalize() of the buffering algorithms runs.
  const EdgeStream& stream = SharedStream();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SetCoverInstance::FromEdges(
        stream.meta.num_elements, stream.meta.num_sets, stream.edges));
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stream.size()));
  state.SetLabel("instance-build/from-edges");
}

BENCHMARK(BM_InstanceBuild)->Unit(benchmark::kMillisecond)->MinTime(0.5);

struct ReplayConfig {
  const char* label;
  StreamFormat format;
  bool prefetch;
};

constexpr ReplayConfig kReplayConfigs[] = {
    {"file-replay/v2-mmap-sync", StreamFormat::kV2, false},
    {"file-replay/v2-mmap-prefetch", StreamFormat::kV2, true},
    {"file-replay/v3-mmap-sync", StreamFormat::kV3, false},
    {"file-replay/v3-mmap-prefetch", StreamFormat::kV3, true},
};

/// The shared stream, written once per format into a private mkdtemp
/// directory (so two concurrent runs never write the same file or its
/// ".tmp" staging name) and removed with that directory at exit.
class ReplayFiles {
 public:
  ReplayFiles() {
    std::string dir = "/tmp";
    if (const char* tmp = std::getenv("TMPDIR"); tmp != nullptr && *tmp)
      dir = tmp;
    dir += "/setcover_bench_replay.XXXXXX";
    if (::mkdtemp(dir.data()) == nullptr) {
      std::perror("bench: mkdtemp");
      std::abort();
    }
    dir_ = dir;
  }
  ReplayFiles(const ReplayFiles&) = delete;
  ReplayFiles& operator=(const ReplayFiles&) = delete;
  ~ReplayFiles() {
    for (const std::string& path : paths_)
      if (!path.empty()) std::remove(path.c_str());
    ::rmdir(dir_.c_str());
  }

  const std::string& Path(StreamFormat format) {
    std::string& path = paths_[uint32_t(format)];
    if (path.empty()) {
      path = dir_ + "/replay_v" + std::to_string(uint32_t(format)) + ".bin";
      std::string error;
      if (!WriteStreamFile(SharedStream(), path, format, &error)) {
        std::fprintf(stderr, "bench: cannot write %s: %s\n", path.c_str(),
                     error.c_str());
        std::abort();
      }
    }
    return path;
  }

 private:
  std::string dir_;
  std::string paths_[4];  // indexed by format version
};

/// The replay file of `format`, shared by every BM_FileReplay row.
const std::string& ReplayPath(StreamFormat format) {
  static ReplayFiles files;
  return files.Path(format);
}

uint64_t FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  return uint64_t(size);
}

// End-to-end file replay through the cheapest consumer
// (first-set-patching), so decode/CRC/IO cost dominates and the rows
// rank the read pipelines rather than the algorithms.
void BM_FileReplay(benchmark::State& state) {
  const ReplayConfig& config = kReplayConfigs[state.range(0)];
  const EdgeStream& stream = SharedStream();
  const std::string& path = ReplayPath(config.format);
  StreamReadOptions options;
  options.prefetch = config.prefetch;
  engine::RunConfig run;
  run.source = engine::SourceSpec::File(path, options);

  for (auto _ : state) {
    FirstSetPatching algorithm;
    run.algorithm_instance = &algorithm;
    engine::RunReport report = engine::Execute(run);
    if (!report.completed) {
      state.SkipWithError(report.error.c_str());
      break;
    }
    benchmark::DoNotOptimize(report.solution.cover.size());
  }
  state.SetItemsProcessed(int64_t(state.iterations()) *
                          int64_t(stream.size()));
  state.SetLabel(config.label);
  state.counters["stream_edges"] = double(stream.size());
  state.counters["file_bytes"] = double(FileBytes(path));
  state.counters["bytes_per_edge"] =
      double(FileBytes(path)) / double(stream.size());
}

BENCHMARK(BM_FileReplay)
    ->DenseRange(0, 3)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()  // the prefetch worker carries part of the load
    ->MinTime(0.5);

}  // namespace
}  // namespace setcover

BENCHMARK_MAIN();
