// The two batch workloads: t1-file and adv-ckpt. Each solves one
// generated instance over and over in this process, single-threaded.
//
// Untraced solves go through engine::Execute exactly as a library user
// would. The traced run interleaves, per op, one untraced solve (for
// the engine's own stage timings) with two solves the benchmark drives
// itself through the layers' public functions (solve.h): one recording
// spans and one with no lane, which records nothing, in alternating
// order. The two differ only in the spans, so their gap is the tracing
// cost. Both must reproduce the untraced cover, certificate and
// (adv-ckpt) last checkpoint file byte for byte.

#include <malloc.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "solve.h"
#include "stream/stream_file.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace setcover;

// Table 1's regime: random order, m = n², Algorithm 1, from a file.
constexpr BatchWorkload kT1File{"random-order", 1024, 1u << 20,
                                StreamOrder::kRandom, true, 0};

// Adversarial (element-major) order through Algorithm 2 under
// supervision. 150000 edges gives 4 checkpoints on every seed
// (N ≈ 655K ± 2K, so N / 150000 never crosses an integer).
constexpr BatchWorkload kAdvCkpt{"adversarial-level", 1024, 1u << 18,
                                 StreamOrder::kElementMajor, false, 150000};

/// Empty when `report` is a complete, validated, undamaged solve equal
/// to `expected` (when given); otherwise what is wrong with it.
std::string CheckReport(const engine::RunReport& report,
                        const Inputs& inputs, const CoverSolution* expected) {
  if (!report.completed) return "solve failed: " + report.error;
  if (!report.validated || !report.validation.ok)
    return "invalid cover: " + report.validation.error;
  if (report.degraded || report.edges_delivered != inputs.meta.stream_length)
    return "solve did not consume the whole stream";
  if (expected != nullptr && !SameSolution(report.solution, *expected))
    return "cover differs from the first solve of the same input";
  return "";
}

/// Reads the whole file through the synchronous reader, with no
/// algorithm: the stream layer's own decode rate.
std::string DecodePass(const Inputs& inputs, Lane* lane, uint64_t op) {
  ScopedSpan span(lane, "stream.decode_pass", op, 0);
  StreamReadOptions sync;
  sync.prefetch = false;
  std::string error;
  auto reader = OpenBatchEdgeReader(inputs.stream_path, sync, &error);
  if (reader == nullptr) return error;
  size_t edges = 0;
  for (auto batch = reader->NextBatch(); !batch.empty();
       batch = reader->NextBatch())
    edges += batch.size();
  return edges == inputs.meta.stream_length ? "" : "decode pass short";
}

RunResult RunBatch(const BatchWorkload& workload,
                   const RunSettings& settings) {
  RunResult result;
  const std::string untraced_checkpoint = settings.scratch + "/untraced.sckp";
  const std::string traced_checkpoint = settings.scratch + "/traced.sckp";

  // Set-up: inputs, the certified lower bound, and one warm-up solve
  // per algorithm seed, whose answers every later solve must reproduce.
  // Each repetition writes a new stream file rather than replacing the
  // last one, as a single set-up would.
  std::vector<double> setup_seconds;
  std::unique_ptr<Inputs> inputs;
  Clock::time_point next_setup = Clock::now();
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    std::this_thread::sleep_until(next_setup);
    inputs.reset();
    const auto start = Clock::now();
    next_setup = start + kSetupSpacing;
    std::string error;
    inputs = BuildInputs(
        workload, settings.seed,
        settings.scratch + "/stream" + std::to_string(rep) + ".v3", &error);
    ++result.attempted;
    if (inputs == nullptr) {
      result.Fail("set-up failed: " + error);
      return result;
    }
    if (rep + 1 == kSetupRepetitions) {
      // From here on VmHWM covers the solves, not input generation: the
      // generator's freed heap goes back to the kernel first.
      malloc_trim(0);
      if (!ResetPeakRss())
        std::fprintf(stderr, "perfbench: cannot reset VmHWM; peak_rss_mb "
                             "includes input generation\n");
      inputs->rss_after_inputs_mb = ReadRssMb(0);
    }
    for (uint64_t i = 0; i < kSolveSeeds; ++i) {
      engine::RunReport warm = SolveUntraced(
          workload, *inputs, settings.seed + i, untraced_checkpoint);
      const std::string problem = CheckReport(warm, *inputs, nullptr);
      if (!problem.empty()) {
        result.Fail("warm-up " + problem);
        return result;
      }
      inputs->references.push_back(std::move(warm.solution));
    }
    setup_seconds.push_back(SecondsSince(start));
  }
  // What the warm-up solves added to the resident set; read before any
  // span is recorded, so the tracer's own memory stays out of it.
  const double peak_after_setup_mb = ReadPeakRssMb(0);
  const Inputs& in = *inputs;
  const double edges = double(in.meta.stream_length);

  Trace trace;
  Lane* lane = settings.trace ? trace.AddLane() : nullptr;
  std::vector<double> solve_s, finalize_s, setup_stage_s, stage_stream_s;
  std::vector<double> stage_validate_s, batches, peak_words, cover_ratio;
  std::vector<double> checkpoint_s, checkpoints, state_words;
  std::vector<double> epoch0_sampled, patched, traced_s, spanless_s;
  std::map<uint64_t, double> untraced_by_op;

  const auto deadline =
      Clock::now() + std::chrono::duration<double>(settings.seconds);
  uint64_t op = 0;
  do {
    ++op;
    const uint64_t seed_index = op % kSolveSeeds;
    const uint64_t seed = settings.seed + seed_index;
    const CoverSolution& reference = in.references[seed_index];
    const auto start = Clock::now();
    engine::RunReport report;
    {
      ScopedSpan span(lane, "engine.execute", op, 0);
      report = SolveUntraced(workload, in, seed, untraced_checkpoint);
    }
    const double wall = SecondsSince(start);
    ++result.attempted;
    const std::string problem = CheckReport(report, in, &reference);
    if (!problem.empty()) {
      result.Fail(problem);
      continue;
    }
    const engine::StageStats& stages = report.stages;
    solve_s.push_back(wall);
    untraced_by_op[op] = wall;
    finalize_s.push_back(stages.finalize_seconds);
    setup_stage_s.push_back(stages.setup_seconds);
    stage_stream_s.push_back(stages.stream_seconds);
    stage_validate_s.push_back(stages.validate_seconds);
    batches.push_back(double(stages.batches));
    peak_words.push_back(double(report.peak_words));
    cover_ratio.push_back(double(reference.cover.size()) / in.lower_bound);
    checkpoints.push_back(double(report.checkpoints_written));
    if (!settings.trace) continue;

    // Even ops record spans first, odd ops second.
    for (const bool spans : {op % 2 == 0, op % 2 != 0}) {
      TracedSolve traced = SolveTraced(workload, in, seed, traced_checkpoint,
                                       spans ? lane : nullptr, op);
      ++result.attempted;
      if (!traced.error.empty()) {
        result.Fail(traced.error);
      } else if (!SameSolution(traced.solution, reference)) {
        result.Fail("traced cover differs from the untraced cover");
      } else if (workload.checkpoint_every > 0 &&
                 ReadFile(traced_checkpoint) !=
                     ReadFile(untraced_checkpoint)) {
        result.Fail("traced checkpoint bytes differ from the engine's");
      } else if (!spans) {
        spanless_s.push_back(traced.seconds);
      } else {
        traced_s.push_back(traced.seconds);
        checkpoint_s.insert(checkpoint_s.end(),
                            traced.checkpoint_seconds.begin(),
                            traced.checkpoint_seconds.end());
        state_words.push_back(double(traced.state_words));
        epoch0_sampled.push_back(double(traced.epoch0_sampled));
        patched.push_back(double(traced.patched));
      }
    }
    if (workload.from_file) {
      ++result.attempted;
      const std::string decode_problem = DecodePass(in, lane, op);
      if (!decode_problem.empty()) result.Fail(decode_problem);
    }
  } while (Clock::now() < deadline);

  char note[256];
  std::snprintf(note, sizeof note,
                "# %s: n=%u m=%u N=%zu LB=%.3f planted=%zu",
                settings.workload.c_str(), in.meta.num_elements,
                in.meta.num_sets, in.meta.stream_length, in.lower_bound,
                in.instance.PlantedCover().size());
  result.notes.push_back(note);
  const SolveTimes solve = SolveTimesOf(solve_s, edges);
  AddNote(solve, solve_s.size(), &result);

  if (!settings.trace) {
    EndToEnd e2e;
    e2e.setup_s = Median(setup_seconds);
    e2e.peak_rss_mb = ReadPeakRssMb(0);
    e2e.peak_words = Median(peak_words);
    e2e.cover_ratio = Median(cover_ratio);
    e2e.success_frac =
        double(result.attempted - result.failed) / double(result.attempted);
    AddMetrics(e2e, &result);
    return result;
  }

  PerLayer layers;
  layers.solve = solve;
  if (workload.from_file) {
    layers.stream_open_ms = trace.MedianOverOps("stream.open") * 1e3;
    layers.stream_decode_ms = trace.MedianOverOps("stream.next_batch") * 1e3;
    const double decode_pass = Median(trace.Durations("stream.decode_pass"));
    layers.stream_decode_edges_per_s =
        decode_pass > 0 ? edges / decode_pass : 0;
    layers.stream_bytes_per_edge = double(in.stream_bytes) / edges;
  }
  const double ingest = trace.MedianOverOps("core.ingest");
  layers.core_begin_ms = trace.MedianOverOps("core.begin") * 1e3;
  layers.core_ingest_ms = ingest * 1e3;
  layers.core_ingest_edges_per_s = ingest > 0 ? edges / ingest : 0;
  layers.core_finalize_ms = trace.MedianOverOps("core.finalize") * 1e3;
  layers.core_state_words = Median(state_words);
  layers.core_ro_epoch0_sampled = Median(epoch0_sampled);
  layers.core_ro_patched = Median(patched);
  layers.instance_validate_ms =
      trace.MedianOverOps("instance.validate") * 1e3;
  if (workload.checkpoint_every > 0) {
    layers.run_checkpoint_write_ms_p50 = Quantile(checkpoint_s, 0.5) * 1e3;
    layers.run_checkpoint_write_ms_max = Max(checkpoint_s) * 1e3;
    layers.run_checkpoint_bytes = double(FileBytes(traced_checkpoint));
    layers.run_checkpoints = Median(checkpoints);
  }
  layers.engine_stage_setup_ms = Median(setup_stage_s) * 1e3;
  layers.engine_stage_stream_ms = Median(stage_stream_s) * 1e3;
  layers.engine_stage_finalize_ms = Median(finalize_s) * 1e3;
  layers.engine_stage_validate_ms = Median(stage_validate_s) * 1e3;
  layers.engine_batches = Median(batches);
  // What the engine spends outside every layer call the traced solve
  // makes: untraced wall time minus the traced layer spans of the op.
  static const char* const kLayerSpans[] = {
      "stream.open",       "core.begin",    "stream.next_batch",
      "core.ingest",       "run.checkpoint", "core.finalize",
      "instance.validate", "core.free",     "stream.close"};
  std::map<uint64_t, double> layer_sum;
  for (const char* name : kLayerSpans)
    for (const auto& [id, seconds] : trace.TotalByOp(name))
      layer_sum[id] += seconds;
  std::vector<double> overhead;
  for (const auto& [id, seconds] : layer_sum)
    overhead.push_back(untraced_by_op[id] - seconds);
  layers.engine_overhead_ms = Median(overhead) * 1e3;
  layers.mem_rss_after_setup_mb = in.rss_after_inputs_mb;
  layers.mem_rss_growth_mb = peak_after_setup_mb - in.rss_after_inputs_mb;
  layers.trace_overhead_ms = (Median(traced_s) - Median(spanless_s)) * 1e3;
  AddMetrics(layers, &result);
  if (!trace.Write(settings.trace_path))
    result.Fail("cannot write spans to " + settings.trace_path);
  return result;
}

}  // namespace

RunResult RunT1File(const RunSettings& settings) {
  return RunBatch(kT1File, settings);
}

RunResult RunAdvCkpt(const RunSettings& settings) {
  return RunBatch(kAdvCkpt, settings);
}

}  // namespace perfbench
