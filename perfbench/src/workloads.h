#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's workloads and the metric sets they report. Every
// workload reports every metric (BENCHMARK.json lists them); a layer a
// workload does not exercise reports 0 in the traced run.

#include <chrono>
#include <cstdint>
#include <vector>

#include "measure.h"

namespace perfbench {

/// End-to-end metrics: the untraced run (--trace 0). Only figures that
/// hold steady from run to run on a shared host carry a bound; wall
/// times are per-layer (see perfbench/README.md).
struct EndToEnd {
  double setup_s = 0;       // median of the run's set-up repetitions
  double peak_rss_mb = 0;   // VmHWM of the process doing the work
  double peak_words = 0;    // metered peak words of the algorithm
  double cover_ratio = 0;   // cover size / certified dual lower bound
  double success_frac = 0;  // ops that passed every check / attempted
};

/// Wall time of the benchmark's unit of work: one engine::Execute solve
/// (batch) or one session, open to close (push).
struct SolveTimes {
  double ms_p10 = 0, ms_p50 = 0, ms_p90 = 0;
  double edges_per_s = 0;  // batch: N / p50 solve; push: acked edges/s
};

/// Per-layer metrics: the traced run (--trace 1).
struct PerLayer {
  SolveTimes solve;
  double stream_open_ms = 0, stream_decode_ms = 0;
  double stream_decode_edges_per_s = 0, stream_bytes_per_edge = 0;
  double core_begin_ms = 0;
  double core_ingest_ms = 0, core_ingest_edges_per_s = 0;
  double core_finalize_ms = 0, core_state_words = 0;
  double core_ro_epoch0_sampled = 0, core_ro_patched = 0;
  double instance_validate_ms = 0;
  double run_checkpoint_write_ms_p50 = 0, run_checkpoint_write_ms_max = 0;
  double run_checkpoint_bytes = 0, run_checkpoints = 0;
  double engine_stage_setup_ms = 0, engine_stage_stream_ms = 0;
  double engine_stage_finalize_ms = 0, engine_stage_validate_ms = 0;
  double engine_batches = 0, engine_overhead_ms = 0;
  double server_ingest_rtt_us_p50 = 0, server_ingest_rtt_us_p99 = 0;
  double server_queue_wait_us_p99 = 0;
  double server_open_ms = 0, server_close_ms = 0, server_wire_us = 0;
  double server_sheds = 0, server_reconnects = 0, server_frames = 0;
  double server_ack_us_p50 = 0, server_ack_us_p99 = 0;
  double server_finalize_ms_p50 = 0, server_gen_lag_ms = 0;
  double server_shed_frac = 0;
  double engine_session_apply_ms = 0, run_session_checkpoints = 0;
  double mem_rss_after_setup_mb = 0, mem_rss_growth_mb = 0;
  double trace_overhead_ms = 0;
};

void AddMetrics(const EndToEnd& e2e, RunResult* result);
void AddMetrics(const PerLayer& layers, RunResult* result);
/// Prints the solve times as a note line, so untraced runs show them.
void AddNote(const SolveTimes& solve, size_t samples, RunResult* result);

/// Quantiles of per-op seconds; edges/s from the median.
SolveTimes SolveTimesOf(const std::vector<double>& seconds, double edges);

RunResult RunT1File(const RunSettings& settings);
RunResult RunAdvCkpt(const RunSettings& settings);
RunResult RunPushDurable(const RunSettings& settings);

/// Set-up is repeated this many times per run and its median reported,
/// so one slow repetition does not move setup_s.
inline constexpr int kSetupRepetitions = 5;

/// Repetitions start at least this far apart. On a shared host speed
/// drifts in phases lasting seconds; spaced out, the median samples
/// several of them instead of one moment.
inline constexpr auto kSetupSpacing = std::chrono::milliseconds(1250);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
