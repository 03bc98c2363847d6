// perfbench_driver — runs one benchmark workload and prints its result.
//
//   perfbench_driver --workload t1-file|adv-ckpt|push-durable --seed N
//                    --seconds S --trace 0|1 --scratch DIR
//                    [--trace-out FILE] [--server-bin PATH]
//
// --trace-out is required with --trace 1, --server-bin with push-durable.
//
// All files of the run (stream file, checkpoints, the daemon's socket
// and state dir) live in DIR/run-<pid>, which is removed at exit. The
// last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"} — end-to-end metrics untraced, per-layer metrics
// with --trace 1 (whose spans go to --trace-out). Exit status 0 iff
// every op passed its correctness checks; 2 on a usage error.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <system_error>

#include "measure.h"
#include "workloads.h"

namespace perfbench {

void AddMetrics(const EndToEnd& e, RunResult* r) {
  r->Add("setup_s", e.setup_s, "s");
  r->Add("peak_rss_mb", e.peak_rss_mb, "MiB");
  r->Add("peak_words", e.peak_words, "words");
  r->Add("cover_ratio", e.cover_ratio, "ratio");
  r->Add("success_frac", e.success_frac, "fraction");
}

SolveTimes SolveTimesOf(const std::vector<double>& seconds, double edges) {
  SolveTimes t;
  t.ms_p10 = Quantile(seconds, 0.1) * 1e3;
  t.ms_p50 = Quantile(seconds, 0.5) * 1e3;
  t.ms_p90 = Quantile(seconds, 0.9) * 1e3;
  t.edges_per_s = t.ms_p50 > 0 ? edges / t.ms_p50 * 1e3 : 0;
  return t;
}

void AddNote(const SolveTimes& t, size_t samples, RunResult* r) {
  char note[256];
  std::snprintf(note, sizeof note,
                "# solve_ms: p10=%.3f p50=%.3f p90=%.3f (%zu samples) "
                "edges_per_s=%.4g",
                t.ms_p10, t.ms_p50, t.ms_p90, samples, t.edges_per_s);
  r->notes.push_back(note);
}

void AddMetrics(const PerLayer& l, RunResult* r) {
  r->Add("solve.ms.p10", l.solve.ms_p10, "ms");
  r->Add("solve.ms.p50", l.solve.ms_p50, "ms");
  r->Add("solve.ms.p90", l.solve.ms_p90, "ms");
  r->Add("solve.edges_per_s", l.solve.edges_per_s, "edges/s");
  r->Add("stream.open_ms", l.stream_open_ms, "ms");
  r->Add("stream.decode_ms", l.stream_decode_ms, "ms");
  r->Add("stream.decode_edges_per_s", l.stream_decode_edges_per_s,
         "edges/s");
  r->Add("stream.bytes_per_edge", l.stream_bytes_per_edge, "B/edge");
  r->Add("core.begin_ms", l.core_begin_ms, "ms");
  r->Add("core.ingest_ms", l.core_ingest_ms, "ms");
  r->Add("core.ingest_edges_per_s", l.core_ingest_edges_per_s, "edges/s");
  r->Add("core.finalize_ms", l.core_finalize_ms, "ms");
  r->Add("core.state_words", l.core_state_words, "words");
  r->Add("core.ro.epoch0_sampled", l.core_ro_epoch0_sampled, "sets");
  r->Add("core.ro.patched", l.core_ro_patched, "sets");
  r->Add("instance.validate_ms", l.instance_validate_ms, "ms");
  r->Add("run.checkpoint_write_ms.p50", l.run_checkpoint_write_ms_p50, "ms");
  r->Add("run.checkpoint_write_ms.max", l.run_checkpoint_write_ms_max, "ms");
  r->Add("run.checkpoint_bytes", l.run_checkpoint_bytes, "B");
  r->Add("run.checkpoints", l.run_checkpoints, "count");
  r->Add("engine.stage.setup_ms", l.engine_stage_setup_ms, "ms");
  r->Add("engine.stage.stream_ms", l.engine_stage_stream_ms, "ms");
  r->Add("engine.stage.finalize_ms", l.engine_stage_finalize_ms, "ms");
  r->Add("engine.stage.validate_ms", l.engine_stage_validate_ms, "ms");
  r->Add("engine.batches", l.engine_batches, "count");
  r->Add("engine.overhead_ms", l.engine_overhead_ms, "ms");
  r->Add("server.ingest_rtt_us.p50", l.server_ingest_rtt_us_p50, "us");
  r->Add("server.ingest_rtt_us.p99", l.server_ingest_rtt_us_p99, "us");
  r->Add("server.queue_wait_us.p99", l.server_queue_wait_us_p99, "us");
  r->Add("server.open_ms", l.server_open_ms, "ms");
  r->Add("server.close_ms", l.server_close_ms, "ms");
  r->Add("server.wire_us", l.server_wire_us, "us");
  r->Add("server.sheds", l.server_sheds, "count");
  r->Add("server.reconnects", l.server_reconnects, "count");
  r->Add("server.frames", l.server_frames, "count");
  r->Add("server.ack_us.p50", l.server_ack_us_p50, "us");
  r->Add("server.ack_us.p99", l.server_ack_us_p99, "us");
  r->Add("server.finalize_ms.p50", l.server_finalize_ms_p50, "ms");
  r->Add("server.gen_lag_ms", l.server_gen_lag_ms, "ms");
  r->Add("server.shed_frac", l.server_shed_frac, "fraction");
  r->Add("engine.session.apply_ms", l.engine_session_apply_ms, "ms");
  r->Add("run.session_checkpoints", l.run_session_checkpoints, "count");
  r->Add("mem.rss_after_setup_mb", l.mem_rss_after_setup_mb, "MiB");
  r->Add("mem.rss_growth_mb", l.mem_rss_growth_mb, "MiB");
  r->Add("trace.overhead_ms", l.trace_overhead_ms, "ms");
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "t1-file|adv-ckpt|push-durable --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--trace-out FILE] "
               "[--server-bin PATH]\n",
               why);
  return 2;
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0)
      return Usage(("stray argument " + key).c_str());
    key = key.substr(2);
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      args[key.substr(0, eq)] = key.substr(eq + 1);
    } else if (i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return Usage(("missing value for --" + key).c_str());
    }
  }
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "scratch"})
    if (!args.count(required))
      return Usage((std::string("missing --") + required).c_str());

  RunSettings settings;
  settings.workload = args["workload"];
  char* end = nullptr;
  settings.seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage("--seed must be a whole number");
  settings.seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(settings.seconds > 0))
    return Usage("--seconds must be positive");
  if (args["trace"] != "0" && args["trace"] != "1")
    return Usage("--trace must be 0 or 1");
  settings.trace = args["trace"] == "1";
  settings.server_bin = args.count("server-bin") ? args["server-bin"] : "";
  settings.trace_path = args.count("trace-out") ? args["trace-out"] : "";
  if (settings.trace && settings.trace_path.empty())
    return Usage("--trace 1 needs --trace-out");

  RunResult (*run)(const RunSettings&) = nullptr;
  if (settings.workload == "t1-file") run = RunT1File;
  if (settings.workload == "adv-ckpt") run = RunAdvCkpt;
  if (settings.workload == "push-durable") run = RunPushDurable;
  if (run == nullptr) return Usage("unknown --workload");
  if (run == RunPushDurable && settings.server_bin.empty())
    return Usage("push-durable needs --server-bin");

  ScratchDir scratch{args["scratch"] + "/run-" + std::to_string(::getpid())};
  std::error_code error;
  std::filesystem::create_directories(scratch.path, error);
  if (error) {
    std::fprintf(stderr, "perfbench_driver: cannot create %s: %s\n",
                 scratch.path.c_str(), error.message().c_str());
    return 1;
  }
  settings.scratch = scratch.path;
  if (settings.trace) {
    const auto parent =
        std::filesystem::path(settings.trace_path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, error);
  }

  RunResult result = run(settings);
  for (const Metric& metric : result.metrics)
    if (!std::isfinite(metric.value))
      result.Fail("metric " + metric.name + " is not finite");

  for (const std::string& note : result.notes)
    std::printf("%s\n", note.c_str());
  for (const std::string& problem : result.problems)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", problem.c_str());

  std::string json = "{\"correct\": ";
  json += result.Correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    json += (i ? ", " : "") + JsonString(metric.name) + ": {\"value\": " +
            value + ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return result.Correct() ? 0 : 1;
}
