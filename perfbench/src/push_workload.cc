// push-durable: an open-loop client against the setcover_server daemon
// running as a child process with a state dir (durable sessions).
//
// kConnections client threads each own one unix-socket connection and
// run sessions back to back: open -> sequenced 512-edge ingests ->
// finalize -> close. Batches are due on a fixed schedule per connection
// (kOfferedEdgesPerSecond split evenly, connections offset by half a
// period) that runs on across session boundaries; a batch is sent when
// due or, if the previous call is still out, as soon as it returns.
// Ack latency is measured from the due time, so a stall — a checkpoint
// write, a session switch — is charged to every batch it delays.
//
// Every finalized cover and certificate must equal an in-process
// engine::Execute oracle over the same stream and seed.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "server/client.h"
#include "server/transport.h"
#include "solve.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace setcover;

constexpr uint32_t kElements = 1024;
constexpr uint32_t kSets = 1u << 16;
constexpr const char* kAlgorithm = "kk";
constexpr size_t kBatchEdges = 512;
constexpr uint64_t kCheckpointEvery = 16384;
constexpr int kConnections = 2;
constexpr int kServerWorkers = 2;
// About half the durable closed-loop capacity measured at this shape.
constexpr double kOfferedEdgesPerSecond = 2.0e6;

// The sessions' stream and the in-process oracle that checks them; the
// replica adds the daemon's checkpoint cadence to time its writes.
constexpr BatchWorkload kOracle{kAlgorithm, kElements, kSets,
                                StreamOrder::kRandom, false, 0};
constexpr BatchWorkload kReplica{kAlgorithm, kElements, kSets,
                                 StreamOrder::kRandom, false,
                                 kCheckpointEvery};
// Op ids of the replica's spans, apart from the session ids.
constexpr uint64_t kReplicaOp = 1ull << 32;

std::vector<uint32_t> ToU32(const std::vector<SetId>& ids) {
  return std::vector<uint32_t>(ids.begin(), ids.end());
}

/// The setcover_server child process. Stop() (or the destructor) sends
/// SIGTERM, which drains the server, and reaps it; a daemon that does
/// not exit within 10 s is killed.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Stop(); }

  bool Start(const std::string& binary, const std::string& socket_path,
             const std::string& state_dir, const std::string& log_path,
             std::string* error) {
    socket_path_ = socket_path;
    if (::mkdir(state_dir.c_str(), 0755) != 0) {
      *error = "cannot create state dir " + state_dir;
      return false;
    }
    const std::string socket_flag = "--socket=" + socket_path;
    const std::string state_flag = "--state-dir=" + state_dir;
    const std::string workers_flag =
        "--workers=" + std::to_string(kServerWorkers);
    const char* argv[] = {binary.c_str(), socket_flag.c_str(),
                          state_flag.c_str(), workers_flag.c_str(), nullptr};
    // Forked while this process is still single-threaded; the child
    // only makes async-signal-safe calls before exec.
    pid_ = ::fork();
    if (pid_ == 0) {
      // The daemon must not outlive the benchmark, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int log = ::open(log_path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
      }
      ::execv(binary.c_str(), const_cast<char* const*>(argv));
      ::_exit(127);
    }
    if (pid_ < 0) {
      pid_ = 0;
      *error = "cannot start " + binary;
      return false;
    }
    // Ready once the socket accepts a connection.
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (Clock::now() < deadline) {
      std::string ignored;
      if (server::ConnectUnix(socket_path_, &ignored) != nullptr) return true;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = 0;
        *error = "setcover_server exited at start-up (see " + log_path + ")";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    *error = "setcover_server did not listen within 10 s";
    return false;
  }

  pid_t pid() const { return pid_; }
  const std::string& socket_path() const { return socket_path_; }

  /// True when the daemon exited cleanly (status 0) after SIGTERM.
  bool Stop() {
    if (pid_ == 0) return true;
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() >= deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = 0;
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = 0;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = 0;
  std::string socket_path_;
};

server::SessionClient MakeClient(const std::string& socket_path,
                                 uint64_t jitter_seed) {
  server::ClientOptions options;
  options.backoff.max_retries = 10000;
  options.backoff.initial_delay_us = 1;
  options.backoff.max_delay_us = 200;
  options.backoff.jitter = 0.5;
  options.backoff.jitter_seed = jitter_seed;
  return server::SessionClient(
      [socket_path](std::string* error) {
        return server::ConnectUnix(socket_path, error);
      },
      options);
}

server::OpenBody OpenFor(const Inputs& inputs, uint64_t seed) {
  server::OpenBody open;
  open.algorithm = kAlgorithm;
  open.seed = seed;
  open.meta = inputs.meta;
  open.checkpoint_every = kCheckpointEvery;
  return open;
}

/// What one connection thread observed.
struct ConnectionLog {
  std::vector<double> ack_us;        // due -> ack, per batch
  std::vector<double> lag_us;        // due -> send, per batch
  std::vector<double> session_s_traced, session_s_untraced;
  std::vector<double> finalize_ms;
  std::vector<double> cover_ratio;
  std::vector<double> peak_words;
  // From session kStats before finalize (traced sessions).
  std::vector<double> apply_ms, session_checkpoints, wire_us;
  uint64_t ops = 0;
  uint64_t sessions = 0;
  uint64_t acked_edges = 0;
  uint64_t sheds = 0;
  uint64_t reconnects = 0;
  Clock::time_point last_ack;
  std::vector<std::string> problems;
};

/// One connection's open loop. In the traced run, even-numbered
/// sessions are traced and odd ones are not, so the traced and untraced
/// session times come from the same traffic.
void RunConnection(int connection, const Inputs& inputs,
                   const std::string& socket_path, uint64_t seed,
                   Clock::time_point start, Clock::time_point deadline,
                   Lane* lane, ConnectionLog* log) {
  // Wake-ups on time: the default 50 us timer slack would land in every
  // batch's lag.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  server::SessionClient client = MakeClient(socket_path, 100 + connection);
  const std::vector<Edge>& edges = inputs.stream.edges;
  const uint64_t batches = (edges.size() + kBatchEdges - 1) / kBatchEdges;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(double(kBatchEdges) * kConnections /
                                    kOfferedEdgesPerSecond));
  const Clock::time_point first_due = start + period * connection /
                                                  kConnections;
  uint64_t due_index = 0;

  for (uint64_t k = 0; Clock::now() < deadline; ++k) {
    const uint64_t session_id = uint64_t(connection) * 1000000 + k + 1;
    const uint64_t seed_index = session_id % kSolveSeeds;
    Lane* session_lane = (lane != nullptr && k % 2 == 0) ? lane : nullptr;
    const auto session_start = Clock::now();
    ScopedSpan root(session_lane, "session", session_id, 0);
    server::Message reply;
    std::string error;
    bool ok;
    {
      ScopedSpan span(session_lane, "server.open", session_id, root.id());
      ok = client.Open(session_id, OpenFor(inputs, seed + seed_index), &reply,
                       &error);
    }
    ++log->ops;
    if (!ok || reply.last_sequence != 0) {
      log->problems.push_back("open failed: " + error);
      return;
    }
    std::vector<double> rtt_us;
    for (uint64_t b = 0; b < batches; ++b) {
      const Clock::time_point due = first_due + period * due_index++;
      std::this_thread::sleep_until(due);
      const auto send = Clock::now();
      const size_t offset = b * kBatchEdges;
      const std::span<const Edge> batch(
          edges.data() + offset, std::min(kBatchEdges, edges.size() - offset));
      {
        ScopedSpan span(session_lane, "server.ingest", session_id, root.id());
        ok = client.Ingest(session_id, b + 1, batch, &reply, &error);
      }
      const auto ack = Clock::now();
      ++log->ops;
      if (!ok || reply.last_sequence != b + 1) {
        log->problems.push_back("ingest failed: " + error);
        return;
      }
      if (session_lane != nullptr)
        session_lane->Record("server.queue_wait", due, send, session_id,
                             root.id());
      log->ack_us.push_back(Seconds(due, ack) * 1e6);
      log->lag_us.push_back(Seconds(due, send) * 1e6);
      rtt_us.push_back(Seconds(send, ack) * 1e6);
      log->acked_edges += batch.size();
      log->last_ack = ack;
    }
    if (session_lane != nullptr) {
      {
        ScopedSpan span(session_lane, "server.stats", session_id, root.id());
        ok = client.Stats(session_id, &reply, &error);
      }
      ++log->ops;
      if (!ok) {
        log->problems.push_back("stats failed: " + error);
        return;
      }
      const engine::SessionStats& stats = reply.session_stats;
      const double apply_us =
          stats.stream_seconds * 1e6 /
          double(std::max<uint64_t>(stats.ingest_calls, 1));
      log->apply_ms.push_back(stats.stream_seconds * 1e3);
      log->session_checkpoints.push_back(double(stats.checkpoints_written));
      // The median round trip leaves out the batches that waited for a
      // checkpoint write; what remains beyond the apply is the wire.
      log->wire_us.push_back(Median(rtt_us) - apply_us);
    }
    const auto finalize_start = Clock::now();
    {
      ScopedSpan span(session_lane, "server.finalize", session_id, root.id());
      ok = client.Finalize(session_id, batches, &reply, &error);
    }
    log->finalize_ms.push_back(SecondsSince(finalize_start) * 1e3);
    ++log->ops;
    if (!ok) {
      log->problems.push_back("finalize failed: " + error);
      return;
    }
    const CoverSolution& oracle = inputs.references[seed_index];
    if (reply.degraded || reply.edges_delivered != edges.size() ||
        reply.cover != ToU32(oracle.cover) ||
        reply.certificate != ToU32(oracle.certificate)) {
      log->problems.push_back("session " + std::to_string(session_id) +
                              ": cover differs from the engine oracle");
    }
    log->cover_ratio.push_back(double(reply.cover.size()) /
                               inputs.lower_bound);
    log->peak_words.push_back(double(reply.peak_words));
    server::Message closed;
    {
      ScopedSpan span(session_lane, "server.close", session_id, root.id());
      ok = client.Close(session_id, &closed, &error);
    }
    ++log->ops;
    if (!ok) {
      log->problems.push_back("close failed: " + error);
      return;
    }
    (session_lane != nullptr ? log->session_s_traced
                             : log->session_s_untraced)
        .push_back(SecondsSince(session_start));
    ++log->sessions;
  }
  log->sheds = client.RetriesAfterShed();
  // Reconnects() counts every successful dial, the first one included.
  log->reconnects = client.Reconnects() - std::min<uint64_t>(
                                              client.Reconnects(), 1);
}

/// One set-up repetition: instance, stream, bound, oracles, a fresh
/// daemon on its own socket and state dir, and a warm-up session.
std::unique_ptr<Inputs> SetUp(const RunSettings& settings, int rep,
                              Daemon* daemon, double* rss_before_warmup,
                              std::string* error) {
  std::unique_ptr<Inputs> inputs =
      BuildInputs(kOracle, settings.seed, "", error);
  if (inputs == nullptr) return nullptr;
  // The oracles: one in-process engine::Execute per session seed.
  for (uint64_t i = 0; i < kSolveSeeds; ++i) {
    engine::RunReport report =
        SolveUntraced(kOracle, *inputs, settings.seed + i, "");
    if (!report.completed || !report.validation.ok) {
      *error = "oracle solve failed: " + report.error +
               report.validation.error;
      return nullptr;
    }
    inputs->references.push_back(std::move(report.solution));
  }

  const std::string tag = settings.scratch + "/server" + std::to_string(rep);
  if (!daemon->Start(settings.server_bin, tag + ".sock", tag + ".state",
                     tag + ".log", error))
    return nullptr;
  *rss_before_warmup = ReadRssMb(daemon->pid());

  server::SessionClient client = MakeClient(daemon->socket_path(), 1);
  server::Message reply;
  const uint64_t warmup_id = 999000000 + rep;
  server::RunSessionOptions run;
  run.batch_edges = kBatchEdges;
  // Pipelined, so set-up time is not a sum of ~320 thread wake-ups,
  // which drift with the host's load more than anything else in it.
  run.window = 8;
  if (!server::RunSessionToCompletion(&client, warmup_id,
                                      OpenFor(*inputs, settings.seed),
                                      inputs->stream.edges, run, &reply,
                                      error))
    return nullptr;
  if (reply.cover != ToU32(inputs->references[0].cover) ||
      reply.certificate != ToU32(inputs->references[0].certificate)) {
    *error = "warm-up session cover differs from the engine oracle";
    return nullptr;
  }
  server::Message closed;
  if (!client.Close(warmup_id, &closed, error)) return nullptr;
  return inputs;
}

/// The daemon's count of frames received, from a server-wide kStats.
bool ServerFrames(const std::string& socket_path, uint64_t* frames,
                  std::string* error) {
  server::SessionClient client = MakeClient(socket_path, 2);
  server::Message reply;
  if (!client.Stats(0, &reply, error)) return false;
  *frames = reply.frames_received;
  return true;
}

}  // namespace

RunResult RunPushDurable(const RunSettings& settings) {
  RunResult result;
  std::unique_ptr<Inputs> inputs;
  Daemon daemon;
  std::vector<double> setup_seconds;
  double rss_before_warmup = 0;
  Clock::time_point next_setup = Clock::now();
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    if (!daemon.Stop()) result.Fail("setcover_server did not drain cleanly");
    inputs.reset();
    std::this_thread::sleep_until(next_setup);
    const auto start = Clock::now();
    next_setup = start + kSetupSpacing;
    std::string error;
    ++result.attempted;
    inputs = SetUp(settings, rep, &daemon, &rss_before_warmup, &error);
    if (inputs == nullptr) {
      result.Fail("set-up failed: " + error);
      return result;
    }
    setup_seconds.push_back(SecondsSince(start));
  }

  uint64_t frames_before = 0, frames_after = 0;
  std::string error;
  ++result.attempted;
  if (!ServerFrames(daemon.socket_path(), &frames_before, &error))
    result.Fail("server stats before the run failed: " + error);
  Trace trace;
  std::vector<Lane*> lanes(kConnections, nullptr);
  if (settings.trace)
    for (Lane*& lane : lanes) lane = trace.AddLane();
  std::vector<ConnectionLog> logs(kConnections);
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(settings.seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c)
    threads.emplace_back(RunConnection, c, std::cref(*inputs),
                         daemon.socket_path(), settings.seed, start,
                         deadline, lanes[c], &logs[c]);
  for (std::thread& thread : threads) thread.join();
  ++result.attempted;
  if (!ServerFrames(daemon.socket_path(), &frames_after, &error))
    result.Fail("server stats after the run failed: " + error);
  else if (frames_after < frames_before)
    result.Fail("server frame count went backwards");
  const double daemon_peak_mb = ReadPeakRssMb(daemon.pid());
  if (!daemon.Stop()) result.Fail("setcover_server did not drain cleanly");

  ConnectionLog all;
  for (ConnectionLog& log : logs) {
    auto append = [](std::vector<double>& to,
                     const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(all.ack_us, log.ack_us);
    append(all.lag_us, log.lag_us);
    append(all.session_s_traced, log.session_s_traced);
    append(all.session_s_untraced, log.session_s_untraced);
    append(all.finalize_ms, log.finalize_ms);
    append(all.cover_ratio, log.cover_ratio);
    append(all.peak_words, log.peak_words);
    append(all.apply_ms, log.apply_ms);
    append(all.session_checkpoints, log.session_checkpoints);
    append(all.wire_us, log.wire_us);
    all.ops += log.ops;
    all.sessions += log.sessions;
    all.acked_edges += log.acked_edges;
    all.sheds += log.sheds;
    all.reconnects += log.reconnects;
    all.last_ack = std::max(all.last_ack, log.last_ack);
    for (const std::string& problem : log.problems) result.Fail(problem);
  }
  result.attempted += all.ops;

  char note[256];
  std::snprintf(note, sizeof note,
                "# push-durable: n=%u m=%u N=%zu LB=%.3f sessions=%llu "
                "batches=%zu offered=%.3g edges/s ack_us.p50=%.1f "
                "ack_us.p99=%.1f",
                kElements, kSets, inputs->meta.stream_length,
                inputs->lower_bound, (unsigned long long)all.sessions,
                all.ack_us.size(), kOfferedEdgesPerSecond,
                Quantile(all.ack_us, 0.5), Quantile(all.ack_us, 0.99));
  result.notes.push_back(note);
  // Session times of the untraced sessions; in the traced run, every
  // other session is untraced.
  SolveTimes solve = SolveTimesOf(all.session_s_untraced, 0);
  const double measured = Seconds(start, all.last_ack);
  solve.edges_per_s =
      measured > 0 ? double(all.acked_edges) / measured : 0;
  AddNote(solve, all.session_s_untraced.size(), &result);

  if (!settings.trace) {
    EndToEnd e2e;
    e2e.setup_s = Median(setup_seconds);
    e2e.peak_rss_mb = daemon_peak_mb;
    e2e.peak_words = Median(all.peak_words);
    e2e.cover_ratio = Median(all.cover_ratio);
    e2e.success_frac =
        double(result.attempted - result.failed) / double(result.attempted);
    AddMetrics(e2e, &result);
    return result;
  }

  PerLayer layers;
  layers.solve = solve;
  // The daemon's checkpoint writes cannot be timed from outside it, so
  // the same algorithm, stream and cadence are replayed in this process
  // with EncodeState + SaveCheckpoint timed per write.
  Lane* replica_lane = trace.AddLane();
  const std::string replica_checkpoint = settings.scratch + "/replica.sckp";
  std::vector<double> checkpoint_s, checkpoints, state_words;
  for (uint64_t i = 0; i < kSolveSeeds; ++i) {
    TracedSolve solve =
        SolveTraced(kReplica, *inputs, settings.seed + i, replica_checkpoint,
                    replica_lane, kReplicaOp + i);
    ++result.attempted;
    if (!solve.error.empty() ||
        !SameSolution(solve.solution, inputs->references[i])) {
      result.Fail("in-process replica differs from the engine oracle " +
                  solve.error);
      continue;
    }
    checkpoint_s.insert(checkpoint_s.end(), solve.checkpoint_seconds.begin(),
                        solve.checkpoint_seconds.end());
    checkpoints.push_back(double(solve.checkpoint_seconds.size()));
    state_words.push_back(double(solve.state_words));
  }
  const double edges = double(inputs->meta.stream_length);
  const double ingest = trace.MedianOverOps("core.ingest");
  layers.core_begin_ms = trace.MedianOverOps("core.begin") * 1e3;
  layers.core_ingest_ms = ingest * 1e3;
  layers.core_ingest_edges_per_s = ingest > 0 ? edges / ingest : 0;
  layers.core_finalize_ms = trace.MedianOverOps("core.finalize") * 1e3;
  layers.core_state_words = Median(state_words);
  layers.instance_validate_ms =
      trace.MedianOverOps("instance.validate") * 1e3;
  layers.run_checkpoint_write_ms_p50 = Quantile(checkpoint_s, 0.5) * 1e3;
  layers.run_checkpoint_write_ms_max = Max(checkpoint_s) * 1e3;
  layers.run_checkpoint_bytes = double(FileBytes(replica_checkpoint));
  layers.run_checkpoints = Median(checkpoints);

  const std::vector<double> rtt = trace.Durations("server.ingest");
  layers.server_ingest_rtt_us_p50 = Quantile(rtt, 0.5) * 1e6;
  layers.server_ingest_rtt_us_p99 = Quantile(rtt, 0.99) * 1e6;
  layers.server_queue_wait_us_p99 =
      Quantile(trace.Durations("server.queue_wait"), 0.99) * 1e6;
  layers.server_open_ms = Median(trace.Durations("server.open")) * 1e3;
  layers.server_close_ms = Median(trace.Durations("server.close")) * 1e3;
  layers.server_wire_us = Median(all.wire_us);
  layers.server_sheds = double(all.sheds);
  layers.server_reconnects = double(all.reconnects);
  layers.server_frames =
      frames_after > frames_before ? double(frames_after - frames_before) : 0;
  layers.server_ack_us_p50 = Quantile(all.ack_us, 0.5);
  layers.server_ack_us_p99 = Quantile(all.ack_us, 0.99);
  layers.server_finalize_ms_p50 = Median(all.finalize_ms);
  layers.server_gen_lag_ms = Mean(all.lag_us) / 1e3;
  layers.server_shed_frac = double(all.sheds) / double(all.ops + all.sheds);
  layers.engine_session_apply_ms = Median(all.apply_ms);
  layers.run_session_checkpoints = Median(all.session_checkpoints);
  layers.mem_rss_after_setup_mb = rss_before_warmup;
  layers.mem_rss_growth_mb = daemon_peak_mb - rss_before_warmup;
  layers.trace_overhead_ms =
      (Median(all.session_s_traced) - Median(all.session_s_untraced)) * 1e3;
  AddMetrics(layers, &result);
  if (!trace.Write(settings.trace_path))
    result.Fail("cannot write spans to " + settings.trace_path);
  return result;
}

}  // namespace perfbench
