// setcover_loadgen — concurrent-session load generator and correctness
// harness for the session server. Generates a deterministic instance,
// runs N sessions across C client threads (cycling the registered
// algorithms, optionally with fault injection), and verifies every
// returned cover bit-identically against an in-process engine::Execute
// oracle.
//
// Two modes:
//   self-hosted (default): spins up an in-process server over the
//     LocalTransport — with optional mid-traffic --kill-after-us
//     crash-and-restart to exercise resume under real concurrency.
//   --socket=/path: drives an external setcover_server daemon.
//
// --transport selects the wire: `local` is the in-process endpoint;
// `unix` and `shm` put a real unix-domain socket — plain framed or
// upgraded to the shared-memory rings — under every client,
// self-hosting the server on a temporary socket path unless --socket
// points at an external daemon. The default is `local` when
// self-hosted and `unix` when --socket is given (its pre---transport
// meaning). --window=K keeps K un-acked ingest
// batches in flight per session (K=1 is strict request–response). The
// summary always reports aggregate ingest edges/s plus a per-op
// ingest-latency histogram (p50/p95/p99 of send-to-ack).
//
// --passes=P replays the stream P times through every session — the
// push-side spelling of a P-pass schedule (stream/schedule.h): the
// client ingests the identical record sequence P times and the oracle
// is engine::Execute under schedule.passes = P, which the engine pins
// as bit-identical to the concatenated feed.
//
// Usage:
//   setcover_loadgen [--sessions=256] [--clients=8] [--batch=64]
//                    [--elements=60] [--sets=80] [--seed=1]
//                    [--faults] [--workers=3] [--max-queue=128]
//                    [--state-dir=DIR] [--kill-after-us=N]
//                    [--socket=/path/to.sock]
//                    [--transport=local|unix|shm] [--window=K]
//                    [--passes=P]
//
// Exit code 0 iff every session completed with an oracle-identical
// cover; 2 on a bad or unknown flag.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "engine/engine.h"
#include "instance/generators.h"
#include "server/client.h"
#include "server/server.h"
#include "stream/orderings.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

using namespace setcover;

std::vector<uint32_t> ToU32(const std::vector<SetId>& ids) {
  return std::vector<uint32_t>(ids.begin(), ids.end());
}

struct Plan {
  std::string algorithm;
  uint64_t seed = 0;
  std::optional<FaultSchedule> faults;
};

uint64_t Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t index = size_t(p * double(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags = FlagSet::Parse(argc - 1, argv + 1);
  const uint64_t sessions = uint64_t(flags.GetInt("sessions", 256));
  const int clients = int(flags.GetInt("clients", 8));
  const size_t batch = size_t(flags.GetInt("batch", 64));
  const uint64_t seed = uint64_t(flags.GetInt("seed", 1));
  const bool with_faults = flags.GetBool("faults", false);
  const std::string socket_path = flags.GetString("socket", "");
  const std::string state_dir = flags.GetString("state-dir", "");
  const uint64_t kill_after_us =
      uint64_t(flags.GetInt("kill-after-us", 0));
  // --socket has meant "dial the daemon over its unix socket" since
  // before --transport existed, so it keeps that default; --transport
  // only needs saying to upgrade the dial to shm.
  const std::string transport = flags.GetString(
      "transport", socket_path.empty() ? "local" : "unix");
  const size_t window = size_t(flags.GetInt("window", 1));
  const int64_t passes_flag = flags.GetInt("passes", 1);

  UniformRandomParams params;
  params.num_elements = uint32_t(flags.GetInt("elements", 60));
  params.num_sets = uint32_t(flags.GetInt("sets", 80));

  server::ServerOptions server_options;
  server_options.worker_threads = size_t(flags.GetInt("workers", 3));
  server_options.max_queue = size_t(flags.GetInt("max-queue", 128));
  server_options.state_dir = state_dir;

  const std::vector<std::string> unknown = flags.UnusedKeys();
  for (const std::string& key : unknown)
    std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
  if (!unknown.empty()) return 2;
  if (transport != "local" && transport != "unix" && transport != "shm") {
    std::fprintf(stderr, "error: --transport must be local, unix, or shm\n");
    return 2;
  }
  if (!socket_path.empty() && transport == "local") {
    std::fprintf(stderr,
                 "error: --socket needs --transport=unix or shm\n");
    return 2;
  }
  if (!socket_path.empty() && kill_after_us > 0) {
    std::fprintf(stderr,
                 "error: --kill-after-us needs the self-hosted server\n");
    return 2;
  }
  if (transport != "local" && kill_after_us > 0) {
    std::fprintf(stderr,
                 "error: --kill-after-us needs --transport=local (the "
                 "socket listener does not restart)\n");
    return 2;
  }
  if (kill_after_us > 0 && state_dir.empty()) {
    std::fprintf(stderr, "error: --kill-after-us needs --state-dir\n");
    return 2;
  }
  if (passes_flag < 1) {
    std::fprintf(stderr, "error: --passes must be >= 1\n");
    return 2;
  }
  const uint32_t passes = uint32_t(passes_flag);

  Rng rng(seed);
  SetCoverInstance instance = GenerateUniformRandom(params, rng);
  EdgeStream stream = OrderedStream(instance, StreamOrder::kRandom, rng);
  const std::vector<std::string> names = RegisteredAlgorithmNames();

  // What each session actually pushes: the stream, repeated once per
  // pass (the concatenated form of the P-pass schedule the oracle
  // runs).
  std::vector<Edge> fed_edges;
  fed_edges.reserve(stream.edges.size() * passes);
  for (uint32_t p = 0; p < passes; ++p) {
    fed_edges.insert(fed_edges.end(), stream.edges.begin(),
                     stream.edges.end());
  }

  auto plan_for = [&](uint64_t id) {
    Plan plan;
    plan.algorithm = names[id % names.size()];
    plan.seed = seed + id % 7;
    if (with_faults && id % 4 == 0)
      plan.faults = FaultSchedule::AllKinds(seed + 100 + id % 5);
    return plan;
  };

  // Oracles, one per distinct plan: each session must reproduce
  // engine::Execute over the stream with the plan's seed and faults.
  std::map<std::string, engine::RunReport> oracles;
  auto oracle_key = [](const Plan& plan) {
    std::string key = plan.algorithm + "/" + std::to_string(plan.seed);
    if (plan.faults) key += "/f" + std::to_string(plan.faults->seed);
    return key;
  };
  for (uint64_t id = 1; id <= sessions; ++id) {
    const Plan plan = plan_for(id);
    if (oracles.count(oracle_key(plan))) continue;
    engine::RunConfig config;
    config.algorithm = plan.algorithm;
    config.options.seed = plan.seed;
    config.source = engine::SourceSpec::InMemory(stream);
    config.source.schedule.passes = passes;
    config.faults = plan.faults;
    engine::RunReport report = engine::Execute(config);
    if (!report.completed) {
      std::fprintf(stderr, "oracle failed: %s\n", report.error.c_str());
      return 1;
    }
    oracles.emplace(oracle_key(plan), std::move(report));
  }

  // Transport: external socket, or a self-hosted server — in-process
  // for --transport=local, over a temporary unix socket (plain framed
  // or shm-upgraded, the listener serves both) otherwise.
  server::LocalEndpoint endpoint;
  std::string dial_path = socket_path;
  std::unique_ptr<server::SessionServer> self_hosted;
  if (socket_path.empty()) {
    std::unique_ptr<server::Listener> listener;
    if (transport == "local") {
      listener = endpoint.Listen();
    } else {
      dial_path = "/tmp/setcover_loadgen_" + std::to_string(::getpid()) +
                  ".sock";
      std::string listen_error;
      listener = server::ListenUnix(dial_path, &listen_error);
      if (listener == nullptr) {
        std::fprintf(stderr, "listen %s: %s\n", dial_path.c_str(),
                     listen_error.c_str());
        return 1;
      }
    }
    self_hosted = std::make_unique<server::SessionServer>(
        server_options, std::move(listener));
    self_hosted->Start();
  }
  auto dialer = [&](std::string* error)
      -> std::unique_ptr<server::Connection> {
    if (transport == "unix") return server::ConnectUnix(dial_path, error);
    if (transport == "shm")
      return server::ConnectShm(dial_path, server::kDefaultShmRingBytes,
                                error);
    return endpoint.Connect(error);
  };

  const auto start = std::chrono::steady_clock::now();
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> total_sheds{0};
  std::atomic<uint64_t> total_redials{0};
  std::atomic<uint64_t> total_edges{0};
  std::vector<std::vector<uint64_t>> thread_latencies(clients);

  std::vector<std::thread> threads;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      server::ClientOptions options;
      options.backoff.max_retries = 10000;
      options.backoff.initial_delay_us = 1;
      options.backoff.max_delay_us = 200;
      options.backoff.jitter = 0.5;
      options.backoff.jitter_seed = uint64_t(t) + 1;
      server::SessionClient client(dialer, options);

      for (uint64_t id = uint64_t(t) + 1; id <= sessions; id += clients) {
        const Plan plan = plan_for(id);
        server::OpenBody open;
        open.algorithm = plan.algorithm;
        open.seed = plan.seed;
        open.meta = stream.meta;
        open.checkpoint_every = state_dir.empty() ? 0 : 64;
        open.faults = plan.faults;

        server::RunSessionOptions run;
        run.batch_edges = batch;
        run.window = window;
        run.ingest_latency = [&, t](uint64_t micros) {
          thread_latencies[t].push_back(micros);
        };

        server::Message reply;
        std::string error;
        bool done = false;
        for (int attempt = 0; attempt < 100 && !done; ++attempt) {
          done = server::RunSessionToCompletion(&client, id, open, fed_edges,
                                                run, &reply, &error);
        }
        if (!done) {
          std::fprintf(stderr, "session %llu failed: %s\n",
                       (unsigned long long)id, error.c_str());
          failures.fetch_add(1);
          continue;
        }
        const engine::RunReport& expected = oracles.at(oracle_key(plan));
        if (reply.cover != ToU32(expected.solution.cover) ||
            reply.certificate != ToU32(expected.solution.certificate)) {
          std::fprintf(stderr, "session %llu: cover mismatch vs oracle\n",
                       (unsigned long long)id);
          mismatches.fetch_add(1);
        }
        total_edges.fetch_add(fed_edges.size());
        completed.fetch_add(1);
      }
      total_sheds.fetch_add(client.RetriesAfterShed());
      total_redials.fetch_add(client.Reconnects());
    });
  }

  // The optional mid-traffic crash: hard-kill the self-hosted server,
  // restart it on the same state dir, let the clients ride it out.
  if (kill_after_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(kill_after_us));
    std::fprintf(stderr, "loadgen: killing the server mid-traffic\n");
    self_hosted->Abort();
    self_hosted = std::make_unique<server::SessionServer>(server_options,
                                                          endpoint.Listen());
    self_hosted->Start();
  }

  for (auto& thread : threads) thread.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  if (self_hosted != nullptr) self_hosted->DrainAndStop();

  std::printf(
      "sessions=%llu completed=%llu failures=%llu mismatches=%llu "
      "sheds_survived=%llu redials=%llu seconds=%.3f transport=%s "
      "window=%llu passes=%u\n",
      (unsigned long long)sessions, (unsigned long long)completed.load(),
      (unsigned long long)failures.load(),
      (unsigned long long)mismatches.load(),
      (unsigned long long)total_sheds.load(),
      (unsigned long long)total_redials.load(), seconds, transport.c_str(),
      (unsigned long long)window, passes);

  std::printf("aggregate: %llu edges ingested, %.2f M edges/s\n",
              (unsigned long long)total_edges.load(),
              total_edges.load() / seconds / 1e6);

  // The per-op latency histogram: send-to-ack per ingest batch, merged
  // across client threads (retried batches count each attempt's ack).
  std::vector<uint64_t> latencies;
  for (const std::vector<uint64_t>& partial : thread_latencies)
    latencies.insert(latencies.end(), partial.begin(), partial.end());
  std::sort(latencies.begin(), latencies.end());
  std::printf(
      "ingest latency: ops=%llu p50=%lluus p95=%lluus p99=%lluus "
      "max=%lluus\n",
      (unsigned long long)latencies.size(),
      (unsigned long long)Percentile(latencies, 0.50),
      (unsigned long long)Percentile(latencies, 0.95),
      (unsigned long long)Percentile(latencies, 0.99),
      (unsigned long long)(latencies.empty() ? 0 : latencies.back()));
  const bool ok =
      completed.load() == sessions && mismatches.load() == 0 &&
      failures.load() == 0;
  std::printf("%s\n", ok ? "OK: all covers bit-identical to the oracle"
                         : "FAILED");
  return ok ? 0 : 1;
}
