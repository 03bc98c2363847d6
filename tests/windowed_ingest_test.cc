// Windowed (pipelined) ingest must be observationally invisible:
// for K ∈ {2, 8, 64}, a windowed session's finalize reply — cover,
// certificate, and every counter — is field-for-field identical to
// the strict K=1 session and the engine::Execute oracle, for every
// registered algorithm; a mid-window server
// Abort() + restart resyncs from the durable cursor and still
// converges bit-identically. scripts/check.sh runs this under ASan
// and TSan (the per-connection ticket ordering in the server is the
// contended piece).

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.h"
#include "engine/engine.h"
#include "instance/generators.h"
#include "server/client.h"
#include "server/server.h"
#include "stream/orderings.h"
#include "util/rng.h"

namespace setcover {
namespace server {
namespace {

struct Fixture {
  SetCoverInstance instance;
  EdgeStream stream;
};

Fixture MakeFixture(uint64_t seed) {
  Rng rng(seed);
  UniformRandomParams p;
  p.num_elements = 60;
  p.num_sets = 80;
  Fixture fixture{GenerateUniformRandom(p, rng), {}};
  fixture.stream = OrderedStream(fixture.instance, StreamOrder::kRandom, rng);
  return fixture;
}

ClientOptions FastClientOptions(uint64_t jitter_seed) {
  ClientOptions options;
  options.backoff.max_retries = 64;
  options.backoff.initial_delay_us = 1;
  options.backoff.max_delay_us = 50;
  options.backoff.jitter = 0.5;
  options.backoff.jitter_seed = jitter_seed;
  options.sleeper = [](uint64_t) {};
  return options;
}

OpenBody MakeOpen(const std::string& algorithm, uint64_t seed,
                  const Fixture& fixture) {
  OpenBody open;
  open.algorithm = algorithm;
  open.seed = seed;
  open.meta = fixture.stream.meta;
  return open;
}

/// Every finalize-reply field the protocol exposes; "bit-identical"
/// means all of them, not just the cover.
void ExpectSameFinalize(const Message& got, const Message& want,
                        const std::string& label) {
  EXPECT_EQ(got.cover, want.cover) << label;
  EXPECT_EQ(got.certificate, want.certificate) << label;
  EXPECT_EQ(got.degraded, want.degraded) << label;
  EXPECT_EQ(got.edges_delivered, want.edges_delivered) << label;
  EXPECT_EQ(got.uncovered_elements, want.uncovered_elements) << label;
  EXPECT_EQ(got.current_words, want.current_words) << label;
  EXPECT_EQ(got.transient_retries, want.transient_retries) << label;
  EXPECT_EQ(got.corrupt_records_skipped, want.corrupt_records_skipped)
      << label;
  EXPECT_EQ(got.faults_survived, want.faults_survived) << label;
}

TEST(WindowedIngest, EveryWindowMatchesStrictAndOracle) {
  const Fixture fixture = MakeFixture(501);
  constexpr size_t kBatch = 48;

  LocalEndpoint endpoint;
  ServerOptions server_options;
  server_options.worker_threads = 3;  // ticket ordering is what's tested
  server_options.max_queue = 256;
  SessionServer server(server_options, endpoint.Listen());
  server.Start();

  uint64_t session_id = 900;
  for (const std::string& algorithm : RegisteredAlgorithmNames()) {
    engine::RunConfig config;
    config.algorithm = algorithm;
    config.options.seed = 31;
    config.source = engine::SourceSpec::InMemory(fixture.stream);
    const engine::RunReport oracle = engine::Execute(config);
    ASSERT_TRUE(oracle.completed) << oracle.error;

    const OpenBody open = MakeOpen(algorithm, 31, fixture);
    auto dial = [&endpoint](std::string* error) {
      return endpoint.Connect(error);
    };

    Message strict_reply;
    std::string error;
    {
      SessionClient client(dial, FastClientOptions(1));
      ASSERT_TRUE(RunSessionToCompletion(&client, ++session_id, open,
                                         fixture.stream.edges, kBatch,
                                         &strict_reply, &error))
          << algorithm << ": " << error;
    }
    EXPECT_EQ(strict_reply.cover,
              std::vector<uint32_t>(oracle.solution.cover.begin(),
                                    oracle.solution.cover.end()))
        << algorithm;

    for (const size_t window : {size_t(2), size_t(8), size_t(64)}) {
      SessionClient client(dial, FastClientOptions(window));
      RunSessionOptions run;
      run.batch_edges = kBatch;
      run.window = window;
      uint64_t acks = 0;
      run.ingest_latency = [&acks](uint64_t) { ++acks; };
      Message windowed_reply;
      ASSERT_TRUE(RunSessionToCompletion(&client, ++session_id, open,
                                         fixture.stream.edges, run,
                                         &windowed_reply, &error))
          << algorithm << " K=" << window << ": " << error;
      ExpectSameFinalize(windowed_reply, strict_reply,
                         algorithm + " K=" + std::to_string(window));
      // Every batch's ack observed exactly once (no faults here).
      EXPECT_EQ(acks, (fixture.stream.edges.size() + kBatch - 1) / kBatch)
          << algorithm << " K=" << window;
    }
  }
  server.DrainAndStop();
}

// Kill the server (Abort: no drain — only periodic checkpoints
// survive) while windows are in flight, restart it on the same state
// dir, and require bit-identical convergence. The mid-window resync
// path — re-Open, learn the rolled-back cursor, refill — is the part
// under test.
TEST(WindowedIngest, MidWindowAbortAndRestartResyncsBitIdentical) {
  const Fixture fixture = MakeFixture(502);
  constexpr size_t kBatch = 16;
  constexpr size_t kWindow = 8;

  const std::string state_dir = testing::TempDir() + "windowed_state";
  std::filesystem::remove_all(state_dir);
  std::filesystem::create_directories(state_dir);

  LocalEndpoint endpoint;
  ServerOptions server_options;
  server_options.worker_threads = 3;
  server_options.max_queue = 128;
  server_options.state_dir = state_dir;

  uint64_t session_id = 950;
  for (const std::string& algorithm : RegisteredAlgorithmNames()) {
    engine::RunConfig config;
    config.algorithm = algorithm;
    config.options.seed = 33;
    config.source = engine::SourceSpec::InMemory(fixture.stream);
    const engine::RunReport oracle = engine::Execute(config);
    ASSERT_TRUE(oracle.completed) << oracle.error;

    auto server = std::make_unique<SessionServer>(server_options,
                                                  endpoint.Listen());
    server->Start();

    OpenBody open = MakeOpen(algorithm, 33, fixture);
    open.checkpoint_every = 3;  // durable cursor trails the stream

    std::atomic<bool> done{false};
    Message reply;
    std::string error;
    bool completed = false;
    const uint64_t id = ++session_id;
    std::thread driver([&] {
      ClientOptions options = FastClientOptions(7);
      options.backoff.max_retries = 4000;  // ride out the outage
      options.sleeper = [](uint64_t) { std::this_thread::yield(); };
      SessionClient client(
          [&endpoint](std::string* dial_error) {
            return endpoint.Connect(dial_error);
          },
          options);
      RunSessionOptions run;
      run.batch_edges = kBatch;
      run.window = kWindow;
      for (int attempt = 0; attempt < 100 && !completed; ++attempt)
        completed = RunSessionToCompletion(&client, id, open,
                                           fixture.stream.edges, run,
                                           &reply, &error);
      done.store(true);
    });

    // Hard-kill mid-traffic, then restart on the same state.
    while (server->Stats().total_edges_delivered == 0 && !done.load())
      std::this_thread::yield();
    server->Abort();
    server = std::make_unique<SessionServer>(server_options,
                                             endpoint.Listen());
    server->Start();
    driver.join();
    ASSERT_TRUE(completed) << algorithm << ": " << error;

    EXPECT_EQ(reply.cover,
              std::vector<uint32_t>(oracle.solution.cover.begin(),
                                    oracle.solution.cover.end()))
        << algorithm;
    EXPECT_EQ(reply.certificate,
              std::vector<uint32_t>(oracle.solution.certificate.begin(),
                                    oracle.solution.certificate.end()))
        << algorithm;
    EXPECT_EQ(reply.edges_delivered, oracle.edges_delivered) << algorithm;
    server->DrainAndStop();
  }
}

}  // namespace
}  // namespace server
}  // namespace setcover
