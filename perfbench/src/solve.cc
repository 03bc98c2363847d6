#include "solve.h"

#include <algorithm>
#include <cstdio>

#include "core/random_order.h"
#include "core/registry.h"
#include "instance/generators.h"
#include "instance/validator.h"
#include "offline/lp_bound.h"
#include "run/checkpoint.h"
#include "stream/stream_file.h"
#include "util/rng.h"

namespace perfbench {

using namespace setcover;

namespace {

/// The planted-cover family every workload draws from: a planted cover
/// of 4 sets hidden among decoys of 1..4 elements, so N ≈ 2.5·m.
SetCoverInstance PlantedInstance(uint32_t n, uint32_t m, Rng& rng) {
  PlantedCoverParams params;
  params.num_elements = n;
  params.num_sets = m;
  params.planted_cover_size = 4;
  params.decoy_min_size = 1;
  params.decoy_max_size = 4;
  return GeneratePlantedCover(params, rng);
}

}  // namespace

Inputs::~Inputs() {
  if (!stream_path.empty()) std::remove(stream_path.c_str());
}

std::unique_ptr<Inputs> BuildInputs(const BatchWorkload& workload,
                                    uint64_t seed,
                                    const std::string& stream_path,
                                    std::string* error) {
  Rng rng(seed);
  auto inputs = std::make_unique<Inputs>(
      PlantedInstance(workload.elements, workload.sets, rng));
  inputs->stream = OrderedStream(inputs->instance, workload.order, rng);
  inputs->meta = inputs->stream.meta;
  if (workload.from_file) {
    inputs->stream_path = stream_path;
    if (!WriteStreamFile(inputs->stream, inputs->stream_path,
                         StreamFormat::kV3, error))
      return nullptr;
    inputs->stream_bytes = FileBytes(inputs->stream_path);
    inputs->stream = EdgeStream();
  }
  inputs->lower_bound = DualPackingLowerBound(inputs->instance);
  return inputs;
}

engine::RunReport SolveUntraced(const BatchWorkload& workload,
                                const Inputs& inputs, uint64_t seed,
                                const std::string& checkpoint_path) {
  engine::RunConfig config;
  config.algorithm = workload.algorithm;
  config.options.seed = seed;
  config.source = workload.from_file
                      ? engine::SourceSpec::File(inputs.stream_path)
                      : engine::SourceSpec::InMemory(inputs.stream);
  if (workload.checkpoint_every > 0) {
    config.checkpoint.path = checkpoint_path;
    config.checkpoint.every = workload.checkpoint_every;
  }
  config.validate = &inputs.instance;
  return engine::Execute(config);
}

TracedSolve SolveTraced(const BatchWorkload& workload, const Inputs& inputs,
                        uint64_t seed, const std::string& checkpoint_path,
                        Lane* lane, uint64_t op) {
  TracedSolve out;
  const auto start = Clock::now();
  ScopedSpan root(lane, "solve", op, 0);

  std::unique_ptr<BatchEdgeReader> reader;
  if (workload.from_file) {
    ScopedSpan span(lane, "stream.open", op, root.id());
    reader = OpenBatchEdgeReader(inputs.stream_path, StreamReadOptions{},
                                 &out.error);
    if (reader == nullptr) return out;
  }
  std::unique_ptr<StreamingSetCoverAlgorithm> algorithm;
  {
    ScopedSpan span(lane, "core.begin", op, root.id());
    AlgorithmOptions options;
    options.seed = seed;
    algorithm = MakeAlgorithmByName(workload.algorithm, options);
    algorithm->Begin(inputs.meta);
  }

  const uint64_t every = workload.checkpoint_every;
  const std::span<const Edge> memory(inputs.stream.edges);
  uint64_t delivered = 0;
  for (;;) {
    std::span<const Edge> batch;
    if (reader != nullptr) {
      ScopedSpan span(lane, "stream.next_batch", op, root.id());
      batch = reader->NextBatch();
    } else {
      uint64_t take = std::min<uint64_t>(kIngestBatchEdges,
                                         memory.size() - delivered);
      if (every > 0) take = std::min(take, every - delivered % every);
      batch = memory.subspan(delivered, take);
    }
    if (batch.empty()) break;
    {
      ScopedSpan span(lane, "core.ingest", op, root.id());
      algorithm->ProcessEdgeBatch(batch);
    }
    delivered += batch.size();
    if (every > 0 && delivered % every == 0) {
      const auto write_start = Clock::now();
      ScopedSpan span(lane, "run.checkpoint", op, root.id());
      Checkpoint checkpoint;
      checkpoint.algorithm_name = algorithm->Name();
      checkpoint.meta = inputs.meta;
      checkpoint.stream_position = delivered;
      checkpoint.edges_delivered = delivered;
      {
        ScopedSpan encode(lane, "core.encode_state", op, span.id());
        StateEncoder encoder;
        algorithm->EncodeState(&encoder);
        checkpoint.state_words = encoder.Words();
      }
      ScopedSpan save(lane, "run.save_checkpoint", op, span.id());
      if (!SaveCheckpoint(checkpoint, checkpoint_path, &out.error))
        return out;
      out.checkpoint_seconds.push_back(SecondsSince(write_start));
    }
  }
  if (reader != nullptr && (reader->Truncated() || reader->ChecksumFailed())) {
    out.error = "stream file damaged";
    return out;
  }
  if (delivered != inputs.meta.stream_length) {
    out.error = "traced solve did not consume the whole stream";
    return out;
  }
  out.state_words = algorithm->StateWords();
  {
    ScopedSpan span(lane, "core.finalize", op, root.id());
    out.solution = algorithm->Finalize();
  }
  if (const auto* ro =
          dynamic_cast<const RandomOrderAlgorithm*>(algorithm.get())) {
    out.epoch0_sampled = ro->Stats().epoch0_sampled;
    out.patched = ro->Stats().patched;
  }
  ValidationResult validation;
  {
    ScopedSpan span(lane, "instance.validate", op, root.id());
    validation = ValidateSolution(inputs.instance, out.solution);
  }
  if (!validation.ok) out.error = "traced cover invalid: " + validation.error;
  // Teardown is part of a solve: engine::Execute returns after it.
  {
    ScopedSpan span(lane, "core.free", op, root.id());
    algorithm.reset();
  }
  if (reader != nullptr) {
    ScopedSpan span(lane, "stream.close", op, root.id());
    reader.reset();
  }
  out.seconds = SecondsSince(start);
  return out;
}

}  // namespace perfbench
