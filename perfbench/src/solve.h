#ifndef PERFBENCH_SOLVE_H_
#define PERFBENCH_SOLVE_H_

// One in-process solve of a generated instance: the untraced engine
// path and the traced path the benchmark drives layer by layer. Shared
// by the batch workloads and by push-durable's in-process checkpoint
// replica.

#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "stream/orderings.h"
#include "trace.h"

namespace perfbench {

struct BatchWorkload {
  const char* algorithm;
  uint32_t elements;
  uint32_t sets;
  setcover::StreamOrder order;
  /// Solve from a v3 stream file through the default mmap + prefetch
  /// reader (the unsupervised fast path) instead of from memory.
  bool from_file;
  /// Checkpoint cadence in edges; non-zero runs the supervised Drive
  /// loop with a checkpoint file.
  uint64_t checkpoint_every;
};

/// A generated instance and everything derived from it. Owns the
/// stream file, which it deletes.
struct Inputs {
  explicit Inputs(setcover::SetCoverInstance built)
      : instance(std::move(built)) {}
  ~Inputs();
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;

  setcover::SetCoverInstance instance;
  setcover::EdgeStream stream;  // in-memory source; empty for files
  setcover::StreamMetadata meta;
  std::string stream_path;
  uint64_t stream_bytes = 0;
  double lower_bound = 0;        // certified dual packing bound
  /// The warm-up answers, one per algorithm seed (solve.h users cycle
  /// kSolveSeeds seeds so no one seed's cover sets the figures).
  std::vector<setcover::CoverSolution> references;
  double rss_after_inputs_mb = 0;
};

/// Algorithm seeds a run cycles through: seed, seed + 1, ...
inline constexpr uint64_t kSolveSeeds = 4;

/// Generates the workload's instance and arrival order from `seed`,
/// writes the stream file to `stream_path` when the workload reads one,
/// and computes the lower bound. Null (with *error) on I/O failure.
std::unique_ptr<Inputs> BuildInputs(const BatchWorkload& workload,
                                    uint64_t seed,
                                    const std::string& stream_path,
                                    std::string* error);

/// The untraced solve: engine::Execute with validation.
setcover::engine::RunReport SolveUntraced(const BatchWorkload& workload,
                                          const Inputs& inputs,
                                          uint64_t seed,
                                          const std::string& checkpoint_path);

struct TracedSolve {
  setcover::CoverSolution solution;
  double seconds = 0;
  size_t state_words = 0;
  size_t epoch0_sampled = 0;  // Algorithm 1 only
  size_t patched = 0;         // Algorithm 1 only
  std::vector<double> checkpoint_seconds;
  std::string error;
};

/// One solve driven through the layers' public functions, mirroring the
/// engine path the workload takes: the file fast path's chunk-aligned
/// reader batches, or the supervised loop's 4096-edge batches cut at
/// every checkpoint position.
TracedSolve SolveTraced(const BatchWorkload& workload, const Inputs& inputs,
                        uint64_t seed, const std::string& checkpoint_path,
                        Lane* lane, uint64_t op);

inline bool SameSolution(const setcover::CoverSolution& a,
                         const setcover::CoverSolution& b) {
  return a.cover == b.cover && a.certificate == b.certificate;
}

}  // namespace perfbench

#endif  // PERFBENCH_SOLVE_H_
