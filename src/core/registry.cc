#include "core/registry.h"

#include <algorithm>
#include <cmath>

#include "core/adversarial_level.h"
#include "core/element_sampling.h"
#include "core/kk_algorithm.h"
#include "core/multi_run.h"
#include "core/random_order.h"
#include "core/set_arrival.h"
#include "core/trivial.h"

namespace setcover {

namespace {

std::vector<AlgorithmInfo> BuildRegistry() {
  std::vector<AlgorithmInfo> registry;
  registry.push_back(
      {"kk",
       "Theorem 1 baseline: uncovered-degree counters with probabilistic "
       "inclusion at sqrt(n) thresholds",
       "O~(m)",
       "O~(sqrt n)",
       {"adversarial", "random"},
       [](const AlgorithmOptions& options) {
         return std::make_unique<KkAlgorithm>(options.seed);
       }});
  registry.push_back(
      {"adversarial-level",
       "Algorithm 2 (Theorem 4): per-set levels promoted per uncovered "
       "edge, level-l inclusion probability p_l",
       "O~(m*n/alpha^2)",
       "O(alpha*log m), alpha >= 2*sqrt(n)",
       {"adversarial", "random"},
       [](const AlgorithmOptions& options) {
         AdversarialLevelParams params;
         params.alpha = options.alpha;
         return std::make_unique<AdversarialLevelAlgorithm>(options.seed,
                                                            params);
       }});
  registry.push_back(
      {"random-order",
       "Algorithm 1 (Theorem 3, main result): epoch sampling + heavy "
       "element detection + tracking sample + patching",
       "O~(m/sqrt n)",
       "O~(sqrt n)",
       {"random"},
       [](const AlgorithmOptions& options) {
         return std::make_unique<RandomOrderAlgorithm>(options.seed);
       }});
  registry.push_back(
      {"random-order-sketch",
       "Algorithm 1 with Count-Min replacing the exact epoch-0 degree "
       "counters",
       "O~(m/sqrt n)",
       "O~(sqrt n)",
       {"random"},
       [](const AlgorithmOptions& options) {
         RandomOrderParams params;
         params.use_sketch_epoch0 = true;
         return std::make_unique<RandomOrderAlgorithm>(options.seed, params);
       }});
  registry.push_back(
      {"random-order-paper",
       "Algorithm 1 with the paper's literal poly-log constants "
       "(uncalibrated)",
       "O~(m/sqrt n)",
       "O~(sqrt n)",
       {"random"},
       [](const AlgorithmOptions& options) {
         return std::make_unique<RandomOrderAlgorithm>(
             options.seed, RandomOrderParams::PaperFaithful());
       }});
  registry.push_back(
      {"random-order-nguess",
       "Algorithm 1 without the known-N assumption: parallel guesses "
       "2^i*m/sqrt(n) per paper 4.1",
       "O~(m/sqrt n) * log(n^1.5)",
       "O~(sqrt n)",
       {"random"},
       [](const AlgorithmOptions& options) {
         return std::make_unique<NGuessRandomOrder>(
             options.seed, RandomOrderParams{}, options.threads);
       }});
  registry.push_back(
      {"element-sampling",
       "AKL-style element sampling (Table 1 row 1): solve greedily on a "
       "sampled sub-universe, patch the rest",
       "O~(m*n/alpha)",
       "O~(alpha), alpha = o(sqrt n)",
       {"adversarial", "random"},
       [](const AlgorithmOptions& options) {
         ElementSamplingParams params;
         params.alpha = options.alpha;
         return std::make_unique<ElementSamplingAlgorithm>(options.seed,
                                                           params);
       }});
  registry.push_back(
      {"set-arrival-threshold",
       "Emek-Rosen-style set-arrival baseline; needs each set's edges "
       "contiguous (set-major order)",
       "O~(n)",
       "Theta(sqrt n)",
       {"set-major"},
       [](const AlgorithmOptions&) {
         return std::make_unique<SetArrivalThreshold>();
       }});
  registry.push_back(
      {"first-set-patching",
       "Trivial bracket: first witnessing set per element, deduplicated",
       "O~(n)",
       "<= n",
       {"adversarial", "random"},
       [](const AlgorithmOptions&) {
         return std::make_unique<FirstSetPatching>();
       }});
  registry.push_back(
      {"store-everything-greedy",
       "Trivial bracket: buffer the whole stream, run offline greedy at "
       "finalize",
       "Theta(N)",
       "ln n",
       {"adversarial", "random"},
       [](const AlgorithmOptions&) {
         return std::make_unique<StoreEverythingGreedy>();
       }});
  return registry;
}

/// Classic Levenshtein distance, small strings only (registry names).
size_t EditDistance(const std::string& a, const std::string& b) {
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diagonal = row[0];
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t previous = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diagonal + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diagonal = previous;
    }
  }
  return row[b.size()];
}

}  // namespace

const std::vector<AlgorithmInfo>& AlgorithmRegistry() {
  static const std::vector<AlgorithmInfo> registry = BuildRegistry();
  return registry;
}

const AlgorithmInfo* FindAlgorithm(const std::string& name) {
  for (const AlgorithmInfo& info : AlgorithmRegistry()) {
    if (info.name == name) return &info;
  }
  return nullptr;
}

std::vector<std::string> RegisteredAlgorithmNames() {
  std::vector<std::string> names;
  names.reserve(AlgorithmRegistry().size());
  for (const AlgorithmInfo& info : AlgorithmRegistry()) {
    names.push_back(info.name);
  }
  return names;
}

std::unique_ptr<StreamingSetCoverAlgorithm> MakeAlgorithmByName(
    const std::string& name, const AlgorithmOptions& options) {
  const AlgorithmInfo* info = FindAlgorithm(name);
  return info == nullptr ? nullptr : info->factory(options);
}

std::string SuggestAlgorithmName(const std::string& name) {
  if (name.empty()) return "";
  std::string best;
  size_t best_distance = 0;
  for (const AlgorithmInfo& info : AlgorithmRegistry()) {
    size_t distance = EditDistance(name, info.name);
    if (best.empty() || distance < best_distance) {
      best = info.name;
      best_distance = distance;
    }
  }
  // A suggestion that would rewrite more than half of the typed name is
  // noise, not help.
  if (best_distance * 2 > std::max(name.size(), size_t{1})) return "";
  return best;
}

std::string UnknownAlgorithmError(const std::string& name) {
  std::string message = "unknown algorithm '" + name + "'";
  std::string suggestion = SuggestAlgorithmName(name);
  if (!suggestion.empty()) {
    message += " (did you mean '" + suggestion + "'?)";
  }
  message += "; registered algorithms:";
  for (const AlgorithmInfo& info : AlgorithmRegistry()) {
    message += " " + info.name;
  }
  return message;
}

}  // namespace setcover
