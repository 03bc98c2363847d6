#include "offline/lp_bound.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "util/rng.h"

namespace setcover {
namespace {

// Builds the dual certificate; shared by the bound and its audit.
std::vector<double> BuildCertificate(const SetCoverInstance& instance,
                                     uint32_t improvement_passes,
                                     uint64_t seed) {
  const uint32_t n = instance.NumElements();
  const uint32_t m = instance.NumSets();

  // y_u = 1 / (largest set containing u); 0 for isolated elements.
  std::vector<double> y(n, 0.0);
  for (ElementId u = 0; u < n; ++u) {
    size_t max_size = 0;
    for (SetId s : instance.ElementSets(u)) {
      max_size = std::max(max_size, instance.Set(s).size());
    }
    if (max_size > 0) y[u] = 1.0 / double(max_size);
  }

  // Per-set loads for the lifting passes.
  std::vector<double> load(m, 0.0);
  for (SetId s = 0; s < m; ++s) {
    for (ElementId u : instance.Set(s)) load[s] += y[u];
  }

  Rng rng(seed);
  std::vector<ElementId> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (uint32_t pass = 0; pass < improvement_passes; ++pass) {
    rng.Shuffle(order);
    for (ElementId u : order) {
      // Incident sets in ascending id order, from the inverse CSR.
      std::span<const SetId> incident = instance.ElementSets(u);
      if (incident.empty()) continue;
      double slack = 1.0;
      for (SetId s : incident) slack = std::min(slack, 1.0 - load[s]);
      if (slack <= 1e-12) continue;
      y[u] += slack;
      for (SetId s : incident) load[s] += slack;
    }
  }
  return y;
}

}  // namespace

double DualPackingLowerBound(const SetCoverInstance& instance,
                             uint32_t improvement_passes, uint64_t seed) {
  std::vector<double> y =
      BuildCertificate(instance, improvement_passes, seed);
  double total = 0.0;
  for (double v : y) total += v;
  return total;
}

double DualPackingMaxLoad(const SetCoverInstance& instance,
                          uint32_t improvement_passes, uint64_t seed) {
  std::vector<double> y =
      BuildCertificate(instance, improvement_passes, seed);
  double worst = 0.0;
  for (SetId s = 0; s < instance.NumSets(); ++s) {
    double load = 0.0;
    for (ElementId u : instance.Set(s)) load += y[u];
    worst = std::max(worst, load);
  }
  return worst;
}

}  // namespace setcover
