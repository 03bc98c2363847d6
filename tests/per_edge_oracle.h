// The per-edge reference for fault-injected runs: pulls an EdgeSource
// (typically a VectorEdgeSource under a FaultInjector) one record at a
// time, retries transient reads under a backoff budget, skips corrupt
// records, and feeds every delivered edge through ProcessEdge. The
// engine batches, cuts and injects faults per batch; whatever it does,
// its report must match this loop's.

#ifndef SETCOVER_TESTS_PER_EDGE_ORACLE_H_
#define SETCOVER_TESTS_PER_EDGE_ORACLE_H_

#include <algorithm>

#include "core/streaming_algorithm.h"
#include "engine/engine.h"
#include "stream/edge_source.h"
#include "util/backoff.h"

namespace setcover {

/// Runs `algorithm` over `source` to the end and finalizes it. On a
/// record that exhausts `backoff`, stops there, degraded.
inline engine::RunReport RunPerEdgeOracle(
    StreamingSetCoverAlgorithm& algorithm, EdgeSource& source,
    const BackoffPolicy& backoff = {}) {
  engine::RunReport report;
  report.algorithm_name = algorithm.Name();
  algorithm.Begin(source.Meta());
  ExponentialBackoff retry(backoff);
  Edge edge;
  for (;;) {
    const ReadStatus status = source.Next(&edge);
    if (status == ReadStatus::kTransient) {
      uint64_t delay_us = 0;
      if (!retry.NextDelay(&delay_us)) {
        report.degraded = true;
        break;
      }
      ++report.transient_retries;
      ++report.faults_survived;
      continue;
    }
    retry.Reset();
    if (status == ReadStatus::kEnd) break;
    if (status == ReadStatus::kCorrupt) {
      ++report.corrupt_records_skipped;
      ++report.faults_survived;
      continue;
    }
    algorithm.ProcessEdge(edge);
    ++report.edges_delivered;
  }
  report.solution = algorithm.Finalize();
  report.completed = true;
  report.uncovered_elements =
      std::count(report.solution.certificate.begin(),
                 report.solution.certificate.end(), kNoSet);
  report.peak_words = algorithm.Meter().PeakWords();
  report.current_words = algorithm.Meter().CurrentWords();
  return report;
}

}  // namespace setcover

#endif  // SETCOVER_TESTS_PER_EDGE_ORACLE_H_
