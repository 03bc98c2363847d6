#ifndef SETCOVER_STREAM_EDGE_SOURCE_H_
#define SETCOVER_STREAM_EDGE_SOURCE_H_

#include <cstddef>

#include "stream/stream.h"

namespace setcover {

/// Outcome of pulling one record from an EdgeSource.
enum class ReadStatus {
  kOk,         // *edge holds the next stream item
  kEnd,        // the stream is exhausted
  kTransient,  // momentary failure; retrying the same call may succeed
  kCorrupt,    // the record was damaged and must not reach an algorithm
};

/// A positioned, per-record supply of stream edges that can fail:
/// Next() reports transient faults (worth retrying) and corrupt records
/// (detected, skipped, counted) distinctly from end-of-stream. The
/// engine's session runs each fault-injected batch through one
/// (engine/session.cc), and tests drive a VectorEdgeSource under a
/// FaultInjector record by record as the per-edge oracle.
///
/// `Position()` counts *underlying* records consumed; a conforming
/// implementation replays the identical record sequence (including any
/// injected faults) from any record boundary it reported.
class EdgeSource {
 public:
  virtual ~EdgeSource() = default;

  virtual const StreamMetadata& Meta() const = 0;

  /// Pulls the next record. On kOk, *edge is the item; on kCorrupt,
  /// *edge holds the damaged record (for diagnostics) and the position
  /// still advances past it; on kTransient/kEnd, *edge is untouched.
  virtual ReadStatus Next(Edge* edge) = 0;

  /// Underlying records consumed so far.
  virtual size_t Position() const = 0;

  /// Repositions so the next record is the one at `position`. Returns
  /// false if unsupported or out of range.
  virtual bool SeekTo(size_t position) = 0;
};

/// In-memory source over a materialized EdgeStream.
class VectorEdgeSource : public EdgeSource {
 public:
  explicit VectorEdgeSource(const EdgeStream& stream) : stream_(stream) {}

  const StreamMetadata& Meta() const override { return stream_.meta; }
  ReadStatus Next(Edge* edge) override;
  size_t Position() const override { return position_; }
  bool SeekTo(size_t position) override;

 private:
  const EdgeStream& stream_;
  size_t position_ = 0;
};

}  // namespace setcover

#endif  // SETCOVER_STREAM_EDGE_SOURCE_H_
