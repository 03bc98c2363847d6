#include "stream/edge_source.h"

namespace setcover {

ReadStatus VectorEdgeSource::Next(Edge* edge) {
  if (position_ >= stream_.edges.size()) return ReadStatus::kEnd;
  *edge = stream_.edges[position_++];
  return ReadStatus::kOk;
}

bool VectorEdgeSource::SeekTo(size_t position) {
  if (position > stream_.edges.size()) return false;
  position_ = position;
  return true;
}

}  // namespace setcover
