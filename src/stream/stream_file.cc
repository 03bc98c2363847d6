#include "stream/stream_file.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/crc32.h"
#include "util/varint.h"

namespace setcover {
namespace {

constexpr char kMagic[4] = {'S', 'C', 'E', 'S'};
constexpr char kIndexMagic[4] = {'S', 'C', 'I', 'X'};
constexpr uint32_t kVersionV1 = 1;
constexpr uint32_t kVersionV2 = 2;
constexpr uint32_t kVersionV3 = 3;
constexpr size_t kChunkEdges = 4096;
// The ingestion batch size is pinned to the on-disk chunk capacity so
// batched drivers flush exactly once per chunk and checkpoint positions
// stay aligned with chunk boundaries.
static_assert(kChunkEdges == kIngestBatchEdges,
              "stream-file chunk capacity must match kIngestBatchEdges");
// The reader serves v1/v2 payloads as Edge spans straight out of the
// mapping; that requires the on-disk layout to be the in-memory
// layout and every payload offset to be Edge-aligned (header offsets
// 24/28/36 and the v2 chunk stride are all multiples of 4).
static_assert(sizeof(Edge) == 8 && alignof(Edge) <= 4,
              "zero-copy chunk views require 8-byte, 4-aligned edges");
// magic + version + m + n + N [+ header_crc in v2/v3].
constexpr uint64_t kHeaderBytesV1 = 4 + 4 + 4 + 4 + 8;
constexpr uint64_t kHeaderBytesV2 = kHeaderBytesV1 + 4;
constexpr uint64_t kChunkHeaderBytesV2 = 4 + 4;       // count + crc
constexpr uint64_t kChunkHeaderBytesV3 = 4 + 4 + 4;   // + payload_bytes
constexpr uint64_t kFooterBytesV3 = 4 + 8 + 4;  // index_crc + offset + magic

bool WriteAll(std::FILE* f, const void* data, size_t bytes) {
  if (bytes == 0) return true;  // fwrite(nullptr, ...) is UB even for 0
  return std::fwrite(data, 1, bytes, f) == bytes;
}

size_t ChunkEdgeCount(size_t stream_length, size_t chunk_index) {
  size_t start = chunk_index * kChunkEdges;
  if (start >= stream_length) return 0;
  return std::min(kChunkEdges, stream_length - start);
}

uint64_t ChunkFileOffsetV1(size_t chunk_index) {
  return kHeaderBytesV1 + uint64_t(chunk_index) * kChunkEdges * sizeof(Edge);
}

uint64_t ChunkFileOffsetV2(size_t chunk_index) {
  return kHeaderBytesV2 +
         uint64_t(chunk_index) *
             (kChunkHeaderBytesV2 + kChunkEdges * sizeof(Edge));
}

void FailErrno(std::string* error, const char* what) {
  if (error != nullptr) {
    *error = std::string(what) + ": " + std::strerror(errno);
  }
}

/// Delta-varint encodes one chunk's edges (the v3 payload).
void EncodeV3Payload(const Edge* edges, size_t count,
                     std::vector<uint8_t>* out) {
  out->clear();
  int64_t previous_set = 0;
  for (size_t i = 0; i < count; ++i) {
    const int64_t set = int64_t(edges[i].set);
    AppendVarint(out, ZigZagEncode(set - previous_set));
    AppendVarint(out, edges[i].element);
    previous_set = set;
  }
}

}  // namespace

bool WriteStreamFile(const EdgeStream& stream, const std::string& path,
                     StreamFormat format, std::string* error) {
  const uint32_t version = static_cast<uint32_t>(format);
  // Stage into a sibling temp file and rename into place, so a crash
  // mid-write can never leave a half-valid file under the final name.
  const std::string temp = path + ".tmp";
  std::FILE* f = std::fopen(temp.c_str(), "wb");
  if (f == nullptr) {
    FailErrno(error, ("cannot create " + temp).c_str());
    return false;
  }

  uint32_t m = stream.meta.num_sets;
  uint32_t n = stream.meta.num_elements;
  uint64_t big_n = stream.edges.size();
  unsigned char header[20];
  std::memcpy(header, &version, 4);
  std::memcpy(header + 4, &m, 4);
  std::memcpy(header + 8, &n, 4);
  std::memcpy(header + 12, &big_n, 8);
  bool ok = WriteAll(f, kMagic, 4) && WriteAll(f, header, sizeof(header));
  if (version != kVersionV1) {
    uint32_t header_crc = Crc32(header, sizeof(header));
    ok = ok && WriteAll(f, &header_crc, 4);
  }

  const size_t num_chunks =
      (stream.edges.size() + kChunkEdges - 1) / kChunkEdges;
  if (version == kVersionV1) {
    ok = ok && WriteAll(f, stream.edges.data(),
                        stream.edges.size() * sizeof(Edge));
  } else if (version == kVersionV2) {
    for (size_t chunk = 0; ok && chunk < num_chunks; ++chunk) {
      uint32_t count =
          static_cast<uint32_t>(ChunkEdgeCount(stream.edges.size(), chunk));
      const Edge* payload = stream.edges.data() + chunk * kChunkEdges;
      uint32_t payload_crc = Crc32(payload, count * sizeof(Edge));
      ok = WriteAll(f, &count, 4) && WriteAll(f, &payload_crc, 4) &&
           WriteAll(f, payload, count * sizeof(Edge));
    }
  } else {
    std::vector<uint64_t> offsets;
    offsets.reserve(num_chunks);
    std::vector<uint8_t> payload;
    uint64_t offset = kHeaderBytesV2;
    for (size_t chunk = 0; ok && chunk < num_chunks; ++chunk) {
      uint32_t count =
          static_cast<uint32_t>(ChunkEdgeCount(stream.edges.size(), chunk));
      EncodeV3Payload(stream.edges.data() + chunk * kChunkEdges, count,
                      &payload);
      uint32_t payload_bytes = static_cast<uint32_t>(payload.size());
      uint32_t payload_crc = Crc32c(payload.data(), payload.size());
      ok = WriteAll(f, &count, 4) && WriteAll(f, &payload_bytes, 4) &&
           WriteAll(f, &payload_crc, 4) &&
           WriteAll(f, payload.data(), payload.size());
      offsets.push_back(offset);
      offset += kChunkHeaderBytesV3 + payload_bytes;
    }
    // Trailing chunk-offset index + self-locating footer: O(1) seeks
    // despite variable-size chunks, recoverable by header scan if the
    // tail is lost.
    const uint64_t index_offset = offset;
    uint32_t index_crc =
        Crc32c(offsets.data(), offsets.size() * sizeof(uint64_t));
    ok = ok &&
         WriteAll(f, offsets.data(), offsets.size() * sizeof(uint64_t)) &&
         WriteAll(f, &index_crc, 4) && WriteAll(f, &index_offset, 8) &&
         WriteAll(f, kIndexMagic, 4);
  }
  if (!ok) FailErrno(error, ("write to " + temp + " failed").c_str());

  if (std::fflush(f) != 0 && ok) {
    FailErrno(error, ("flush of " + temp + " failed").c_str());
    ok = false;
  }
  if (std::fclose(f) != 0 && ok) {
    FailErrno(error, ("close of " + temp + " failed").c_str());
    ok = false;
  }
  if (ok && std::rename(temp.c_str(), path.c_str()) != 0) {
    FailErrno(error, ("rename to " + path + " failed").c_str());
    ok = false;
  }
  if (!ok) std::remove(temp.c_str());
  return ok;
}

std::unique_ptr<StreamFileReader> StreamFileReader::Open(
    const std::string& path, std::string* error) {
  auto reader = std::unique_ptr<StreamFileReader>(new StreamFileReader());
  if (!reader->map_.Open(path, error)) return nullptr;

  auto fail = [&](const char* msg) -> std::unique_ptr<StreamFileReader> {
    if (error != nullptr) *error = msg;
    return nullptr;
  };
  char magic[4];
  if (!reader->ReadRaw(0, magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return fail("bad magic");
  }
  unsigned char header[20];
  if (!reader->ReadRaw(4, header, sizeof(header))) {
    return fail("truncated header");
  }
  uint32_t version = 0, m = 0, n = 0;
  uint64_t big_n = 0;
  std::memcpy(&version, header, 4);
  std::memcpy(&m, header + 4, 4);
  std::memcpy(&n, header + 8, 4);
  std::memcpy(&big_n, header + 12, 8);
  if (version != kVersionV1 && version != kVersionV2 &&
      version != kVersionV3) {
    return fail("unsupported version");
  }
  if (version != kVersionV1) {
    uint32_t stored_crc = 0;
    if (!reader->ReadRaw(24, &stored_crc, 4)) {
      return fail("truncated header");
    }
    if (stored_crc != Crc32(header, sizeof(header))) {
      return fail("header checksum mismatch");
    }
  }
  reader->version_ = version;
  reader->meta_ = {m, n, big_n};
  if (version == kVersionV3 && !reader->LoadV3Offsets(error)) {
    return nullptr;
  }
  return reader;
}

bool StreamFileReader::ReadRaw(uint64_t offset, void* out, size_t bytes) {
  if (offset + bytes > map_.size()) return false;
  std::memcpy(out, map_.data() + offset, bytes);
  return true;
}

size_t StreamFileReader::NumChunks() const {
  return (size_t{meta_.stream_length} + kChunkEdges - 1) / kChunkEdges;
}

bool StreamFileReader::LoadV3Offsets(std::string*) {
  const size_t chunks = NumChunks();
  v3_offsets_.clear();
  v3_data_end_ = map_.size();
  if (chunks == 0) return true;

  // Fast path: the trailing index, validated end to end (footer magic,
  // size arithmetic, CRC, monotonicity) before a single offset is
  // trusted.
  const uint64_t index_bytes = uint64_t(chunks) * sizeof(uint64_t);
  uint8_t footer[kFooterBytesV3];
  if (map_.size() >= kHeaderBytesV2 + index_bytes + kFooterBytesV3 &&
      ReadRaw(map_.size() - kFooterBytesV3, footer, kFooterBytesV3)) {
    uint32_t index_crc = 0;
    uint64_t index_offset = 0;
    std::memcpy(&index_crc, footer, 4);
    std::memcpy(&index_offset, footer + 4, 8);
    if (std::memcmp(footer + 12, kIndexMagic, 4) == 0 &&
        index_offset >= kHeaderBytesV2 &&
        index_offset + index_bytes + kFooterBytesV3 == map_.size()) {
      std::vector<uint64_t> offsets(chunks);
      if (ReadRaw(index_offset, offsets.data(), index_bytes) &&
          Crc32c(offsets.data(), index_bytes) == index_crc) {
        bool sane = offsets[0] == kHeaderBytesV2;
        for (size_t c = 1; sane && c < chunks; ++c) {
          sane = offsets[c] > offsets[c - 1] && offsets[c] < index_offset;
        }
        if (sane) {
          v3_offsets_ = std::move(offsets);
          v3_data_end_ = index_offset;
          return true;
        }
      }
    }
  }

  // Fallback: linear header scan — payload_bytes makes chunks
  // self-delimiting, so a file with a damaged or missing index (e.g. a
  // truncated tail) still yields every chunk that physically survives.
  uint64_t offset = kHeaderBytesV2;
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    uint8_t chunk_header[kChunkHeaderBytesV3];
    if (offset + kChunkHeaderBytesV3 > map_.size() ||
        !ReadRaw(offset, chunk_header, kChunkHeaderBytesV3)) {
      break;
    }
    v3_offsets_.push_back(offset);
    uint32_t payload_bytes = 0;
    std::memcpy(&payload_bytes, chunk_header + 4, 4);
    offset += kChunkHeaderBytesV3 + payload_bytes;
    if (offset > map_.size()) break;  // truncated payload; chunk recorded
  }
  // The scan faulted in the file's chunk headers; the first read
  // rewinds the watermark, and the pass releases them again as it goes.
  map_.ReleaseBefore(offset);
  return true;
}

uint64_t StreamFileReader::ChunkOffset(size_t chunk) const {
  if (version_ == kVersionV1) return ChunkFileOffsetV1(chunk);
  if (version_ == kVersionV2) return ChunkFileOffsetV2(chunk);
  return chunk < v3_offsets_.size() ? v3_offsets_[chunk] : v3_data_end_;
}

void StreamFileReader::ReleaseBefore(size_t chunk) {
  map_.ReleaseBefore(ChunkOffset(chunk));
}

bool StreamFileReader::DecodeChunk(size_t chunk, DecodedChunk* out) {
  out->edges = {};
  out->truncated = false;
  out->checksum_failed = false;
  const size_t want = ChunkEdgeCount(meta_.stream_length, chunk);
  if (want == 0) return false;

  if (version_ == kVersionV1) {
    const uint64_t offset = ChunkFileOffsetV1(chunk);
    // No checksums in v1: surface whatever prefix of the chunk exists.
    const uint64_t avail =
        offset < map_.size() ? (map_.size() - offset) / sizeof(Edge) : 0;
    const size_t got = std::min(want, size_t(avail));
    out->edges = std::span<const Edge>(
        reinterpret_cast<const Edge*>(map_.data() + offset), got);
    out->truncated = got < want;
    return true;
  }

  if (version_ == kVersionV2) {
    const uint64_t offset = ChunkFileOffsetV2(chunk);
    uint8_t chunk_header[kChunkHeaderBytesV2];
    if (!ReadRaw(offset, chunk_header, kChunkHeaderBytesV2)) {
      out->truncated = true;
      return true;
    }
    uint32_t count = 0, stored_crc = 0;
    std::memcpy(&count, chunk_header, 4);
    std::memcpy(&stored_crc, chunk_header + 4, 4);
    if (count != want) {
      // A corrupted count would otherwise desynchronize every following
      // chunk; the expected count is implied by N, so treat any
      // mismatch as corruption.
      out->checksum_failed = true;
      return true;
    }
    const uint64_t payload_offset = offset + kChunkHeaderBytesV2;
    const size_t payload_bytes = want * sizeof(Edge);
    if (payload_offset + payload_bytes > map_.size()) {
      out->truncated = true;
      return true;
    }
    const uint8_t* payload = map_.data() + payload_offset;
    if (Crc32(payload, payload_bytes) != stored_crc) {
      out->checksum_failed = true;
      return true;
    }
    // Zero-copy: the CRC-verified payload is served straight from the
    // mapping.
    out->edges =
        std::span<const Edge>(reinterpret_cast<const Edge*>(payload), want);
    return true;
  }

  // v3: locate via the offset table, CRC32C-check the compressed
  // payload, then delta-varint decode.
  if (chunk >= v3_offsets_.size()) {
    out->truncated = true;  // the file ended before this chunk
    return true;
  }
  const uint64_t offset = v3_offsets_[chunk];
  uint8_t chunk_header[kChunkHeaderBytesV3];
  if (offset + kChunkHeaderBytesV3 > v3_data_end_ ||
      !ReadRaw(offset, chunk_header, kChunkHeaderBytesV3)) {
    out->truncated = true;
    return true;
  }
  uint32_t count = 0, payload_bytes = 0, stored_crc = 0;
  std::memcpy(&count, chunk_header, 4);
  std::memcpy(&payload_bytes, chunk_header + 4, 4);
  std::memcpy(&stored_crc, chunk_header + 8, 4);
  if (count != want) {
    out->checksum_failed = true;
    return true;
  }
  const uint64_t payload_offset = offset + kChunkHeaderBytesV3;
  if (payload_offset + payload_bytes > v3_data_end_) {
    out->truncated = true;
    return true;
  }
  const uint8_t* payload = map_.data() + payload_offset;
  if (Crc32c(payload, payload_bytes) != stored_crc) {
    out->checksum_failed = true;
    return true;
  }
  out->storage.resize(want);
  const uint8_t* cursor = payload;
  const uint8_t* end = payload + payload_bytes;
  int64_t set = 0;
  for (size_t i = 0; i < want; ++i) {
    uint64_t delta = 0, element = 0;
    if (!GetVarint(&cursor, end, &delta) ||
        !GetVarint(&cursor, end, &element)) {
      out->checksum_failed = true;
      return true;
    }
    set += ZigZagDecode(delta);
    if (set < 0 || set > int64_t{0xFFFFFFFF} ||
        element > uint64_t{0xFFFFFFFF}) {
      out->checksum_failed = true;
      return true;
    }
    out->storage[i] = Edge{SetId(set), ElementId(element)};
  }
  if (cursor != end) {
    // Leftover payload after the declared count: a CRC-passing encode
    // could only do this through a writer bug; refuse it all the same.
    out->checksum_failed = true;
    return true;
  }
  out->edges = std::span<const Edge>(out->storage);
  return true;
}

bool StreamFileReader::FillBuffer() {
  // The cursor may sit mid-chunk after a SeekToEdge; the containing
  // chunk is decoded whole and the prefix skipped.
  const size_t chunk = edges_read_ / kChunkEdges;
  // The previous chunk's span is dead by the NextBatch contract, so
  // every page before this chunk may leave the resident set.
  ReleaseBefore(chunk);
  if (!DecodeChunk(chunk, &current_)) return false;
  current_valid_ = true;
  if (current_.checksum_failed) {
    checksum_failed_ = true;
    current_.edges = {};
    return false;
  }
  if (current_.truncated) truncated_ = true;
  current_pos_ = edges_read_ - chunk * kChunkEdges;
  return current_pos_ < current_.edges.size();
}

std::span<const Edge> StreamFileReader::NextBatch() {
  if (checksum_failed_ || edges_read_ >= meta_.stream_length) return {};
  if (!current_valid_ || current_pos_ >= current_.edges.size()) {
    if (truncated_ || !FillBuffer()) return {};
  }
  std::span<const Edge> batch = current_.edges.subspan(current_pos_);
  current_pos_ = current_.edges.size();
  edges_read_ += batch.size();
  return batch;
}

bool StreamFileReader::SeekToEdge(size_t index) {
  if (index > meta_.stream_length) return false;
  current_valid_ = false;
  current_.edges = {};
  current_pos_ = 0;
  checksum_failed_ = false;
  truncated_ = false;
  edges_read_ = index;
  ReleaseBefore(index / kChunkEdges);
  return true;
}

}  // namespace setcover
