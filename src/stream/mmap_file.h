#ifndef SETCOVER_STREAM_MMAP_FILE_H_
#define SETCOVER_STREAM_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace setcover {

/// Read-only memory mapping of a whole file — StreamFileReader's only
/// backend. The file's pages are mapped directly (the page cache is the
/// buffer; nothing is copied until the reader dereferences it), so
/// replaying a stream file costs no read()/memcpy per chunk. The
/// library is POSIX-only (util/shm_ring.cc needs mmap as well), so
/// there is no fallback: a file that cannot be mapped cannot be read.
///
/// Residency contract: every byte of the mapping stays readable, with
/// the same value, until Close()/destruction, so any number of threads
/// may read through data() concurrently — the property the prefetch
/// decoder relies on to decode chunk k+1 while the algorithm thread
/// still holds spans into chunk k. Which of those bytes the process
/// holds in memory is a separate matter: ReleaseBefore() drops the
/// pages a sequential consumer has moved past from the resident set,
/// so a one-pass read keeps O(kReleaseStride) of the file resident
/// rather than all of it. The mapping is PROT_READ/MAP_PRIVATE and
/// never written, so a released page that is read again faults back
/// in from the page cache with the same bytes; correctness never
/// depends on a page staying resident.
class MmapFile {
 public:
  /// Pages are released in runs of at least this many bytes: about one
  /// madvise() per MiB read, and less than this much consumed file
  /// (plus one page) kept resident behind the consumer.
  static constexpr size_t kReleaseStride = size_t{1} << 20;

  MmapFile() = default;
  ~MmapFile();

  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Maps `path` read-only. Returns false with an errno-derived message
  /// in *error (if non-null) when the file cannot be opened, stat'ed,
  /// or mapped. A zero-length file opens successfully with
  /// size() == 0.
  bool Open(const std::string& path, std::string* error);

  /// Unmaps; safe to call repeatedly.
  void Close();

  /// Tells the mapping that its reader has moved past every byte
  /// before `offset`. Once the whole pages below `offset` reach
  /// kReleaseStride bytes past the release watermark, they are dropped
  /// from the process's resident set (madvise(MADV_DONTNEED)) and the
  /// watermark moves up to them. An `offset` below the watermark is a
  /// rewind: the watermark moves down to the page below `offset`, so
  /// the next pass is released as it goes too. Not for concurrent
  /// callers — the watermark has one writer — though reads through
  /// data() may run concurrently on any thread.
  void ReleaseBefore(size_t offset);

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t released_ = 0;  // release watermark, page-aligned
};

}  // namespace setcover

#endif  // SETCOVER_STREAM_MMAP_FILE_H_
