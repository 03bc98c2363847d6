#include "stream/mmap_file.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace setcover {
namespace {

void SetError(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
}

size_t PageSize() {
  static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

MmapFile::~MmapFile() { Close(); }

bool MmapFile::Open(const std::string& path, std::string* error) {
  Close();
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    SetError(error, "cannot open " + path + ": " + std::strerror(errno));
    return false;
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    SetError(error, "cannot stat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return false;
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    // mmap rejects zero-length mappings; an empty file maps to nothing.
    ::close(fd);
    return true;
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping keeps its own reference to the file; the descriptor is
  // no longer needed either way.
  ::close(fd);
  if (map == MAP_FAILED) {
    SetError(error, "cannot mmap " + path + ": " + std::strerror(errno));
    return false;
  }
  ::madvise(map, size, MADV_SEQUENTIAL);
  data_ = static_cast<const uint8_t*>(map);
  size_ = size;
  return true;
}

void MmapFile::Close() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  released_ = 0;
}

void MmapFile::ReleaseBefore(size_t offset) {
  const size_t end = std::min(offset, size_) / PageSize() * PageSize();
  if (end < released_) {
    released_ = end;
    return;
  }
  if (end - released_ < kReleaseStride) return;
  // mmap returns a page-aligned base, so [released_, end) is whole
  // pages. Failure only leaves them resident; nothing to report.
  ::madvise(const_cast<uint8_t*>(data_) + released_, end - released_,
            MADV_DONTNEED);
  released_ = end;
}

}  // namespace setcover
