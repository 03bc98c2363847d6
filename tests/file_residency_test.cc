// Resident bytes of a stream-file read (stream/mmap_file.h): the
// readers release the mapping's pages behind the consumer, so a pass
// over a file of any size keeps O(chunk) of it in the process's
// resident set, not the whole file. Measured as growth of RssFile —
// the file-backed part of RSS, which counts the mapping's pages but
// neither the heap nor sanitizer shadow memory, and only this process —
// so the bound holds under ASan, TSan and `ctest -j` alike.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "stream/stream_file.h"
#include "util/rng.h"

namespace setcover {
namespace {

// The file must dwarf the bound: ≥ 16 MiB on disk against < 4 MiB of
// growth, so a reader that keeps what it read resident fails clearly.
constexpr size_t kMinFileBytes = size_t{16} << 20;
constexpr long kMaxGrowthKb = 4 * 1024;

/// RssFile of this process in KiB, from /proc/self/status; -1 if the
/// line is missing.
long RssFileKb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "RssFile:") {
      long kb = -1;
      status >> kb;
      return kb;
    }
    status.ignore(1 << 12, '\n');
  }
  return -1;
}

/// Polls RssFile on a background thread from construction until
/// PeakGrowthKb(), and reports the largest rise over the reading taken
/// at construction.
class RssFileSampler {
 public:
  RssFileSampler() : baseline_(RssFileKb()), peak_(baseline_) {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed)) {
        Sample();
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  ~RssFileSampler() { Stop(); }
  RssFileSampler(const RssFileSampler&) = delete;
  RssFileSampler& operator=(const RssFileSampler&) = delete;

  /// Takes a last sample, stops polling and returns the peak growth.
  long PeakGrowthKb() {
    Stop();
    Sample();
    return peak_ - baseline_;
  }

 private:
  // Called by the polling thread, then once more by the caller after
  // the join, so peak_ has one writer at a time.
  void Sample() { peak_ = std::max(peak_, RssFileKb()); }
  void Stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  const long baseline_;
  long peak_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// 2^20 sets of 3 distinct elements over 2^20 elements, in random
/// order: N ≈ 3.1M edges, ~6 bytes an edge in v3 and 8 in v2.
const EdgeStream& LargeStream() {
  static const EdgeStream stream = [] {
    constexpr uint32_t kSets = 1u << 20, kElements = 1u << 20;
    Rng rng(17);
    EdgeStream s;
    s.meta = {kSets, kElements, size_t{kSets} * 3};
    s.edges.reserve(s.meta.stream_length);
    for (SetId set = 0; set < kSets; ++set) {
      const uint32_t first = uint32_t(rng.UniformInt(kElements));
      for (uint32_t j = 0; j < 3; ++j)
        s.edges.push_back({set, (first + j * (kElements / 3)) % kElements});
    }
    rng.Shuffle(s.edges);
    return s;
  }();
  return stream;
}

/// Reads `reader` from edge 0 to its end and returns whether the
/// concatenated batches equal `expected`, with no damage flag raised.
bool ReadsExactly(BatchEdgeReader& reader, const std::vector<Edge>& expected) {
  size_t at = 0;
  for (auto batch = reader.NextBatch(); !batch.empty();
       batch = reader.NextBatch()) {
    if (at + batch.size() > expected.size() ||
        !std::equal(batch.begin(), batch.end(), expected.begin() + at))
      return false;
    at += batch.size();
  }
  return at == expected.size() && !reader.Truncated() &&
         !reader.ChecksumFailed();
}

class FileResidency : public testing::TestWithParam<StreamFormat> {
 protected:
  void SetUp() override {
    ASSERT_GE(RssFileKb(), 0) << "no RssFile line in /proc/self/status";
    std::string name =
        testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = testing::TempDir() + "/residency_" + name + "_" +
            std::to_string(::getpid()) + ".bin";
    std::string error;
    ASSERT_TRUE(WriteStreamFile(LargeStream(), path_, GetParam(), &error))
        << error;
    std::ifstream file(path_, std::ios::binary | std::ios::ate);
    ASSERT_GE(size_t(file.tellg()), kMinFileBytes);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Two whole passes through `reader` — the second after
  /// SeekToEdge(0) — each bit-identical to the written stream and each
  /// growing RssFile by less than the bound.
  void TwoBoundedPasses(BatchEdgeReader& reader) {
    for (int pass = 0; pass < 2; ++pass) {
      if (pass > 0) {
        ASSERT_TRUE(reader.SeekToEdge(0));
      }
      RssFileSampler sampler;
      EXPECT_TRUE(ReadsExactly(reader, LargeStream().edges))
          << "pass " << pass;
      EXPECT_LT(sampler.PeakGrowthKb(), kMaxGrowthKb) << "pass " << pass;
    }
  }

  std::string path_;
};

TEST_P(FileResidency, SyncReaderKeepsFileBytesBounded) {
  std::string error;
  auto reader = StreamFileReader::Open(path_, &error);
  ASSERT_NE(reader, nullptr) << error;
  TwoBoundedPasses(*reader);
}

TEST_P(FileResidency, PrefetchReaderKeepsFileBytesBounded) {
  StreamReadOptions options;
  options.prefetch = true;
  std::string error;
  auto reader = OpenBatchEdgeReader(path_, options, &error);
  ASSERT_NE(reader, nullptr) << error;
  TwoBoundedPasses(*reader);
}

TEST_P(FileResidency, TwoPassExecuteKeepsFileBytesBounded) {
  auto config = [](engine::SourceSpec source) {
    engine::RunConfig c;
    c.algorithm = "kk";
    c.options.seed = 3;
    c.source = std::move(source);
    c.source.schedule.passes = 2;
    return c;
  };
  // The in-memory run first, so the engine's and the algorithm's code
  // pages are resident before the file runs are measured.
  const engine::RunReport expected =
      engine::Execute(config(engine::SourceSpec::InMemory(LargeStream())));
  ASSERT_TRUE(expected.completed) << expected.error;

  for (bool prefetch : {false, true}) {
    StreamReadOptions options;
    options.prefetch = prefetch;
    RssFileSampler sampler;
    const engine::RunReport report =
        engine::Execute(config(engine::SourceSpec::File(path_, options)));
    const long growth_kb = sampler.PeakGrowthKb();
    ASSERT_TRUE(report.completed) << report.error;
    EXPECT_EQ(report.edges_delivered, 2 * LargeStream().size());
    EXPECT_EQ(report.solution.cover, expected.solution.cover)
        << "prefetch " << prefetch;
    EXPECT_EQ(report.solution.certificate, expected.solution.certificate)
        << "prefetch " << prefetch;
    EXPECT_LT(growth_kb, kMaxGrowthKb) << "prefetch " << prefetch;
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, FileResidency,
                         testing::Values(StreamFormat::kV2, StreamFormat::kV3),
                         [](const testing::TestParamInfo<StreamFormat>& i) {
                           return "v" + std::to_string(uint32_t(i.param));
                         });

}  // namespace
}  // namespace setcover
