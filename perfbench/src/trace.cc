#include "trace.h"

#include <cstdio>

namespace perfbench {

uint64_t Lane::Record(const char* name, Clock::time_point start,
                      Clock::time_point end, uint64_t op, uint64_t parent) {
  const uint64_t id = NextId();
  spans_.push_back(
      {name, trace_->Nanos(start), trace_->Nanos(end), id, parent, op});
  return id;
}

ScopedSpan::~ScopedSpan() {
  if (lane_ == nullptr) return;
  lane_->spans_.push_back({name_, lane_->trace_->Nanos(start_),
                           lane_->trace_->Nanos(Clock::now()), id_, parent_,
                           op_});
}

Lane* Trace::AddLane() {
  lanes_.push_back(Lane(this, uint32_t(lanes_.size())));
  return &lanes_.back();
}

std::map<uint64_t, double> Trace::TotalByOp(const std::string& name) const {
  std::map<uint64_t, double> totals;
  for (const Lane& lane : lanes_)
    for (const Span& span : lane.spans_)
      if (name == span.name) totals[span.op] += span.Seconds();
  return totals;
}

double Trace::MedianOverOps(const std::string& name) const {
  std::vector<double> totals;
  for (const auto& [op, seconds] : TotalByOp(name)) totals.push_back(seconds);
  return Median(totals);
}

std::vector<double> Trace::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Lane& lane : lanes_)
    for (const Span& span : lane.spans_)
      if (name == span.name) out.push_back(span.Seconds());
  return out;
}

bool Trace::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", file);
  bool first = true;
  for (const Lane& lane : lanes_) {
    for (const Span& span : lane.spans_) {
      std::fprintf(file,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"op\":%llu}}",
                   first ? "" : ",\n", span.name, lane.index_ + 1,
                   double(span.start_ns) / 1e3,
                   double(span.end_ns - span.start_ns) / 1e3,
                   (unsigned long long)span.id,
                   (unsigned long long)span.parent,
                   (unsigned long long)span.op);
      first = false;
    }
  }
  std::fputs("\n]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench
