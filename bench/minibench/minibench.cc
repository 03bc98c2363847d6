#include "benchmark/benchmark.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <memory>
#include <regex>
#include <thread>

namespace benchmark {
namespace {

// ---- clocks -------------------------------------------------------

double RealNow() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double CpuNow() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

// ---- flags --------------------------------------------------------

struct Flags {
  double min_time = 0.5;
  std::string filter;
  std::string format = "console";
  std::string out;
  std::string out_format = "json";
  std::string executable;
};

Flags& GlobalFlags() {
  static Flags flags;
  return flags;
}

/// Consumes "--name=value"; true if argv[i] matched `name`.
bool ParseStringFlag(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

// ---- registry -----------------------------------------------------

// Owns every BENCHMARK(...) family, so the registrations are freed at
// exit rather than leaked when the vector's buffer goes.
std::vector<std::unique_ptr<internal::Benchmark>>& Registry() {
  static std::vector<std::unique_ptr<internal::Benchmark>> registry;
  return registry;
}

const char* UnitString(TimeUnit unit) {
  switch (unit) {
    case kNanosecond:
      return "ns";
    case kMicrosecond:
      return "us";
    case kMillisecond:
      return "ms";
    case kSecond:
      return "s";
  }
  return "ns";
}

double UnitMultiplier(TimeUnit unit) {
  switch (unit) {
    case kNanosecond:
      return 1e9;
    case kMicrosecond:
      return 1e6;
    case kMillisecond:
      return 1e3;
    case kSecond:
      return 1.0;
  }
  return 1e9;
}

/// One finished run: everything a reporter needs.
struct RunResult {
  std::string name;
  std::size_t family_index = 0;
  std::size_t instance_index = 0;
  int64_t iterations = 0;
  double real_time = 0.0;  // per iteration, in `unit`
  double cpu_time = 0.0;   // per iteration, in `unit`
  TimeUnit unit = kNanosecond;
  bool has_items = false;
  double items_per_second = 0.0;
  UserCounters counters;
  std::string label;
  bool error_occurred = false;
  std::string error_message;
};

// ---- JSON ---------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Iso8601Now() {
  std::time_t now = std::time(nullptr);
  std::tm tm_utc;
  gmtime_r(&now, &tm_utc);
  char buf[40];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%S+00:00", &tm_utc);
  return buf;
}

int CpuMhz() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return 0;
  char line[256];
  int mhz = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    double value = 0.0;
    if (std::sscanf(line, "cpu MHz : %lf", &value) == 1) {
      mhz = int(value);
      break;
    }
  }
  std::fclose(f);
  return mhz;
}

const char* LibraryBuildType() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

void WriteJsonContext(std::FILE* out) {
  double loads[3] = {0, 0, 0};
  getloadavg(loads, 3);
  std::fprintf(out, "  \"context\": {\n");
  std::fprintf(out, "    \"date\": \"%s\",\n", Iso8601Now().c_str());
  char host[256] = "unknown";
  gethostname(host, sizeof host - 1);
  std::fprintf(out, "    \"host_name\": \"%s\",\n", JsonEscape(host).c_str());
  std::fprintf(out, "    \"executable\": \"%s\",\n",
               JsonEscape(GlobalFlags().executable).c_str());
  std::fprintf(out, "    \"num_cpus\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "    \"mhz_per_cpu\": %d,\n", CpuMhz());
  std::fprintf(out, "    \"cpu_scaling_enabled\": false,\n");
  std::fprintf(out, "    \"caches\": [\n    ],\n");
  std::fprintf(out, "    \"load_avg\": [%s,%s,%s],\n",
               JsonDouble(loads[0]).c_str(), JsonDouble(loads[1]).c_str(),
               JsonDouble(loads[2]).c_str());
  std::fprintf(out, "    \"library_build_type\": \"%s\"\n",
               LibraryBuildType());
  std::fprintf(out, "  },\n");
}

void WriteJsonRun(std::FILE* out, const RunResult& run, bool last) {
  std::fprintf(out, "    {\n");
  std::fprintf(out, "      \"name\": \"%s\",\n", JsonEscape(run.name).c_str());
  std::fprintf(out, "      \"family_index\": %zu,\n", run.family_index);
  std::fprintf(out, "      \"per_family_instance_index\": %zu,\n",
               run.instance_index);
  std::fprintf(out, "      \"run_name\": \"%s\",\n",
               JsonEscape(run.name).c_str());
  std::fprintf(out, "      \"run_type\": \"iteration\",\n");
  std::fprintf(out, "      \"repetitions\": 1,\n");
  std::fprintf(out, "      \"repetition_index\": 0,\n");
  std::fprintf(out, "      \"threads\": 1,\n");
  if (run.error_occurred) {
    std::fprintf(out, "      \"error_occurred\": true,\n");
    std::fprintf(out, "      \"error_message\": \"%s\",\n",
                 JsonEscape(run.error_message).c_str());
  }
  std::fprintf(out, "      \"iterations\": %" PRId64 ",\n", run.iterations);
  std::fprintf(out, "      \"real_time\": %s,\n",
               JsonDouble(run.real_time).c_str());
  std::fprintf(out, "      \"cpu_time\": %s,\n",
               JsonDouble(run.cpu_time).c_str());
  std::fprintf(out, "      \"time_unit\": \"%s\"", UnitString(run.unit));
  if (run.has_items) {
    std::fprintf(out, ",\n      \"items_per_second\": %s",
                 JsonDouble(run.items_per_second).c_str());
  }
  for (const auto& [key, counter] : run.counters) {
    std::fprintf(out, ",\n      \"%s\": %s", JsonEscape(key).c_str(),
                 JsonDouble(counter.value).c_str());
  }
  if (!run.label.empty()) {
    std::fprintf(out, ",\n      \"label\": \"%s\"",
                 JsonEscape(run.label).c_str());
  }
  std::fprintf(out, "\n    }%s\n", last ? "" : ",");
}

void WriteJsonReport(std::FILE* out, const std::vector<RunResult>& runs) {
  std::fprintf(out, "{\n");
  WriteJsonContext(out);
  std::fprintf(out, "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < runs.size(); ++i) {
    WriteJsonRun(out, runs[i], i + 1 == runs.size());
  }
  std::fprintf(out, "  ]\n}\n");
}

// ---- console ------------------------------------------------------

std::string HumanValue(double v) {
  char buf[64];
  if (v >= 1e15 || (v < 1e-3 && v != 0.0)) {
    std::snprintf(buf, sizeof buf, "%.3g", v);
  } else if (v >= 1e12) {
    std::snprintf(buf, sizeof buf, "%.4gT", v / 1e12);
  } else if (v >= 1e9) {
    std::snprintf(buf, sizeof buf, "%.4gG", v / 1e9);
  } else if (v >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.4gM", v / 1e6);
  } else if (v >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.4gk", v / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", v);
  }
  return buf;
}

void WriteConsoleReport(const std::vector<RunResult>& runs) {
  std::size_t width = 10;
  for (const RunResult& run : runs) width = std::max(width, run.name.size());
  std::printf("%s\n", Iso8601Now().c_str());
  std::printf("Running %s\n", GlobalFlags().executable.c_str());
  std::printf("Run on (%u X %d MHz CPU)\n",
              std::thread::hardware_concurrency(), CpuMhz());
#ifndef NDEBUG
  std::printf("***WARNING*** Library was built as DEBUG. "
              "Timings may be affected.\n");
#endif
  const std::string rule(width + 44, '-');
  std::printf("%s\n", rule.c_str());
  std::printf("%-*s %15s %15s %10s\n", int(width), "Benchmark", "Time",
              "CPU", "Iterations");
  std::printf("%s\n", rule.c_str());
  for (const RunResult& run : runs) {
    if (run.error_occurred) {
      std::printf("%-*s ERROR: %s\n", int(width), run.name.c_str(),
                  run.error_message.c_str());
      continue;
    }
    std::printf("%-*s %12.3g %s %12.3g %s %10" PRId64, int(width),
                run.name.c_str(), run.real_time, UnitString(run.unit),
                run.cpu_time, UnitString(run.unit), run.iterations);
    if (run.has_items) {
      std::printf(" items_per_second=%s",
                  HumanValue(run.items_per_second).c_str());
    }
    for (const auto& [key, counter] : run.counters) {
      std::printf(" %s=%s", key.c_str(), HumanValue(counter.value).c_str());
    }
    if (!run.label.empty()) std::printf(" %s", run.label.c_str());
    std::printf("\n");
  }
}

}  // namespace

// ---- State --------------------------------------------------------

State::State(int64_t max_iterations, std::vector<int64_t> ranges)
    : max_iterations_(max_iterations), ranges_(std::move(ranges)) {}

void State::StartKeepRunning() {
  timing_ = true;
  real_start_ = RealNow();
  cpu_start_ = CpuNow();
}

void State::FinishKeepRunning() {
  if (!timing_) return;
  timing_ = false;
  real_time_used_ += RealNow() - real_start_;
  cpu_time_used_ += CpuNow() - cpu_start_;
}

void State::PauseTiming() { FinishKeepRunning(); }

void State::ResumeTiming() { StartKeepRunning(); }

void State::SkipWithError(const char* msg) {
  skipped_ = true;
  error_message_ = msg != nullptr ? msg : "";
}

// ---- runner -------------------------------------------------------

namespace internal {

Benchmark* RegisterBenchmarkInternal(Benchmark* benchmark) {
  Registry().emplace_back(benchmark);
  return benchmark;
}

class BenchmarkRunner {
 public:
  static std::size_t RunAll() {
    const Flags& flags = GlobalFlags();
    std::regex filter;
    const bool has_filter = !flags.filter.empty();
    if (has_filter) filter = std::regex(flags.filter);

    std::vector<RunResult> runs;
    for (std::size_t family = 0; family < Registry().size(); ++family) {
      const Benchmark& bench = *Registry()[family];
      std::vector<std::vector<int64_t>> args = bench.args_;
      if (args.empty()) args.push_back({});
      for (std::size_t instance = 0; instance < args.size(); ++instance) {
        const std::string name = MangleName(bench, args[instance]);
        if (has_filter && !std::regex_search(name, filter)) continue;
        RunResult run = RunOne(bench, args[instance]);
        run.name = name;
        run.family_index = family;
        run.instance_index = instance;
        runs.push_back(std::move(run));
      }
    }

    if (flags.format == "json") {
      WriteJsonReport(stdout, runs);
    } else {
      WriteConsoleReport(runs);
    }
    if (!flags.out.empty()) {
      std::FILE* f = std::fopen(flags.out.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "minibench: cannot open %s\n",
                     flags.out.c_str());
        std::exit(1);
      }
      WriteJsonReport(f, runs);
      std::fclose(f);
    }
    return runs.size();
  }

 private:
  static std::string MangleName(const Benchmark& bench,
                                const std::vector<int64_t>& args) {
    std::string name = bench.name_;
    char buf[64];
    for (int64_t arg : args) {
      std::snprintf(buf, sizeof buf, "/%" PRId64, arg);
      name += buf;
    }
    if (bench.min_time_ != 0.0) {
      std::snprintf(buf, sizeof buf, "/min_time:%.3f", bench.min_time_);
      name += buf;
    }
    if (bench.iterations_ != 0) {
      std::snprintf(buf, sizeof buf, "/iterations:%" PRId64,
                    bench.iterations_);
      name += buf;
    }
    if (bench.use_manual_time_) {
      name += "/manual_time";
    } else if (bench.use_real_time_) {
      name += "/real_time";
    }
    return name;
  }

  struct Measurement {
    int64_t iterations = 0;
    double real = 0.0;
    double cpu = 0.0;
    double manual = 0.0;
    bool skipped = false;
    std::string error_message;
    std::string label;
    int64_t items = -1;
    UserCounters counters;
  };

  static Measurement Measure(const Benchmark& bench,
                             const std::vector<int64_t>& args,
                             int64_t iterations) {
    State state(iterations, args);
    bench.function_(state);
    state.FinishKeepRunning();
    Measurement m;
    m.iterations = state.completed_;
    m.real = state.real_time_used_;
    m.cpu = state.cpu_time_used_;
    m.manual = state.manual_time_used_;
    m.skipped = state.skipped_;
    m.error_message = state.error_message_;
    m.label = state.label_;
    m.items = state.items_processed_;
    m.counters = state.counters;
    return m;
  }

  /// The time basis the Use*Time flags select — it drives both the
  /// min_time convergence loop and the items/s denominator.
  static double BasisSeconds(const Benchmark& bench, const Measurement& m) {
    if (bench.use_manual_time_) return m.manual;
    if (bench.use_real_time_) return m.real;
    return m.cpu;
  }

  static RunResult RunOne(const Benchmark& bench,
                          const std::vector<int64_t>& args) {
    constexpr int64_t kMaxIterations = 1000000000;
    const double min_time = bench.min_time_ != 0.0 ? bench.min_time_
                                                   : GlobalFlags().min_time;
    Measurement m;
    if (bench.iterations_ != 0) {
      m = Measure(bench, args, bench.iterations_);
    } else {
      // Google Benchmark's convergence loop: grow the iteration count
      // until one run's basis time reaches min_time (or real time hits
      // the 5x overshoot guard).
      int64_t iters = 1;
      for (;;) {
        m = Measure(bench, args, iters);
        const double seconds = BasisSeconds(bench, m);
        if (m.skipped || iters >= kMaxIterations || seconds >= min_time ||
            m.real >= 5 * min_time) {
          break;
        }
        double multiplier = min_time * 1.4 / std::max(seconds, 1e-9);
        const bool significant = seconds / min_time > 0.1;
        if (!significant) multiplier = 10.0;
        if (multiplier <= 1.0) multiplier = 2.0;
        iters = std::min<int64_t>(
            kMaxIterations,
            std::max<int64_t>(int64_t(multiplier * double(iters)),
                              iters + 1));
      }
    }

    RunResult run;
    run.unit = bench.unit_;
    run.iterations = m.iterations;
    run.label = m.label;
    run.counters = m.counters;
    if (m.skipped) {
      run.error_occurred = true;
      run.error_message = m.error_message;
      return run;
    }
    const double mult = UnitMultiplier(bench.unit_);
    const double iters = double(std::max<int64_t>(m.iterations, 1));
    const double reported_real = bench.use_manual_time_ ? m.manual : m.real;
    run.real_time = reported_real / iters * mult;
    run.cpu_time = m.cpu / iters * mult;
    if (m.items >= 0) {
      const double basis = BasisSeconds(bench, m);
      run.has_items = true;
      run.items_per_second = basis > 0.0 ? double(m.items) / basis : 0.0;
    }
    return run;
  }
};

}  // namespace internal

// ---- public entry points ------------------------------------------

void Initialize(int* argc, char** argv) {
  Flags& flags = GlobalFlags();
  if (*argc > 0) flags.executable = argv[0];
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    std::string value;
    if (ParseStringFlag(argv[i], "--benchmark_min_time", &value)) {
      flags.min_time = std::atof(value.c_str());
    } else if (ParseStringFlag(argv[i], "--benchmark_filter", &value)) {
      flags.filter = value;
    } else if (ParseStringFlag(argv[i], "--benchmark_format", &value)) {
      flags.format = value;
    } else if (ParseStringFlag(argv[i], "--benchmark_out", &value)) {
      flags.out = value;
    } else if (ParseStringFlag(argv[i], "--benchmark_out_format", &value)) {
      flags.out_format = value;
    } else if (ParseStringFlag(argv[i], "--benchmark_counters_tabular",
                               &value)) {
      // Accepted for compatibility; the console reporter always prints
      // counters inline.
    } else {
      argv[kept++] = argv[i];
    }
  }
  *argc = kept;
}

bool ReportUnrecognizedArguments(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::fprintf(stderr, "%s: error: unrecognized command-line flag: %s\n",
                 argc > 0 ? argv[0] : "minibench", argv[i]);
  }
  return argc > 1;
}

std::size_t RunSpecifiedBenchmarks() {
  return internal::BenchmarkRunner::RunAll();
}

void Shutdown() {}

}  // namespace benchmark
