// Shared plumbing for the benchmark driver: options, the metric sink,
// the benchmark-side host-time span recorder, digests, quantiles and
// host measurements (peak RSS, parallel capacity).
//
// Every layer is measured from outside: the workloads time the public
// calls they make into the library and read the counters it already
// exposes.  Nothing here reaches into the library's internals.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hash.hpp"

namespace xbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command-line options (see main.cpp for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke size: the same code paths on tiny inputs (the package's own
  /// tests use it); figures and rates are not comparable to full runs.
  bool smoke = false;
};

/// Where the traced run writes its Chrome-trace JSON files, relative to
/// the working directory.
inline constexpr const char* kTraceDir = ".bench_out";

/// An output check failed: the run reports no numbers.
struct CheckFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throw CheckFailed(what) unless `ok`.
void check(bool ok, const std::string& what);

/// Named metrics with units, in insertion order.  Setting a name twice
/// overwrites the value.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Benchmark-side host-time spans around the library calls a workload
/// makes.  Spans keep name, start, end and parent and share one trace
/// id; they stay in memory and are written as Chrome-trace JSON at the
/// end.  A disabled recorder costs one branch per scope.
class HostTracer {
 public:
  struct Span {
    const char* name = nullptr;  ///< static string
    double start_us = 0.0;       ///< since the recorder was created
    double end_us = 0.0;
    int parent = -1;             ///< index into spans(), -1 = root
  };

  /// RAII scope: opens a span on construction, closes it on
  /// destruction.  Nests through the recorder's open-span stack.
  class Scope {
   public:
    Scope(HostTracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostTracer& tracer_;
    int index_ = -1;
  };

  HostTracer(bool enabled, std::uint64_t trace_id);

  /// Durations (ms) of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  /// Chrome trace-event JSON of every closed span.
  [[nodiscard]] std::string chrome_json() const;

 private:
  [[nodiscard]] double now_us() const;

  bool enabled_;
  std::uint64_t trace_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// FNV-1a fold (common/hash.hpp) of a run's outputs: event counts,
/// completion times, figure results.  Two runs of one seed must produce
/// equal digests.
class Digest {
 public:
  void add(std::uint64_t v) { h_ = xartrek::fnv_mix(h_, v); }
  void add(double v);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = xartrek::kFnvOffset;
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
[[nodiscard]] double mean(const std::vector<double>& v);
/// Largest of `v` (a rate's fastest repetition); 0 when empty.
[[nodiscard]] inline double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// How many of `total` samples are due once `elapsed` of a `budget`
/// has passed: pacing repeated set-ups this way spreads them over the
/// measured phase instead of taking them in one burst.
[[nodiscard]] inline std::size_t paced(std::size_t total, double elapsed,
                                       double budget) {
  const double share = std::min(1.0, elapsed / budget);
  return static_cast<std::size_t>(std::ceil(share * static_cast<double>(total)));
}

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Hardware threads the process may use.
[[nodiscard]] unsigned host_threads();

/// Host calibration: `threads` independent spinning threads (no shared
/// data) against one, each doing the same fixed amount of work.
/// Returns threads x (one-thread wall / all-threads wall): the number
/// of threads' worth of work the host completes per wall second.
[[nodiscard]] double host_parallel_capacity(unsigned threads);

/// Write `text` to `path`, creating parent directories.  Returns false
/// on failure.
bool write_text(const std::string& path, const std::string& text);

}  // namespace xbench
