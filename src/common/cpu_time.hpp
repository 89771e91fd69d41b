// Per-thread CPU-time measurement.
//
// The sharded engine's per-shard busy accounting and the scaling bench
// both need "CPU seconds this thread actually executed": unlike wall
// time it excludes barrier waits and time spent descheduled.  On Linux
// each reading is a clock_gettime(CLOCK_THREAD_CPUTIME_ID) syscall
// (hundreds of ns, against tens for the vDSO monotonic clock), so the
// engine reads it per span, not per window: a parallel worker measures
// its own span, and a serial span is measured once and split across
// shards by the events each executed.  Summing events/busy across
// shards therefore measures aggregate processing capacity, even on an
// oversubscribed host, only for parallel runs and 1-shard serial runs.
#pragma once

#if defined(__linux__)
#include <time.h>
#else
#include <chrono>
#endif

namespace xartrek {

/// CPU seconds consumed by the calling thread.  Falls back to a
/// wall-clock reading where no thread clock exists (differences are
/// still meaningful; absolute values are not).
inline double thread_cpu_seconds() {
#if defined(__linux__)
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
#else
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
#endif
}

}  // namespace xartrek
