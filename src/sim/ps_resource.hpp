// Processor-sharing resource.
//
// Models a pool of identical servers (CPU cores) or a shared channel
// (Ethernet, PCIe) under egalitarian processor sharing: with `n` active
// jobs the resource serves each at rate
//
//     r(n) = min(per_job_cap, capacity / n)
//
// For a c-core cluster running single-threaded processes, capacity = c
// core-units and per_job_cap = 1 (a process cannot use more than one
// core), which is exactly the contention model behind the paper's
// load-threshold estimation: an application that takes T ms alone takes
// ~T*n/c ms when n > c instances share the cluster.
//
// For a link, capacity = bandwidth (bytes/ms) and per_job_cap = capacity
// (one transfer may saturate the link); concurrent transfers share
// bandwidth fairly.
//
// Formulation: the resource keeps a *virtual clock* V that advances at
// the current per-job service rate r(n) -- V is the attained service of
// a hypothetical job that has been resident since time zero.  A job
// submitted with demand d when the clock reads V0 finishes exactly when
// V reaches V0 + d, so the bookkeeping per submit/cancel/complete is a
// constant-time clock update plus one min-heap operation on the finish
// virtual times: O(log n) instead of charging every resident job.  The
// completion instants are arithmetically identical to the naive
// per-job-decrement formulation (same products, same divisions), and
// same-instant completions still fire in submission order (the heap
// breaks finish-time ties on a submission sequence number).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "sim/callback.hpp"
#include "sim/key_heap.hpp"
#include "sim/simulation.hpp"
#include "sim/slot_pool.hpp"

namespace xartrek::sim {

/// A processor-sharing multi-server resource inside a Simulation.
class PsResource {
 public:
  /// Opaque job handle: encodes a pool slot plus the generation the
  /// slot had when the job was submitted, so a stale id (completed or
  /// cancelled long ago, slot since recycled) can never alias a live
  /// job.
  using JobId = std::uint64_t;
  using Callback = UniqueCallback;

  struct Config {
    std::string name;     ///< for diagnostics
    double capacity;      ///< total service units per ms (> 0)
    double per_job_cap;   ///< max service units per ms for one job (> 0)
  };

  PsResource(Simulation& sim, Config cfg);
  PsResource(const PsResource&) = delete;
  PsResource& operator=(const PsResource&) = delete;

  /// Submit a job demanding `demand` service units (>= 0).  `on_complete`
  /// fires from the event loop when the job's demand has been served.
  /// Completion order among jobs finishing at the same instant follows
  /// submission order.  O(log n) in the number of resident jobs.
  JobId submit(double demand, Callback on_complete);

  /// Remove a job before completion.  Returns false if the job already
  /// completed (or never existed).  The callback does not fire.
  /// O(log n) amortized (the heap entry is reaped lazily).
  bool cancel(JobId id);

  /// Jobs currently in service.  This is the paper's "CPU load" metric
  /// when the resource is the x86 cluster: *every* resident process
  /// counts, whether or not it currently holds a core.
  [[nodiscard]] std::size_t active_jobs() const { return live_; }

  /// Service rate a job enjoys right now (0 when idle).
  [[nodiscard]] double current_rate_per_job() const {
    return rate_per_job(live_);
  }

  /// Scale total capacity by `scale` (> 0) from this instant on; 1.0
  /// restores the configured rate.  Gray-failure hook (kCellSlow): work
  /// already served stays served -- the virtual clock is settled at the
  /// old rate before the new one takes effect, so completion instants
  /// stay arithmetically exact across the change.
  void set_capacity_scale(double scale);
  [[nodiscard]] double capacity_scale() const { return scale_; }

  /// Total service units delivered since construction (for conservation
  /// checks in tests).
  [[nodiscard]] double delivered_work() const;

  /// Remaining demand of a job (for tests).  Requires the job be active.
  [[nodiscard]] double remaining_demand(JobId id) const;

  [[nodiscard]] const Config& config() const { return cfg_; }

  /// Grow the job pool and heap up front so a known load level runs
  /// without a single reallocation (benchmarks; optional).
  void reserve_jobs(std::size_t n) {
    slots_.reserve(n);
    heap_.reserve(n);
    done_scratch_.reserve(n);
  }

 private:
  static constexpr std::uint32_t kNoSlot = SlotPool<int>::kNoSlot;

  /// One pooled job.  `finish_v` is the virtual-clock reading at which
  /// the job's demand is exhausted; `seq` is the global submission
  /// sequence number used to break finish-time ties.
  struct JobSlot {
    double finish_v = 0.0;
    std::uint64_t seq = 0;
    Callback on_complete;
  };

  /// Heap entry: ordering key only; the callback stays in the slab so
  /// sift operations move 32-byte PODs.
  struct HeapEntry {
    /// (finish_v, seq) key (key_heap.hpp); finish_v is never negative.
    HeapKey key;
    std::uint32_t slot;
    std::uint32_t generation;
  };

  [[nodiscard]] double rate_per_job(std::size_t n) const {
    if (n == 0) return 0.0;
    // Both the pool and the per-core cap slow down together: a slowed
    // cell's cores clock down, they do not disappear.
    const double fair = cfg_.capacity * scale_ / static_cast<double>(n);
    const double cap = cfg_.per_job_cap * scale_;
    return fair < cap ? fair : cap;
  }

  [[nodiscard]] static JobId encode_id(std::uint32_t slot,
                                       std::uint32_t generation) {
    return (static_cast<JobId>(slot) << 32) | generation;
  }
  /// The slot a live id names, or kNoSlot if the id is stale/unknown.
  [[nodiscard]] std::uint32_t resolve(JobId id) const {
    const auto slot = static_cast<std::uint32_t>(id >> 32);
    const auto generation = static_cast<std::uint32_t>(id);
    return slots_.live_at(slot, generation) ? slot : kNoSlot;
  }
  [[nodiscard]] bool entry_live(const HeapEntry& e) const {
    return slots_.live_at(e.slot, e.generation);
  }

  void release_slot(std::uint32_t slot);

  /// Advance the virtual clock (and delivered-work accounting) to now.
  void advance();

  /// (Re)arm the next-completion timer from current state.
  void reschedule();

  /// Timer body: complete every job whose finish virtual time has been
  /// reached.
  void on_tick();

  Simulation& sim_;
  Config cfg_;
  SlotPool<JobSlot> slots_;
  std::vector<HeapEntry> heap_;  ///< key heap on (finish_v, seq)
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  double scale_ = 1.0;           ///< capacity multiplier (gray faults)
  double vtime_ = 0.0;           ///< attained service per resident job
  TimePoint last_advance_ = TimePoint::origin();
  double delivered_ = 0.0;
  /// Fires at the next completion; disarmed while idle.  Destroying the
  /// resource unregisters it, so jobs in flight never fire.
  Simulation::Timer timer_;
  /// (submission seq, callback) of the jobs completing in the current
  /// tick; reused across ticks.  Kept as pairs so a batch containing
  /// near-ties (finish times equal up to rounding) can be put back into
  /// exact submission order before the callbacks run.
  std::vector<std::pair<std::uint64_t, Callback>> done_scratch_;
};

}  // namespace xartrek::sim
