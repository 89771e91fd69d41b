// Discrete-event simulation core.
//
// A Simulation owns a virtual clock and an event queue.  Components
// (CPU clusters, links, the FPGA, the scheduler) register callbacks at
// future time points; `run`/`run_until` drains the queue in timestamp
// order, breaking ties by insertion order so executions are fully
// deterministic.
//
// The engine is allocation-free in steady state: events live in a
// slab-allocated pool recycled through a free list, the ready queue is
// an explicit 4-ary heap over small POD entries, and cancellation is
// generation-counted (an EventHandle is an index plus a generation, no
// per-event reference counting).  Cancelled events leave a husk in the
// heap that is reaped lazily when it reaches the top.
//
// One periodic sampler per Simulation runs off the heap, in a lane of
// its own (start_sampler).  Its ticks are ordered, sequence-numbered and
// counted exactly like a self-rescheduling event, so a run is
// bit-identical to one with the heap event; but a tick costs no heap
// push or pop, and the ticks between two heap events run as one call.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "sim/callback.hpp"
#include "sim/slot_pool.hpp"

namespace xartrek::sim {

/// The event-driven simulator.  Not copyable: components hold references
/// to it for the lifetime of an experiment.
class Simulation {
 public:
  /// Accepts any callable, including a moved-in std::function; small
  /// trivially-copyable captures (the common case) schedule and fire
  /// without a single indirect manager call or heap allocation.
  using Callback = UniqueCallback;

  /// A cancellation handle for a scheduled event.  Default-constructed
  /// handles are inert.  Handles are cheap to copy; cancelling any copy
  /// cancels the event.  A handle never refcounts its event: it names a
  /// pool slot plus the generation the slot had when the event was
  /// scheduled, so a handle to a fired or cancelled event can never
  /// touch a recycled slot.
  class EventHandle {
   public:
    EventHandle() = default;

    /// Prevent the event from firing.  Idempotent; safe after the event
    /// has already run (then a no-op), and safe after the Simulation
    /// itself has been destroyed.
    void cancel() {
      if (anchor_) {
        if (Simulation* sim = *anchor_) sim->cancel_slot(slot_, generation_);
      }
    }

    /// True if the event is still scheduled to fire.
    [[nodiscard]] bool pending() const {
      if (!anchor_) return false;
      const Simulation* sim = *anchor_;
      return sim != nullptr && sim->slot_pending(slot_, generation_);
    }

   private:
    friend class Simulation;
    EventHandle(std::shared_ptr<Simulation*> anchor, std::uint32_t slot,
                std::uint32_t generation)
        : anchor_(std::move(anchor)), slot_(slot), generation_(generation) {}
    /// Shared back-pointer to the owning simulation; nulled out when the
    /// simulation dies so stale handles degrade to no-ops (one heap
    /// allocation per Simulation, none per event).
    std::shared_ptr<Simulation*> anchor_;
    std::uint32_t slot_ = 0;
    std::uint32_t generation_ = 0;
  };

  /// The periodic sampler's callable.  Its argument is the number of
  /// consecutive ticks the call stands for (>= 1).
  using SamplerCallback = UniqueFunction<void(std::uint64_t)>;

  /// Registration of the periodic sampler.  Move-only; destroying or
  /// resetting it unregisters the sampler.  Safe whichever of it and
  /// the Simulation is destroyed first.
  class SamplerHandle {
   public:
    SamplerHandle() = default;
    SamplerHandle(SamplerHandle&& other) noexcept = default;
    SamplerHandle& operator=(SamplerHandle&& other) noexcept {
      if (this != &other) {
        reset();
        anchor_ = std::move(other.anchor_);
      }
      return *this;
    }
    SamplerHandle(const SamplerHandle&) = delete;
    SamplerHandle& operator=(const SamplerHandle&) = delete;
    ~SamplerHandle() { reset(); }

    /// Unregister the sampler.  Idempotent; a no-op once the
    /// Simulation is gone.
    void reset() {
      if (anchor_) {
        if (Simulation* sim = *anchor_) sim->stop_sampler();
        anchor_.reset();
      }
    }

   private:
    friend class Simulation;
    explicit SamplerHandle(std::shared_ptr<Simulation*> anchor)
        : anchor_(std::move(anchor)) {}
    std::shared_ptr<Simulation*> anchor_;
  };

  Simulation() : anchor_(std::make_shared<Simulation*>(this)) {}
  ~Simulation() { *anchor_ = nullptr; }
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedule `cb` at absolute time `t`.  Requires t >= now().
  EventHandle schedule_at(TimePoint t, Callback cb);

  /// Schedule `cb` after delay `d`.  Requires d >= 0.
  EventHandle schedule_in(Duration d, Callback cb) {
    XAR_EXPECTS(d >= Duration::zero());
    return schedule_at(now_ + d, std::move(cb));
  }

  /// Register the periodic sampler: its first tick is at now() + period,
  /// and each tick schedules the next one `period` later.  A tick is
  /// ordered against events exactly as if it were an event scheduled,
  /// with schedule_in(period), by the tick before it (the first by this
  /// call), and it counts as one executed event.  Ticks that fall
  /// before the next event, and at or before the horizon, run as one
  /// call cb(n) at the last of the n ticks, so the sampler must read
  /// only state that changes inside events.  It must not schedule
  /// events.  At most one sampler is registered at a time.
  [[nodiscard]] SamplerHandle start_sampler(Duration period,
                                            SamplerCallback cb);

  /// Run until the queue is empty.  Returns the number of events
  /// executed.  Never returns while a sampler is registered: its ticks
  /// keep the simulation going forever.
  std::size_t run();

  /// Run events with timestamp <= horizon; afterwards the clock reads
  /// exactly `horizon` (even if the queue drained earlier).  Returns the
  /// number of events executed.
  std::size_t run_until(TimePoint horizon);

  /// Execute at most one event with timestamp <= horizon, or one run
  /// of sampler ticks.  Returns false (and leaves the clock untouched)
  /// when none remains.  Lets callers run until an external condition
  /// holds even while periodic components (the sampler, load
  /// generators) keep the simulation going forever.
  bool step_one(TimePoint horizon) { return step(horizon); }

  /// Number of events currently scheduled (including cancelled husks not
  /// yet reaped, excluding the sampler's next tick); intended for tests
  /// and diagnostics.
  [[nodiscard]] std::size_t queued_events() const {
    return heap_.size() - (root_stale_ ? 1 : 0);
  }

  /// Timestamp of the next runnable event or sampler tick, or +infinity
  /// when there is none.  Reaps cancelled husks and the deferred fired
  /// root on the way, which is why it is non-const.  The sharded
  /// engine's epoch scheduler uses this to size synchronization windows
  /// and to fast-forward over globally idle stretches.
  [[nodiscard]] TimePoint next_event_time();

  /// Total events executed since construction.
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Grow the event pool and heap up front so a known load level runs
  /// without a single reallocation (diagnostics/benchmarks; optional).
  void reserve_events(std::size_t n) {
    slots_.reserve(n);
    heap_.reserve(n);
  }

 private:
  /// The heap orders on a single 128-bit integer key: the raw IEEE-754
  /// bits of the timestamp in the high word and the insertion sequence
  /// number in the low word.  Timestamps never go negative (the clock
  /// starts at the origin and schedule_at rejects the past), so the bit
  /// pattern orders exactly like the double -- and a one-word-pair
  /// integer compare lets sift-down pick the minimum child with
  /// conditional moves instead of unpredictable branches.  Sequence
  /// numbers make keys unique, which is what preserves FIFO order among
  /// same-time events.
  using HeapKey = unsigned __int128;
  /// sampler_key_ while no sampler is registered.  Every real key is
  /// smaller: a timestamp's sign bit is clear.
  static constexpr HeapKey kNoSampler = ~HeapKey{0};

  struct HeapEntry {
    HeapKey key;
    std::uint32_t slot;
    std::uint32_t generation;
  };

  static HeapKey heap_key(TimePoint t, std::uint64_t seq) {
    double ms = t.to_ms();
    if (ms == 0.0) ms = 0.0;  // canonicalize -0.0: its sign bit would
                              // order after every positive timestamp
    std::uint64_t bits;
    std::memcpy(&bits, &ms, sizeof(bits));
    return (static_cast<HeapKey>(bits) << 64) | seq;
  }
  static TimePoint key_time(HeapKey key) {
    const std::uint64_t bits = static_cast<std::uint64_t>(key >> 64);
    double ms;
    std::memcpy(&ms, &bits, sizeof(ms));
    return TimePoint::at_ms(ms);
  }

  /// Pop and execute one runnable event with timestamp <= horizon, or
  /// the sampler ticks due before it.  Returns false if none remains.
  bool step(TimePoint horizon);

  /// Run the sampler ticks with keys below `bound` and timestamps <=
  /// horizon as one callback.  Returns false if the first is past the
  /// horizon.
  bool run_sampler(TimePoint horizon, HeapKey bound);
  void stop_sampler() {
    sampler_key_ = kNoSampler;
    sampler_ = nullptr;
  }

  /// Materialize the deferred root removal and reap cancelled husks
  /// until the root is a live event (or the heap is empty).
  void prune();

  void release_slot(std::uint32_t slot);
  void cancel_slot(std::uint32_t slot, std::uint32_t generation);
  [[nodiscard]] bool slot_pending(std::uint32_t slot,
                                  std::uint32_t generation) const {
    return slots_.live_at(slot, generation);
  }

  void heap_push(HeapEntry entry);
  void heap_pop_root();
  void sift_down_from_root(HeapEntry entry);

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  /// Only the callback lives in the slab; the ordering key is kept in
  /// the heap entry so sift operations never touch it.
  SlotPool<Callback> slots_;
  std::vector<HeapEntry> heap_;  ///< 4-ary min-heap on (time, seq)
  /// True while heap_[0] is a fired event whose removal is deferred: if
  /// the callback schedules a successor (the dominant pattern), the new
  /// entry replaces the root with a single sift-down instead of a pop
  /// followed by a push.
  bool root_stale_ = false;
  /// The sampler lane: its next tick's key, in the heap's key space.
  HeapKey sampler_key_ = kNoSampler;
  Duration sampler_period_ = Duration::zero();
  SamplerCallback sampler_;
  std::shared_ptr<Simulation*> anchor_;
};

}  // namespace xartrek::sim
