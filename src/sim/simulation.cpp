#include "sim/simulation.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace xartrek::sim {

void Simulation::release_slot(std::uint32_t slot) {
  slots_[slot] = nullptr;  // drop captured state now, not at slot reuse
  slots_.release(slot);    // existing handles and heap husks become inert
}

void Simulation::cancel_slot(std::uint32_t slot, std::uint32_t generation) {
  // The heap entry stays behind as a husk; `step` reaps it when it
  // surfaces.  A generation mismatch means the event already fired (or
  // this very slot was recycled for a newer event): nothing to do.
  if (slot_pending(slot, generation)) release_slot(slot);
}

void Simulation::heap_push(HeapEntry entry) {
  if (root_stale_) {
    // The fired root is logically gone; the new entry takes its place
    // with one sift-down instead of a pop followed by a push.
    root_stale_ = false;
    key_heap_replace_root(heap_, entry);
    return;
  }
  key_heap_push(heap_, entry);
}

Simulation::EventHandle Simulation::schedule_at(TimePoint t, Callback cb) {
  XAR_EXPECTS(t >= now_);
  XAR_EXPECTS(cb != nullptr);
  const std::uint32_t slot = slots_.acquire();
  slots_[slot] = std::move(cb);
  const std::uint32_t generation = slots_.generation_of(slot);
  heap_push(HeapEntry{heap_key(t, next_seq_++), slot, generation});
  return EventHandle{anchor_, slot, generation};
}

void Simulation::prune() {
  if (root_stale_) {
    // The previous event's callback scheduled nothing; materialize
    // the deferred removal now.
    root_stale_ = false;
    key_heap_pop_root(heap_);
  }
  while (!heap_.empty() &&
         !slots_.live_at(heap_.front().slot, heap_.front().generation)) {
    key_heap_pop_root(heap_);  // cancelled husk
  }
}

Simulation::SamplerHandle Simulation::start_sampler(Duration period,
                                                   SamplerCallback cb) {
  XAR_EXPECTS(sampler_ == nullptr);  // one sampler per Simulation
  XAR_EXPECTS(period > Duration::zero());
  XAR_EXPECTS(cb != nullptr);
  sampler_ = std::move(cb);
  sampler_period_ = period;
  sampler_key_ = heap_key(now_ + period, next_seq_++);
  return SamplerHandle{anchor_};
}

Simulation::Timer Simulation::add_timer(TimerFn fn, void* ctx) {
  XAR_EXPECTS(fn != nullptr);
  std::uint32_t id;
  if (free_timers_.empty()) {
    id = static_cast<std::uint32_t>(timers_.size());
    timers_.push_back({});
  } else {
    id = free_timers_.back();
    free_timers_.pop_back();
  }
  timers_[id] = TimerSlot{fn, ctx, kNotArmed};
  return Timer{anchor_, id};
}

void Simulation::timer_place(std::size_t i, TimerEntry entry) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (timer_heap_[parent].key < entry.key) break;
    timer_heap_[i] = timer_heap_[parent];
    timers_[timer_heap_[i].id].pos = static_cast<std::uint32_t>(i);
    i = parent;
  }
  const std::size_t n = timer_heap_.size();
  for (;;) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && timer_heap_[child + 1].key < timer_heap_[child].key) {
      ++child;
    }
    if (entry.key < timer_heap_[child].key) break;
    timer_heap_[i] = timer_heap_[child];
    timers_[timer_heap_[i].id].pos = static_cast<std::uint32_t>(i);
    i = child;
  }
  timer_heap_[i] = entry;
  timers_[entry.id].pos = static_cast<std::uint32_t>(i);
}

void Simulation::arm_timer(std::uint32_t id, TimePoint t) {
  XAR_EXPECTS(t >= now_);
  // The same key draw as schedule_at: the timer takes the place in the
  // run's order that a freshly scheduled event would.
  const TimerEntry entry{heap_key(t, next_seq_++), id};
  std::size_t pos = timers_[id].pos;
  if (pos == kNotArmed) {
    pos = timer_heap_.size();
    timer_heap_.push_back(entry);  // the hole timer_place fills
  }
  timer_place(pos, entry);
}

void Simulation::disarm_timer(std::uint32_t id) {
  const std::uint32_t pos = timers_[id].pos;
  if (pos == kNotArmed) return;
  timers_[id].pos = kNotArmed;
  const TimerEntry last = timer_heap_.back();
  timer_heap_.pop_back();
  if (pos < timer_heap_.size()) timer_place(pos, last);
}

void Simulation::remove_timer(std::uint32_t id) {
  disarm_timer(id);
  timers_[id] = TimerSlot{nullptr, nullptr, kNotArmed};
  free_timers_.push_back(id);
}

void Simulation::fire_timer() {
  const std::uint32_t id = timer_heap_.front().id;
  disarm_timer(id);
  // Call through a copy: the callback may add timers and grow the table.
  const TimerSlot timer = timers_[id];
  ++executed_;
  timer.fn(timer.ctx);
}

TimePoint Simulation::next_event_time() {
  prune();
  HeapKey next = sampler_key_;
  if (!heap_.empty()) next = std::min(next, heap_.front().key);
  if (!timer_heap_.empty()) next = std::min(next, timer_heap_.front().key);
  if (next == kNever) {
    return TimePoint::at_ms(std::numeric_limits<double>::infinity());
  }
  return key_time(next);
}

bool Simulation::run_sampler(TimePoint horizon, HeapKey bound) {
  const TimePoint first = key_time(sampler_key_);
  if (first > horizon) return false;
  XAR_ASSERT(first >= now_);
  // Each tick draws its successor's key exactly as a self-rescheduling
  // event's schedule_in would have; nothing runs in between, so the
  // ticks up to the next event all read the same state.  Those draws
  // are all newer than the bound's, so a successor's key is below the
  // bound exactly when its time is: the loop compares times and draws
  // the sequence numbers in one go.  The adds stay sequential, so every
  // tick time keeps its bits.
  const double stop = bound == kNever ? std::numeric_limits<double>::infinity()
                                      : key_time(bound).to_ms();
  const double limit = horizon.to_ms();
  const double period = sampler_period_.to_ms();
  double at = first.to_ms();
  double next = at + period;
  std::uint64_t ticks = 1;
  while (next < stop && next <= limit) {
    at = next;
    next = at + period;
    ++ticks;
  }
  now_ = TimePoint::at_ms(at);
  sampler_key_ = heap_key(TimePoint::at_ms(next), next_seq_ + ticks - 1);
  next_seq_ += ticks;
  executed_ += ticks;
  const std::uint64_t seq = next_seq_;
  sampler_(ticks);
  XAR_ASSERT(next_seq_ == seq);  // a sampler must not schedule events
  return true;
}

bool Simulation::step(TimePoint horizon) {
  prune();
  const HeapKey event_key = heap_.empty() ? kNever : heap_.front().key;
  const HeapKey timer_key =
      timer_heap_.empty() ? kNever : timer_heap_.front().key;
  const HeapKey next = std::min(event_key, timer_key);
  if (sampler_key_ < next) return run_sampler(horizon, next);
  if (next == kNever) return false;
  const TimePoint at = key_time(next);
  if (at > horizon) return false;
  XAR_ASSERT(at >= now_);
  now_ = at;
  if (timer_key < event_key) {
    fire_timer();
    return true;
  }
  // Move the callback out and retire the slot before executing: the
  // callback may schedule further events (growing the slab) and its
  // own handle must already read as fired.  The root entry's removal
  // is deferred so a successor scheduled by the callback can replace
  // it in one sift.
  const HeapEntry top = heap_.front();
  root_stale_ = true;
  Callback cb = std::move(slots_[top.slot]);
  release_slot(top.slot);
  ++executed_;
  cb();
  return true;
}

std::size_t Simulation::run() {
  const std::uint64_t before = executed_;
  while (step(TimePoint::at_ms(std::numeric_limits<double>::infinity()))) {
  }
  return executed_ - before;
}

std::size_t Simulation::run_until(TimePoint horizon) {
  XAR_EXPECTS(horizon >= now_);
  const std::uint64_t before = executed_;
  while (step(horizon)) {
  }
  if (horizon > now_) now_ = horizon;
  return executed_ - before;
}

}  // namespace xartrek::sim
