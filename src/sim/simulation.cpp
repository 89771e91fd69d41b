#include "sim/simulation.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace xartrek::sim {

namespace {
constexpr std::size_t kHeapArity = 4;
}  // namespace

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

// Both sift directions move a hole instead of swapping: one entry copy
// per level rather than three.
void Simulation::heap_push(HeapEntry entry) {
  if (root_stale_) {
    // The fired root is logically gone; the new entry takes its place
    // with one sift-down instead of a pop followed by a push.
    root_stale_ = false;
    sift_down_from_root(entry);
    return;
  }
  std::size_t i = heap_.size();
  heap_.push_back(entry);  // reserves the hole; overwritten on placement
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (entry.key >= heap_[parent].key) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Simulation::heap_pop_root() {
  XAR_ASSERT(!heap_.empty());
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  sift_down_from_root(last);
}

void Simulation::sift_down_from_root(HeapEntry entry) {
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  for (;;) {
    const std::size_t first_child = i * kHeapArity + 1;
    if (first_child >= n) break;
    std::size_t best;
    if (first_child + kHeapArity <= n) {
      // Full block of four children: keys are unique, so a pairwise
      // min tree is exact, and the unpredictable comparisons become
      // conditional moves.
      const std::size_t a =
          heap_[first_child + 1].key < heap_[first_child].key
              ? first_child + 1
              : first_child;
      const std::size_t b =
          heap_[first_child + 3].key < heap_[first_child + 2].key
              ? first_child + 3
              : first_child + 2;
      best = heap_[b].key < heap_[a].key ? b : a;
    } else {
      best = first_child;
      for (std::size_t c = first_child + 1; c < n; ++c) {
        if (heap_[c].key < heap_[best].key) best = c;
      }
    }
    if (heap_[best].key >= entry.key) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
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
    heap_pop_root();
  }
  while (!heap_.empty() &&
         !slots_.live_at(heap_.front().slot, heap_.front().generation)) {
    heap_pop_root();  // cancelled husk
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

TimePoint Simulation::next_event_time() {
  prune();
  const HeapKey next = heap_.empty()
                           ? sampler_key_
                           : std::min(heap_.front().key, sampler_key_);
  if (next == kNoSampler) {
    return TimePoint::at_ms(std::numeric_limits<double>::infinity());
  }
  return key_time(next);
}

bool Simulation::run_sampler(TimePoint horizon, HeapKey bound) {
  TimePoint at = key_time(sampler_key_);
  if (at > horizon) return false;
  XAR_ASSERT(at >= now_);
  // Each tick draws its successor's key exactly as a self-rescheduling
  // event's schedule_in would have; nothing runs in between, so the
  // ticks up to the next event all read the same state.
  std::uint64_t ticks = 0;
  do {
    now_ = at;
    ++ticks;
    sampler_key_ = heap_key(now_ + sampler_period_, next_seq_++);
    at = key_time(sampler_key_);
  } while (sampler_key_ < bound && at <= horizon);
  executed_ += ticks;
  const std::uint64_t seq = next_seq_;
  sampler_(ticks);
  XAR_ASSERT(next_seq_ == seq);  // a sampler must not schedule events
  return true;
}

bool Simulation::step(TimePoint horizon) {
  prune();
  if (heap_.empty()) {
    return sampler_key_ != kNoSampler && run_sampler(horizon, kNoSampler);
  }
  const HeapEntry top = heap_.front();
  if (sampler_key_ < top.key) return run_sampler(horizon, top.key);
  const TimePoint at = key_time(top.key);
  if (at > horizon) return false;
  XAR_ASSERT(at >= now_);
  now_ = at;
  // Move the callback out and retire the slot before executing: the
  // callback may schedule further events (growing the slab) and its
  // own handle must already read as fired.  The root entry's removal
  // is deferred so a successor scheduled by the callback can replace
  // it in one sift.
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
