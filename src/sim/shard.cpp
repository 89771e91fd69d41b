#include "sim/shard.hpp"

#include <algorithm>
#include <barrier>
#include <exception>
#include <limits>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "common/cpu_time.hpp"
#include "obs/registry.hpp"

namespace xartrek::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Best-effort affinity pin: worker w -> CPU (w mod ncpu).  A
/// restricted mask (cgroups, taskset) can reject the target CPU; the
/// worker then simply stays unpinned.
void pin_to_cpu(std::size_t w) {
#if defined(__linux__)
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(w % ncpu), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)w;
#endif
}

}  // namespace

// Persistent worker pool.  Threads for workers 1..W-1 are created on
// the first parallel span and then park on `start_gate` between spans;
// the calling thread is worker 0.  `drained`'s completion step -- run
// on exactly one thread while every other participant is blocked in
// the barrier -- is the single-threaded boundary where the epoch
// adapts, shards migrate between workers, and the next window is
// sized.
struct ShardedSimulation::Pool {
  struct Boundary {
    ShardedSimulation* s;
    void operator()() noexcept { s->on_drained(); }
  };

  std::barrier<> flushed;
  std::barrier<Boundary> drained;
  std::barrier<> start_gate;  ///< span kickoff + shutdown release
  std::barrier<> end_gate;    ///< span completion
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors;  ///< by worker
  bool shutdown = false;  ///< written before start_gate, read after

  Pool(ShardedSimulation* s, std::size_t w)
      : flushed(static_cast<std::ptrdiff_t>(w)),
        drained(static_cast<std::ptrdiff_t>(w), Boundary{s}),
        start_gate(static_cast<std::ptrdiff_t>(w)),
        end_gate(static_cast<std::ptrdiff_t>(w)),
        errors(w) {}
};

ShardedSimulation::ShardedSimulation(Options opts) : opts_(opts) {
  XAR_EXPECTS(opts.shards >= 1);
  XAR_EXPECTS(opts.epoch > Duration::zero());
  XAR_EXPECTS(opts.mailbox_capacity >= 1);
  XAR_EXPECTS(opts.max_epoch.to_ms() == 0.0 || opts.max_epoch >= opts.epoch);
  XAR_EXPECTS(opts.exec.steal_period >= 1);
  XAR_EXPECTS(opts.exec.steal_imbalance >= 1.0);
  const std::size_t n = opts.shards;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto state = std::make_unique<ShardState>();
    state->spill.resize(n);
    state->spill_head.assign(n, 0);
    state->spill_peak.assign(n, 0);
    shards_.push_back(std::move(state));
  }
  mailboxes_.reserve(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox>(opts.mailbox_capacity));
  }
  inbound_ = std::make_unique<InboundCount[]>(n);

  // Workers and the initial static shard -> worker map.  The map (and
  // the stealing that rewrites it) is maintained in serial mode too,
  // so serial and parallel runs agree on every decision and stat.
  workers_ = opts.exec.workers == 0 ? n : std::min(opts.exec.workers, n);
  cell_worker_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    cell_worker_[i] = static_cast<std::uint32_t>(i % workers_);
  }
  worker_stats_.resize(workers_);
  per_cell_cpu_ = opts.exec.steal || workers_ != n;

  base_epoch_ms_ = cur_epoch_ms_ = opts.epoch.to_ms();
  max_epoch_ms_ = (opts.exec.adaptive && opts.max_epoch.to_ms() > 0.0)
                      ? opts.max_epoch.to_ms()
                      : base_epoch_ms_;
  executed_at_rebalance_.assign(n, 0);
  span_executed_.assign(n, 0);
  // Pre-size so the boundary step never allocates (it runs inside a
  // noexcept barrier completion).
  load_scratch_.reserve(workers_);
}

ShardedSimulation::~ShardedSimulation() {
  if (pool_ != nullptr) {
    pool_->shutdown = true;  // ordered by the barrier below
    pool_->start_gate.arrive_and_wait();
    for (auto& t : pool_->threads) t.join();
  }
}

std::uint64_t ShardedSimulation::executed_events() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->sim.executed_events();
  return total;
}

void ShardedSimulation::set_worker_of(ShardId id, std::size_t worker) {
  XAR_EXPECTS(id < shards_.size());
  XAR_EXPECTS(worker < workers_);
  if (cell_worker_[id] == worker) return;
  cell_worker_[id] = static_cast<std::uint32_t>(worker);
  ++shards_[id]->stats.steals;
  ++steal_moves_;
}

void ShardedSimulation::post(ShardId src, ShardId dst, TimePoint t,
                             UniqueCallback cb) {
  XAR_EXPECTS(src < shards_.size() && dst < shards_.size());
  XAR_EXPECTS(cb != nullptr);
  ShardState& s = *shards_[src];
  if (src == dst) {
    // Same shard: an ordinary local event, any time >= now.
    s.sim.schedule_at(t, std::move(cb));
    return;
  }
  // Lookahead contract: the receiver is executing the same window, so
  // the message must land at or past its end.  The window ends one
  // epoch past the later of the next event and the send promise, no
  // post comes before either, and channel latencies are checked
  // against max_epoch(), so this holds at every window length the
  // engine can pick -- unless the model broke its promise, which fails
  // here.  (A tiny epsilon absorbs the rounding slack of
  // `now + latency` vs `start + epoch`.)
  XAR_EXPECTS(t.to_ms() >= window_end_ms_ - 1e-9);
  ++s.stats.posts;
  CrossShardEvent ev{t.to_ms(), std::move(cb)};
  auto& spill = s.spill[dst];
  const bool spilling = s.spill_head[dst] < spill.size();
  if (spilling || !mailbox(src, dst).try_push(std::move(ev))) {
    // Full (or already spilling -- later messages must queue behind the
    // spill to keep FIFO order).  Delivery slips to a later boundary.
    ++s.stats.backpressure_stalls;
    spill.push_back(std::move(ev));
    ++s.spilled;
    // Producer-exact pair depth including the overflow the ring's own
    // high_water cannot see (the consumer is parked mid-window, so
    // size() is exact here).
    const std::size_t depth =
        mailbox(src, dst).size() + (spill.size() - s.spill_head[dst]);
    if (depth > s.spill_peak[dst]) s.spill_peak[dst] = depth;
  } else {
    inbound_[dst].n.fetch_add(1, std::memory_order_relaxed);
  }
}

void ShardedSimulation::flush_spill(ShardId src) {
  ShardState& s = *shards_[src];
  if (s.spilled == 0) return;  // nothing pending anywhere: one load, done
  for (ShardId dst = 0; dst < shards_.size(); ++dst) {
    auto& spill = s.spill[dst];
    std::size_t& head = s.spill_head[dst];
    while (head < spill.size() &&
           mailbox(src, dst).try_push(std::move(spill[head]))) {
      ++head;
      --s.spilled;
      inbound_[dst].n.fetch_add(1, std::memory_order_relaxed);
    }
    if (head == spill.size()) {
      spill.clear();  // keeps capacity for the next burst
      head = 0;
    }
  }
}

void ShardedSimulation::drain_inbound(ShardId dst) {
  // Occupancy check first: a boundary with no inbound traffic costs
  // one relaxed load instead of probing every source's ring.  Exact
  // here because every producer is past the flush barrier (which also
  // publishes its relaxed increments) and none posts again until after
  // the drain barrier.
  auto& pending = inbound_[dst].n;
  if (pending.load(std::memory_order_relaxed) == 0) return;
  ShardState& d = *shards_[dst];
  const double now_ms = d.sim.now().to_ms();
  std::uint64_t drained = 0;
  CrossShardEvent ev;
  for (ShardId src = 0; src < shards_.size(); ++src) {
    if (src == dst) continue;
    while (mailbox(src, dst).try_pop(ev)) {
      // A message deferred by backpressure may surface after its
      // timestamp; it then runs as early as possible.
      const double at = std::max(ev.at_ms, now_ms);
      d.sim.schedule_at(TimePoint::at_ms(at), std::move(ev.cb));
      ++drained;
    }
  }
  d.stats.received += drained;
  // Exact inbound occupancy at this boundary: what the rings delivered
  // plus backlog still spilled at the sources.  Reading the sources'
  // spill bookkeeping here is race-free -- spill is written only in
  // the flush/run phases, and the flushed barrier (which every worker
  // has passed before any drain starts) orders those writes before
  // this read.  Backlog can only be nonzero while the source's ring to
  // us is full, so the pending==0 early-out above never skips it.
  std::uint64_t backlog = 0;
  for (ShardId src = 0; src < shards_.size(); ++src) {
    if (src == dst) continue;
    const ShardState& ss = *shards_[src];
    if (ss.spilled == 0) continue;
    backlog += ss.spill[dst].size() - ss.spill_head[dst];
  }
  if (drained + backlog > d.stats.mailbox_hwm) {
    d.stats.mailbox_hwm = drained + backlog;
  }
  pending.fetch_sub(drained, std::memory_order_relaxed);
}

std::uint64_t ShardedSimulation::run_shard(ShardId id, TimePoint window_end) {
  ShardState& s = *shards_[id];
  const std::uint64_t before = s.sim.executed_events();
  s.sim.run_until(window_end);
  const std::uint64_t delta = s.sim.executed_events() - before;
  s.stats.executed += delta;
  return delta;
}

double ShardedSimulation::min_next_ms(bool& spilled) {
  double min_next = kInf;
  spilled = false;
  for (auto& s : shards_) {
    min_next = std::min(min_next, s->sim.next_event_time().to_ms());
    spilled = spilled || s->spilled != 0;
  }
  return min_next;
}

void ShardedSimulation::adapt_epoch() {
  std::uint64_t posts = 0;
  for (const auto& s : shards_) posts += s->stats.posts;
  const std::uint64_t delta = posts - posts_at_boundary_;
  posts_at_boundary_ = posts;
  if (delta != 0) {
    // Traffic: snap back to the base epoch so cross-shard delivery
    // granularity (and spill pressure) stays what the model asked for.
    quiet_windows_ = 0;
    cur_epoch_ms_ = base_epoch_ms_;
  } else if (quiet_windows_ < opts_.exec.adapt_quiet_windows) {
    ++quiet_windows_;
  } else {
    // Quiet streak: coarsen geometrically up to the legal maximum (the
    // model's minimum cross-shard latency).
    cur_epoch_ms_ = std::min(cur_epoch_ms_ * 2.0, max_epoch_ms_);
  }
}

void ShardedSimulation::maybe_rebalance() {
  if (++windows_since_rebalance_ < opts_.exec.steal_period) return;
  windows_since_rebalance_ = 0;
  const std::size_t n = shards_.size();
  // Per-worker load over the evaluation period, from the per-shard
  // executed-event counters -- deterministic, so serial and parallel
  // runs rewrite the map identically.
  load_scratch_.assign(workers_, 0);
  for (std::size_t c = 0; c < n; ++c) {
    load_scratch_[cell_worker_[c]] +=
        shards_[c]->sim.executed_events() - executed_at_rebalance_[c];
  }
  std::size_t wmax = 0;
  std::size_t wmin = 0;
  for (std::size_t w = 1; w < workers_; ++w) {
    if (load_scratch_[w] > load_scratch_[wmax]) wmax = w;
    if (load_scratch_[w] < load_scratch_[wmin]) wmin = w;
  }
  const std::uint64_t hot = load_scratch_[wmax];
  const std::uint64_t cold = load_scratch_[wmin];
  if (wmax != wmin && hot != 0 &&
      static_cast<double>(hot) >
          opts_.exec.steal_imbalance * static_cast<double>(cold + 1)) {
    // Move the hot worker's coldest shard (ties -> lowest id): it
    // narrows the gap with the least disruption, and a hot shard never
    // migrates away from the lane it is keeping warm.
    std::size_t owned = 0;
    std::size_t pick = n;
    std::uint64_t pick_delta = 0;
    for (std::size_t c = 0; c < n; ++c) {
      if (cell_worker_[c] != wmax) continue;
      ++owned;
      const std::uint64_t delta =
          shards_[c]->sim.executed_events() - executed_at_rebalance_[c];
      if (pick == n || delta < pick_delta) {
        pick = c;
        pick_delta = delta;
      }
    }
    // Guards: the donor must keep at least one shard, and the move
    // must strictly lower the maximum load (the recipient may end up
    // above the donor, but never above the old maximum, so successive
    // moves monotonically tighten the spread instead of ping-ponging).
    if (owned >= 2 && pick_delta < hot - cold) {
      cell_worker_[pick] = static_cast<std::uint32_t>(wmin);
      ++shards_[pick]->stats.steals;
      ++steal_moves_;
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    executed_at_rebalance_[c] = shards_[c]->sim.executed_events();
  }
}

bool ShardedSimulation::plan_next_window(double horizon_ms) {
  if (opts_.exec.adaptive) adapt_epoch();
  if (opts_.exec.steal && workers_ < shards_.size()) maybe_rebalance();
  bool spilled = false;
  double next = min_next_ms(spilled);
  if (spilled) {
    // Spilled messages must reach the next boundary as soon as
    // possible: bound the window to one epoch from the current time.
    next = std::min(next, shards_[0]->sim.now().to_ms());
  }
  if (next == kInf || next > horizon_ms) return false;
  // Nobody posts before the promise, so nothing another shard could
  // receive lands before promise + epoch.  A bounded span only: under
  // run() an infinite promise would drive every clock to infinity.
  double start = next;
  if (promise_fn_ != nullptr && !spilled && horizon_ms < kInf) {
    start = std::max(next, promise_fn_(promise_ctx_).to_ms());
  }
  window_end_ms_ = std::min(start + cur_epoch_ms_, horizon_ms);
  ++windows_;
  return true;
}

std::size_t ShardedSimulation::run_span_serial(TimePoint horizon) {
  // One thread-CPU measurement spans the whole call, as in
  // worker_span: two clock reads per span, none per window.  The span's
  // CPU time (events plus boundary work) is then credited to each shard
  // in proportion to the events it executed here, so the shares sum to
  // the measurement and a shard that ran nothing gets nothing.
  const std::size_t n = shards_.size();
  for (std::size_t s = 0; s < n; ++s) {
    span_executed_[s] = shards_[s]->stats.executed;
  }
  const double cpu0 = thread_cpu_seconds();
  std::uint64_t executed = 0;
  const double horizon_ms = horizon.to_ms();
  for (;;) {
    for (ShardId s = 0; s < n; ++s) flush_spill(s);
    for (ShardId s = 0; s < n; ++s) drain_inbound(s);
    if (!plan_next_window(horizon_ms)) break;
    const TimePoint window_end = TimePoint::at_ms(window_end_ms_);
    for (ShardId s = 0; s < n; ++s) executed += run_shard(s, window_end);
  }
  const double cpu = thread_cpu_seconds() - cpu0;
  if (executed != 0) {
    for (std::size_t s = 0; s < n; ++s) {
      ShardStats& st = shards_[s]->stats;
      // The share is exactly 1.0 for a shard that ran every event, so
      // a 1-shard run gets the span measurement unchanged.
      const auto ran = static_cast<double>(st.executed - span_executed_[s]);
      st.busy_seconds += cpu * (ran / static_cast<double>(executed));
    }
  }
  return executed;
}

void ShardedSimulation::on_drained() noexcept {
  for (const auto& e : pool_->errors) {
    if (e != nullptr) {
      done_ = true;
      return;
    }
  }
  done_ = !plan_next_window(span_horizon_ms_);
}

void ShardedSimulation::worker_span(std::size_t w) {
  // One thread-CPU measurement spans the whole call: worker busy time
  // covers event execution, mailbox work and barrier arrival -- but
  // not time blocked or descheduled -- at the cost of two clock reads
  // per span instead of two per window.
  const double cpu0 = thread_cpu_seconds();
  std::uint64_t executed = 0;
  const std::size_t n = shards_.size();
  // Boundary protocol per window: every worker flushes its shards'
  // outbound spill, barrier; drains their inbound mailboxes, barrier
  // (whose completion -- run on exactly one thread while the rest are
  // parked -- adapts the epoch, rebalances the map, and sizes the next
  // window or declares termination); runs its shards.  The run phase
  // of window W overlaps other workers' flush for the next boundary,
  // which is safe: each mailbox has one producer (flush/post from the
  // shard's owner) and one consumer (the destination owner's drain,
  // strictly after the flush barrier).  The shard -> worker map is
  // only written inside the drain barrier's completion, so every read
  // here is ordered against it.
  for (;;) {
    for (std::size_t c = 0; c < n; ++c) {
      if (cell_worker_[c] == w) flush_spill(static_cast<ShardId>(c));
    }
    pool_->flushed.arrive_and_wait();
    for (std::size_t c = 0; c < n; ++c) {
      if (cell_worker_[c] == w) drain_inbound(static_cast<ShardId>(c));
    }
    pool_->drained.arrive_and_wait();
    if (done_) break;
    const TimePoint window_end = TimePoint::at_ms(window_end_ms_);
    try {
      for (std::size_t c = 0; c < n; ++c) {
        if (cell_worker_[c] != w) continue;
        // Per-window reads only where the map can diverge (see
        // per_cell_cpu_); the static 1:1 map credits the span below.
        const double shard_cpu0 = per_cell_cpu_ ? thread_cpu_seconds() : 0.0;
        executed += run_shard(static_cast<ShardId>(c), window_end);
        if (per_cell_cpu_) {
          shards_[c]->stats.busy_seconds += thread_cpu_seconds() - shard_cpu0;
        }
      }
    } catch (...) {
      // Park the error and keep honoring the barriers so no peer
      // deadlocks; the next boundary terminates everyone.
      pool_->errors[w] = std::current_exception();
    }
  }
  const double cpu = thread_cpu_seconds() - cpu0;
  worker_stats_[w].executed += executed;
  worker_stats_[w].busy_seconds += cpu;
  // With the static 1:1 map, worker w's whole-span measurement is also
  // its only shard's busy time (per-shard attribution with per-window
  // clock reads is reserved for runs where the map can diverge).
  if (!per_cell_cpu_) shards_[w]->stats.busy_seconds += cpu;
}

void ShardedSimulation::worker_thread(std::size_t w) {
  if (opts_.exec.pin_threads) pin_to_cpu(w);
  for (;;) {
    pool_->start_gate.arrive_and_wait();
    if (pool_->shutdown) return;
    worker_span(w);
    pool_->end_gate.arrive_and_wait();
  }
}

void ShardedSimulation::ensure_pool() {
  if (pool_ != nullptr) return;
  pool_ = std::make_unique<Pool>(this, workers_);
  pool_->threads.reserve(workers_ - 1);
  for (std::size_t w = 1; w < workers_; ++w) {
    pool_->threads.emplace_back([this, w] { worker_thread(w); });
  }
}

std::size_t ShardedSimulation::run_span_parallel(TimePoint horizon) {
  const std::uint64_t before = executed_events();
  ensure_pool();
  done_ = false;
  span_horizon_ms_ = horizon.to_ms();
  for (auto& e : pool_->errors) e = nullptr;
  // Wake the parked pool, run worker 0's share on this thread, then
  // wait for everyone to finish the span.  The caller's thread is
  // never pinned -- only pool threads are.
  pool_->start_gate.arrive_and_wait();
  worker_span(0);
  pool_->end_gate.arrive_and_wait();
  for (auto& e : pool_->errors) {
    if (e != nullptr) std::rethrow_exception(e);
  }
  return executed_events() - before;
}

std::size_t ShardedSimulation::run_span(TimePoint horizon) {
  const std::size_t executed = (opts_.parallel && workers_ > 1)
                                   ? run_span_parallel(horizon)
                                   : run_span_serial(horizon);
  if (horizon.to_ms() < kInf) {
    // Align every clock with the horizon (mirrors Simulation::run_until).
    for (auto& s : shards_) {
      if (s->sim.now() < horizon) s->sim.run_until(horizon);
    }
  }
  return executed;
}

std::uint64_t ShardedSimulation::mailbox_pair_hwm(ShardId src,
                                                  ShardId dst) const {
  XAR_EXPECTS(src < shards_.size() && dst < shards_.size());
  if (src == dst) return 0;
  const std::size_t ring =
      mailboxes_[src * shards_.size() + dst]->high_water();
  const std::size_t spill = shards_[src]->spill_peak[dst];
  return static_cast<std::uint64_t>(std::max(ring, spill));
}

void ShardedSimulation::register_metrics(obs::Registry& registry,
                                         const std::string& prefix) const {
  const std::size_t n = shards_.size();
  for (std::size_t s = 0; s < n; ++s) {
    const std::string base = prefix + ".shard" + std::to_string(s) + ".";
    const ShardStats& st = shards_[s]->stats;
    registry.link_counter(base + "executed", &st.executed);
    registry.link_counter(base + "posts", &st.posts);
    registry.link_counter(base + "received", &st.received);
    registry.link_counter(base + "backpressure_stalls",
                          &st.backpressure_stalls);
    // steals (like busy_seconds) is wall-clock scheduling state -- 0 in
    // serial mode, worker-dependent in parallel -- so registering it
    // would break the byte-identical serial-vs-parallel snapshot.
    registry.link_gauge(base + "mailbox_hwm", &st.mailbox_hwm);
  }
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      registry.probe(
          prefix + ".mailbox." + std::to_string(src) + "_" +
              std::to_string(dst) + ".hwm",
          [this, src, dst] {
            return static_cast<double>(mailbox_pair_hwm(
                static_cast<ShardId>(src), static_cast<ShardId>(dst)));
          },
          obs::Registry::Kind::kGauge);
    }
  }
}

std::size_t ShardedSimulation::run() {
  return run_span(TimePoint::at_ms(kInf));
}

std::size_t ShardedSimulation::run_until(TimePoint horizon) {
  XAR_EXPECTS(horizon >= now());
  return run_span(horizon);
}

}  // namespace xartrek::sim
