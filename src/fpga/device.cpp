#include "fpga/device.hpp"

#include <algorithm>
#include <utility>

namespace xartrek::fpga {

Duration kernel_latency(const HwKernelConfig& k, std::uint64_t items) {
  XAR_EXPECTS(k.clock_mhz > 0.0);
  const double cycles = static_cast<double>(k.fixed_cycles) +
                        k.cycles_per_item * static_cast<double>(items);
  // cycles / (MHz * 1e3 cycles-per-ms-per-MHz)
  return Duration::ms(cycles / (k.clock_mhz * 1e3));
}

bool XclbinImage::contains_kernel(const std::string& name) const {
  for (const auto& k : kernels) {
    if (k.name == name) return true;
  }
  return false;
}

FpgaResources XclbinImage::total_kernel_resources() const {
  FpgaResources sum;
  for (const auto& k : kernels) {
    XAR_EXPECTS(k.compute_units >= 1);
    for (int cu = 0; cu < k.compute_units; ++cu) sum += k.resources;
  }
  return sum;
}

FpgaSpec alveo_u50_spec() {
  return FpgaSpec{"Xilinx Alveo U50", alveo_u50_total(), alveo_u50_shell(),
                  Duration::ms(300.0)};
}

const char* to_string(ReconfigureResult r) {
  switch (r) {
    case ReconfigureResult::kOk: return "ok";
    case ReconfigureResult::kNoFit: return "no-fit";
    case ReconfigureResult::kOfflineDrop: return "offline-drop";
    case ReconfigureResult::kTornWrite: return "torn-write";
    case ReconfigureResult::kInjectedFailure: return "injected-failure";
  }
  return "unknown";
}

FpgaDevice::FpgaDevice(sim::Simulation& sim, hw::Link& pcie, FpgaSpec spec,
                       Logger log)
    : sim_(sim), pcie_(pcie), spec_(std::move(spec)), log_(std::move(log)) {}

void FpgaDevice::finish_port(ReconfigureCallback done,
                             ReconfigureResult result) {
  reconfig_active_ = false;
  // Serve any queued request before signalling completion so
  // `reconfiguring()` stays true continuously when requests are
  // stacked.  An offline card keeps its queue parked.
  if (!offline_) start_reconfigure();
  done(result);
}

void FpgaDevice::retire_cus(
    std::vector<std::unique_ptr<sim::FifoStation>>& cus) {
  for (auto& cu : cus) {
    if (cu->busy() || cu->queue_length() > 0) {
      draining_cus_.push_back(std::move(cu));
    }
  }
  cus.clear();
  // Anything displaced earlier that has since drained is safe now: an
  // idle FifoStation has no scheduled event pointing at it.
  std::erase_if(draining_cus_, [](const auto& cu) { return !cu->busy(); });
}

void FpgaDevice::enable_slots(SlotConfig cfg) {
  XAR_EXPECTS(cfg.slots >= 1);
  XAR_EXPECTS(!slot_mode());
  XAR_EXPECTS(!reconfiguring() && !offline_);
  XAR_EXPECTS(kernels_.empty() && !loaded_.has_value());
  slot_capacity_ = spec_.usable() / cfg.slots;
  slots_.resize(cfg.slots);
  slot_cfg_ = cfg;
  bump_epoch();
  log_.info("fpga: slot mode enabled -- ", cfg.slots,
            " PR slots of ", slot_capacity_.luts, " LUTs each");
}

const FpgaResources& FpgaDevice::slot_capacity() const {
  XAR_EXPECTS(slot_mode());
  return slot_capacity_;
}

std::optional<std::string> FpgaDevice::slot_kernel(std::uint32_t slot) const {
  XAR_EXPECTS(slot_mode() && slot < slots_.size());
  const Slot& s = slots_[slot];
  if (s.state != Slot::State::kLoaded) return std::nullopt;
  return s.config.name;
}

void FpgaDevice::reconfigure(const XclbinImage& image,
                             ReconfigureCallback on_done) {
  XAR_EXPECTS(on_done != nullptr);
  // Whole-image downloads and slot virtualization don't mix: a full
  // bitstream would overwrite every slot.
  XAR_EXPECTS(!slot_mode());
  XAR_EXPECTS(
      FpgaResources::fits_within(image.total_kernel_resources(),
                                 spec_.usable()));
  if (offline_) {
    // Device lost: the request completes (the driver returns an error
    // the caller treats as "not resident") without loading anything.
    log_.warn("fpga: reconfiguration of ", image.id,
              " dropped -- device offline");
    sim_.schedule_in(Duration::zero(),
                     [done = std::move(on_done)]() mutable {
                       done(ReconfigureResult::kOfflineDrop);
                     });
    return;
  }
  PendingReconfig req;
  req.image = image;
  req.on_done = std::move(on_done);
  reconfig_queue_.push_back(std::move(req));
  if (!reconfig_active_) start_reconfigure();
}

void FpgaDevice::reconfigure_slot(std::uint32_t slot,
                                  const HwKernelConfig& kernel,
                                  std::uint32_t replicas,
                                  ReconfigureCallback on_done) {
  XAR_EXPECTS(on_done != nullptr);
  XAR_EXPECTS(slot_mode());
  XAR_EXPECTS(slot < slots_.size());
  XAR_EXPECTS(replicas >= 1);
  FpgaResources need;
  for (std::uint32_t cu = 0; cu < replicas; ++cu) need += kernel.resources;
  if (!FpgaResources::fits_within(need, slot_capacity_)) {
    // Area refusal is a completion, not a contract violation: the slot
    // scheduler probes fits speculatively and consumes the result.
    log_.warn("fpga: ", kernel.name, " x", replicas,
              " does not fit slot ", slot, " -- refused");
    sim_.schedule_in(Duration::zero(),
                     [done = std::move(on_done)]() mutable {
                       done(ReconfigureResult::kNoFit);
                     });
    return;
  }
  if (offline_) {
    log_.warn("fpga: slot programming of ", kernel.name,
              " dropped -- device offline");
    sim_.schedule_in(Duration::zero(),
                     [done = std::move(on_done)]() mutable {
                       done(ReconfigureResult::kOfflineDrop);
                     });
    return;
  }
  PendingReconfig req;
  req.slot = slot;
  req.kernel = kernel;
  req.replicas = replicas;
  req.on_done = std::move(on_done);
  reconfig_queue_.push_back(std::move(req));
  if (!reconfig_active_) start_reconfigure();
}

void FpgaDevice::set_offline(bool offline) {
  offline_ = offline;
  bump_epoch();
  if (offline) {
    ++offline_events_;
    for (auto& [name, k] : kernels_) retire_cus(k.cus);
    kernels_.clear();
    loaded_.reset();
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      if (s.state == Slot::State::kEmpty && s.cus.empty()) continue;
      s.state = Slot::State::kEmpty;
      retire_cus(s.cus);
      ++s.version;
    }
    // Drop queued downloads; their completions fire as offline drops.
    for (auto& req : reconfig_queue_) {
      sim_.schedule_in(Duration::zero(),
                       [done = std::move(req.on_done)]() mutable {
                         done(ReconfigureResult::kOfflineDrop);
                       });
    }
    reconfig_queue_.clear();
    log_.warn("fpga: device taken offline");
  } else {
    log_.info("fpga: device back online (nothing loaded)");
  }
}

void FpgaDevice::set_port_flaky(double fail_probability, Rng rng) {
  XAR_EXPECTS(fail_probability >= 0.0 && fail_probability <= 1.0);
  flaky_ = true;
  flaky_probability_ = fail_probability;
  flaky_rng_ = rng;
}

bool FpgaDevice::draw_injected_failure() {
  if (fail_armed_) {
    fail_armed_ = false;
    return true;
  }
  return flaky_ && flaky_rng_.bernoulli(flaky_probability_);
}

void FpgaDevice::start_reconfigure() {
  XAR_ASSERT(!reconfig_active_);
  if (reconfig_queue_.empty()) return;
  reconfig_active_ = true;
  PendingReconfig req = std::move(reconfig_queue_.front());
  reconfig_queue_.pop_front();
  if (req.slot == kNoSlot) {
    start_whole_image(std::move(req));
  } else {
    start_slot(std::move(req));
  }
}

void FpgaDevice::start_whole_image(PendingReconfig req) {
  const std::uint64_t offline_mark = offline_events_;
  bump_epoch();  // the old configuration dies right below
  // The old configuration stops being callable the moment programming
  // starts; CUs with work still in flight drain in the graveyard (their
  // completions fire with the old service times).
  for (auto& [name, k] : kernels_) retire_cus(k.cus);
  kernels_.clear();
  loaded_.reset();

  log_.debug("fpga: downloading xclbin ", req.image.id, " (",
             req.image.size_bytes, " bytes)");
  pcie_.transfer(
      req.image.size_bytes,
      [this, offline_mark, req = std::move(req)]() mutable {
        sim_.schedule_in(
            spec_.programming_time,
            [this, offline_mark, req = std::move(req)]() mutable {
              if (offline_ || offline_events_ != offline_mark) {
                // Card died -- or blipped -- mid-programming: the
                // bitstream write is torn, nothing becomes resident.
                bump_epoch();
                finish_port(std::move(req.on_done),
                            ReconfigureResult::kTornWrite);
                return;
              }
              if (draw_injected_failure()) {
                // Injected programming failure (corrupted bitstream /
                // ICAP error): the card survives but nothing becomes
                // resident.  One-shot arm, or a flaky-port draw.
                bump_epoch();
                log_.warn("fpga: programming of ", req.image.id,
                          " failed (injected)");
                finish_port(std::move(req.on_done),
                            ReconfigureResult::kInjectedFailure);
                return;
              }
              for (const auto& k : req.image.kernels) {
                LoadedKernel loaded;
                loaded.config = k;
                for (int cu = 0; cu < k.compute_units; ++cu) {
                  loaded.cus.push_back(std::make_unique<sim::FifoStation>(
                      sim_, req.image.id + "/" + k.name + "." +
                                std::to_string(cu)));
                }
                kernels_.emplace(k.name, std::move(loaded));
              }
              loaded_ = std::move(req.image);
              ++reconfigs_;
              bump_epoch();
              log_.info("fpga: xclbin ", loaded_->id, " live with ",
                        kernels_.size(), " kernel(s)");
              finish_port(std::move(req.on_done), ReconfigureResult::kOk);
            });
      });
}

void FpgaDevice::start_slot(PendingReconfig req) {
  const std::uint64_t offline_mark = offline_events_;
  Slot& target = slots_[req.slot];
  // Only this slot goes dark while its partial bitstream programs; the
  // other slots keep serving -- the point of the virtualization.
  target.state = Slot::State::kProgramming;
  retire_cus(target.cus);
  ++target.version;
  bump_epoch();

  log_.debug("fpga: programming slot ", req.slot, " with ", req.kernel.name,
             " x", req.replicas);
  pcie_.transfer(
      slot_cfg_->slot_bitstream_bytes,
      [this, offline_mark, req = std::move(req)]() mutable {
        sim_.schedule_in(
            slot_cfg_->slot_program_time,
            [this, offline_mark, req = std::move(req)]() mutable {
              Slot& slot = slots_[req.slot];
              if (offline_ || offline_events_ != offline_mark) {
                // Torn write confined to this slot: set_offline already
                // emptied the table; record the tear and move on.
                slot.state = Slot::State::kEmpty;
                retire_cus(slot.cus);
                ++slot.version;
                bump_epoch();
                finish_port(std::move(req.on_done),
                            ReconfigureResult::kTornWrite);
                return;
              }
              if (draw_injected_failure()) {
                slot.state = Slot::State::kEmpty;
                ++slot.version;
                bump_epoch();
                log_.warn("fpga: slot ", req.slot, " programming of ",
                          req.kernel.name, " failed (injected)");
                finish_port(std::move(req.on_done),
                            ReconfigureResult::kInjectedFailure);
                return;
              }
              slot.state = Slot::State::kLoaded;
              slot.config = req.kernel;
              for (std::uint32_t cu = 0; cu < req.replicas; ++cu) {
                slot.cus.push_back(std::make_unique<sim::FifoStation>(
                    sim_, "slot" + std::to_string(req.slot) + "/" +
                              req.kernel.name + "." + std::to_string(cu)));
              }
              ++slot.version;
              ++reconfigs_;
              bump_epoch();
              log_.info("fpga: slot ", req.slot, " live with ",
                        req.kernel.name, " x", req.replicas);
              finish_port(std::move(req.on_done), ReconfigureResult::kOk);
            });
      });
}

bool FpgaDevice::has_kernel(const std::string& name) const {
  if (slot_mode()) {
    for (const Slot& s : slots_) {
      if (s.state == Slot::State::kLoaded && s.config.name == name)
        return true;
    }
    return false;
  }
  return !reconfig_active_ && kernels_.contains(name);
}

std::vector<std::string> FpgaDevice::available_kernels() const {
  std::vector<std::string> names;
  if (slot_mode()) {
    for (const Slot& s : slots_) {
      if (s.state == Slot::State::kLoaded) names.push_back(s.config.name);
    }
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    return names;
  }
  if (reconfig_active_) return names;
  names.reserve(kernels_.size());
  for (const auto& [name, k] : kernels_) names.push_back(name);
  return names;
}

ResidencyView FpgaDevice::residency(std::string_view kernel) const {
  ResidencyView view;
  view.version = residency_epoch_;
  if (slot_mode()) {
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      const Slot& s = slots_[i];
      if (s.state != Slot::State::kLoaded || s.config.name != kernel)
        continue;
      if (view.slot == kNoSlot) {
        view.slot = i;
        view.version = s.version;
      }
      view.cus += static_cast<std::uint32_t>(s.cus.size());
    }
    return view;
  }
  if (reconfig_active_) return view;
  auto it = kernels_.find(std::string(kernel));
  if (it == kernels_.end()) return view;
  view.cus = static_cast<std::uint32_t>(it->second.cus.size());
  return view;
}

bool FpgaDevice::residency_current(const ResidencyView& view) const {
  if (slot_mode() && view.slot != kNoSlot) {
    return view.slot < slots_.size() &&
           slots_[view.slot].version == view.version;
  }
  return view.version == residency_epoch_;
}

sim::FifoStation& FpgaDevice::LoadedKernel::pick_cu() const {
  XAR_ASSERT(!cus.empty());
  sim::FifoStation* best = cus.front().get();
  auto backlog = [](const sim::FifoStation& cu) {
    return cu.queue_length() + (cu.busy() ? 1 : 0);
  };
  for (const auto& cu : cus) {
    if (backlog(*cu) < backlog(*best)) best = cu.get();
  }
  return *best;
}

sim::FifoStation* FpgaDevice::pick_slot_cu(const std::string& name,
                                           const HwKernelConfig** cfg) {
  sim::FifoStation* best = nullptr;
  auto backlog = [](const sim::FifoStation& cu) {
    return cu.queue_length() + (cu.busy() ? 1 : 0);
  };
  for (Slot& s : slots_) {
    if (s.state != Slot::State::kLoaded || s.config.name != name) continue;
    for (const auto& cu : s.cus) {
      if (best == nullptr || backlog(*cu) < backlog(*best)) {
        best = cu.get();
        *cfg = &s.config;
      }
    }
  }
  return best;
}

void FpgaDevice::execute(const std::string& name, std::uint64_t items,
                         Callback on_done) {
  XAR_EXPECTS(on_done != nullptr);
  if (slot_mode()) {
    const HwKernelConfig* cfg = nullptr;
    sim::FifoStation* cu = pick_slot_cu(name, &cfg);
    XAR_EXPECTS(cu != nullptr);
    const Duration service = kernel_latency(*cfg, items);
    cu->enqueue(service, [this, cb = std::move(on_done)]() mutable {
      ++retired_invocations_;
      cb();
    });
    return;
  }
  auto it = kernels_.find(name);
  XAR_EXPECTS(it != kernels_.end() && !reconfig_active_);
  const Duration service = kernel_latency(it->second.config, items);
  it->second.pick_cu().enqueue(service,
                               [this, cb = std::move(on_done)]() mutable {
                                 ++retired_invocations_;
                                 cb();
                               });
}

std::optional<std::string> FpgaDevice::loaded_image() const {
  if (!loaded_) return std::nullopt;
  return loaded_->id;
}

std::uint64_t FpgaDevice::kernel_invocations() const {
  return retired_invocations_;
}

}  // namespace xartrek::fpga
