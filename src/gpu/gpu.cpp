#include "gpu/gpu.hpp"

#include <sstream>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "gpu/occupancy.hpp"

namespace sttgpu::gpu {

namespace {
/// Hard ceiling against livelock bugs; far above any expected run length.
constexpr Cycle kMaxCycles = 2'000'000'000;
}  // namespace

Gpu::Gpu(const GpuConfig& config, L2BankFactory& l2_factory)
    : config_(config), factory_(&l2_factory), icnt_(config_) {
  banks_.resize(config_.num_l2_banks);
  dram_.reserve(config_.num_l2_banks);
  for (unsigned b = 0; b < config_.num_l2_banks; ++b) {
    dram_.push_back(std::make_unique<DramChannel>(
        config_, [this, b](std::uint64_t cookie, Cycle now) {
          banks_[b]->on_dram_read_done(cookie, now);
        }));
  }
  for (unsigned b = 0; b < config_.num_l2_banks; ++b) {
    banks_[b] = l2_factory.make_bank(b, *dram_[b]);
    STTGPU_REQUIRE(banks_[b] != nullptr, "L2BankFactory returned a null bank");
  }
  sms_.reserve(config_.num_sms);
  senders_.reserve(config_.num_sms);
  for (unsigned s = 0; s < config_.num_sms; ++s) {
    sms_.push_back(std::make_unique<Sm>(s, config_, /*seed=*/1000 + s));
    senders_.push_back([this, s](Addr addr, bool is_store, std::uint8_t tag) {
      L2Request req;
      req.addr = addr;
      req.is_store = is_store;
      req.tag = tag;
      req.sm_id = s;
      const unsigned b = bank_of(addr);
      const Cycle arrival = icnt_.send_request(b, req, now_);
      if (arrival < bank_lane_[b]) bank_lane_[b] = arrival;
    });
  }
  // Everything is "due" at cycle 0; the first tick_due() recomputes each lane.
  bank_lane_.assign(config_.num_l2_banks, 0);
  sm_lane_.assign(config_.num_sms, 0);
  if (config_.telemetry != nullptr) {
    tel_ = config_.telemetry;
    STTGPU_REQUIRE(tel_->frame_count() == 0 && !tel_->in_frame(),
                   "Gpu: telemetry sink already holds frames — attach a fresh "
                   "Telemetry per run");
    tel_->set_us_per_cycle(1e6 / config_.core_clock_hz);
    tel_interval_ = tel_->interval();
    tel_next_ = tel_interval_;
    for (auto& bank : banks_) bank->attach_telemetry(tel_);
  }
  if (config_.cancel != nullptr || config_.heartbeat != nullptr) sup_next_ = 0;
}

void Gpu::supervision_point() {
  sup_next_ = now_ + kSupervisionInterval;
  if (config_.heartbeat != nullptr) {
    config_.heartbeat->store(now_, std::memory_order_relaxed);
  }
  if (config_.cancel == nullptr) return;
  const CancelReason reason = config_.cancel->reason();
  if (reason == CancelReason::kNone) return;
  std::ostringstream os;
  switch (reason) {
    case CancelReason::kUser:
      // Clean interrupt: no dump — the artifacts already on disk are the
      // useful output, and the matrix prints its own resume summary.
      os << "cancelled at cycle " << now_;
      break;
    case CancelReason::kWatchdog:
      os << "watchdog abort (no forward progress) at cycle " << now_ << state_dump();
      break;
    default:
      os << "job timeout at cycle " << now_ << state_dump();
      break;
  }
  throw Cancelled(reason, os.str());
}

std::string Gpu::state_dump() const {
  std::ostringstream os;
  os << "\n  diagnostic state at cycle " << now_ << ':';
  for (unsigned b = 0; b < banks_.size(); ++b) {
    os << "\n    l2b" << b << ": ";
    banks_[b]->describe_state(os, now_);
  }
  os << "\n    icnt " << (icnt_.idle() ? "idle" : "busy");
  os << ", dram";
  for (unsigned c = 0; c < dram_.size(); ++c) {
    os << ' ' << c << ':' << (dram_[c]->idle() ? "idle" : "busy");
  }
  std::uint64_t inflight = 0;
  for (const auto& sm : sms_) inflight += sm->inflight();
  os << "\n    sm in-flight transactions " << inflight;
  os << "\n    icnt express/queued: requests " << icnt_.request_express() << '/'
     << icnt_.request_queued() << ", responses " << icnt_.response_express() << '/'
     << icnt_.response_queued();
  return os.str();
}

void Gpu::telemetry_sample(Cycle at) {
  tel_->begin_frame(at);
  for (const auto& sm : sms_) {
    sm->settle(at);
    sm->sample_telemetry(*tel_);
  }
  for (auto& bank : banks_) bank->sample_telemetry(at, *tel_);
  for (unsigned c = 0; c < dram_.size(); ++c) dram_[c]->sample_telemetry(c, *tel_);
  icnt_.sample_telemetry(*tel_);
  tel_->end_frame();
}

unsigned Gpu::bank_of(Addr addr) const noexcept {
  return static_cast<unsigned>((addr / config_.l2_line_bytes) % config_.num_l2_banks);
}

void Gpu::step() {
  if (config_.fast_forward) {
    tick_due();
  } else {
    tick_all();
  }
  ++now_;
  // Interval boundary: every cycle < now_ is fully processed, cycle now_ has
  // not started — the exact state the fast-forward walk reproduces.
  // tel_next_ is kNoCycle when telemetry is off, so this never fires then.
  if (now_ == tel_next_) {
    telemetry_sample(now_);
    tel_next_ += tel_interval_;
  }
}

void Gpu::tick_all() {
  // Memory side first so that this cycle's completions can wake warps.
  for (unsigned b = 0; b < banks_.size(); ++b) {
    icnt_.deliver_requests(
        b, now_, [&] { return banks_[b]->accepting(); },
        [&](const L2Request& req) { banks_[b]->enqueue(req, now_); });
  }
  for (auto& d : dram_) d->tick(now_);
  for (auto& bank : banks_) bank->tick(now_);
  response_scratch_.clear();
  for (auto& bank : banks_) bank->drain_responses(now_, response_scratch_);
  for (const L2Response& resp : response_scratch_) icnt_.send_response(resp, now_);

  for (unsigned s = 0; s < sms_.size(); ++s) {
    icnt_.deliver_responses(s, now_, [&](const L2Response& resp) {
      sms_[s]->on_response(resp, now_, senders_[s]);
    });
    sms_[s]->cycle(now_, senders_[s]);
  }
}

void Gpu::tick_due() {
  // Same phase order as tick_all(); each skipped call is a no-op by the
  // conservative-next-event contract (nothing delivered, nothing due).
  due_banks_.clear();
  for (unsigned b = 0; b < banks_.size(); ++b) {
    if (bank_lane_[b] <= now_) due_banks_.push_back(b);
  }
  for (const unsigned b : due_banks_) {
    icnt_.deliver_requests(
        b, now_, [&] { return banks_[b]->accepting(); },
        [&](const L2Request& req) { banks_[b]->enqueue(req, now_); });
  }
  for (const unsigned b : due_banks_) {
    dram_[b]->tick(now_);
    banks_[b]->tick(now_);
  }
  response_scratch_.clear();
  for (const unsigned b : due_banks_) {
    banks_[b]->drain_responses(now_, response_scratch_);
    const Cycle dram_next = dram_[b]->next_event_cycle();
    const Cycle bank_next = banks_[b]->next_event_cycle();
    Cycle lane = icnt_.next_request_arrival(b);
    if (dram_next < lane) lane = dram_next;
    if (bank_next < lane) lane = bank_next;
    bank_lane_[b] = lane;
  }
  for (const L2Response& resp : response_scratch_) {
    const Cycle arrival = icnt_.send_response(resp, now_);
    if (arrival < sm_lane_[resp.sm_id]) sm_lane_[resp.sm_id] = arrival;
  }

  for (unsigned s = 0; s < sms_.size(); ++s) {
    // Not due: no response arrival, no sleeper due, and either no ready warp
    // or a clean stall. cycle() would only count an idle or stall cycle,
    // which the SM settles at its next tick (Sm::settle).
    if (sm_lane_[s] > now_) continue;
    icnt_.deliver_responses(s, now_, [&](const L2Response& resp) {
      sms_[s]->on_response(resp, now_, senders_[s]);
    });
    sms_[s]->cycle(now_, senders_[s]);
    const Cycle sm_next = sms_[s]->next_event_cycle();
    const Cycle resp_next = icnt_.next_response_arrival(s);
    sm_lane_[s] = sm_next < resp_next ? sm_next : resp_next;
  }
}

Cycle Gpu::earliest_lane() const {
  Cycle next = kNoCycle;
  for (const Cycle lane : sm_lane_) next = lane < next ? lane : next;
  for (const Cycle lane : bank_lane_) next = lane < next ? lane : next;
  return next;
}

void Gpu::fast_forward() {
  if (!config_.fast_forward || now_ < ff_next_try_) return;
  const Cycle next = earliest_lane();
  // kNoCycle (nothing scheduled anywhere) falls through to plain stepping so
  // a livelocked configuration still hits the cycle ceiling diagnostics.
  if (next == kNoCycle || next <= now_) {
    // An event is already due: this is a busy stretch, and re-scanning every
    // cycle would cost more than it saves. Back off — stepping through a
    // skippable cycle plainly produces the identical state (it is a no-op
    // either way), so delaying the next attempt never changes results.
    ff_next_try_ = now_ + kFastForwardBackoff;
    return;
  }
  // Every skipped cycle is provably a no-op: no packet arrives, no bank has
  // input or a maturing deadline, no warp is ready or due to wake — the only
  // architected effect of stepping through them would be SM idle/stall
  // accounting, which each SM settles lazily. Interval boundaries inside
  // (now_, next] are sampled in closed form: the plain loop samples when its
  // post-increment now_ reaches tel_next_, i.e. after processing cycle
  // tel_next_-1 — inside this gap that state is exactly "accounting settled
  // up to the boundary", which telemetry_sample() applies. Boundary == next
  // is included (the plain loop samples there before executing cycle next).
  while (tel_next_ <= next) {
    telemetry_sample(tel_next_);
    tel_next_ += tel_interval_;
  }
  now_ = next;
}

bool Gpu::memory_idle() const {
  if (!icnt_.idle()) return false;
  for (const auto& bank : banks_) {
    if (!bank->idle()) return false;
  }
  for (const auto& d : dram_) {
    if (!d->idle()) return false;
  }
  for (const auto& sm : sms_) {
    if (sm->inflight() != 0) return false;
  }
  return true;
}

void Gpu::drain_memory() {
  while (!memory_idle()) {
    step();
    STTGPU_REQUIRE(now_ < kMaxCycles, "Gpu: memory drain exceeded the cycle ceiling");
    // Skip only while the drain continues: once the step above emptied the
    // memory system, jumping to some future event (e.g. a stale SM sleep
    // entry) would inflate now_ past where the plain loop stops.
    if (!memory_idle()) fast_forward();
    if (now_ >= sup_next_) supervision_point();
  }
}

void Gpu::run_kernel(const workload::KernelSpec& kernel, std::uint64_t seed) {
  const Cycle kernel_start = now_;
  const Occupancy occ = compute_occupancy(kernel, config_);

  std::vector<std::deque<unsigned>> queues(config_.num_sms);
  for (unsigned blk = 0; blk < kernel.grid_blocks; ++blk) {
    queues[blk % config_.num_sms].push_back(blk);
  }
  const std::uint64_t warps_in_grid =
      static_cast<std::uint64_t>(kernel.grid_blocks) * kernel.warps_per_block();
  for (unsigned s = 0; s < config_.num_sms; ++s) {
    sms_[s]->settle(now_);
    sms_[s]->start_kernel(kernel, std::move(queues[s]), occ.blocks_per_sm, warps_in_grid,
                          seed);
  }
  // Fresh warps are ready immediately: pull every SM lane down to "due now".
  for (Cycle& lane : sm_lane_) lane = 0;

  const auto all_done = [&] {
    for (const auto& sm : sms_) {
      if (!sm->kernel_done()) return false;
    }
    return true;
  };
  // Event-driven completion: check every cycle (kernel_done() can only flip
  // during a step, never during a fast-forwarded gap, so both the plain and
  // the fast-forwarded loop stop at the same cycle) and skip quiescent
  // stretches — long memory waits — in one jump.
  while (!all_done()) {
    step();
    STTGPU_REQUIRE(now_ < kMaxCycles, "Gpu: kernel exceeded the cycle ceiling");
    // Same guard as drain_memory(): never jump past the completion cycle.
    if (!all_done()) fast_forward();
    if (now_ >= sup_next_) supervision_point();
  }

  if (tel_ != nullptr) tel_->slice("kernel", kernel.name, kernel_start, now_);

  // Inter-kernel boundary: L1s are flushed (no coherence across launches).
  const Cycle drain_start = now_;
  for (unsigned s = 0; s < config_.num_sms; ++s) sms_[s]->flush_l1(senders_[s]);
  drain_memory();
  if (tel_ != nullptr && now_ > drain_start) {
    tel_->slice("drain", kernel.name, drain_start, now_);
  }
}

RunResult Gpu::run(const workload::Workload& workload) {
  STTGPU_REQUIRE(!workload.kernels.empty(), "Gpu::run: workload has no kernels");

  for (std::size_t k = 0; k < workload.kernels.size(); ++k) {
    run_kernel(workload.kernels[k], workload.seed + 0x1000 * (k + 1));
  }

  // Final partial interval: both loop modes end at the identical now_, so
  // this closing frame is identical too. Skipped when the run happened to
  // end exactly on a sampled boundary.
  if (tel_ != nullptr && now_ > tel_next_ - tel_interval_) telemetry_sample(now_);

  RunResult r;
  r.cycles = now_;
  for (const auto& sm : sms_) {
    r.instructions += sm->stats().issued_instructions;
    r.sm.issued_instructions += sm->stats().issued_instructions;
    r.sm.issued_loads += sm->stats().issued_loads;
    r.sm.issued_stores += sm->stats().issued_stores;
    r.sm.load_transactions += sm->stats().load_transactions;
    r.sm.store_transactions += sm->stats().store_transactions;
    r.sm.idle_cycles += sm->stats().idle_cycles;
    r.sm.stall_cycles += sm->stats().stall_cycles;
    r.sm.mshr_merges += sm->stats().mshr_merges;
    r.l1d_hits += sm->l1().data_counters().load_hits;
    r.l1d_misses += sm->l1().data_counters().load_misses;
  }
  r.ipc = r.cycles ? static_cast<double>(r.instructions) / static_cast<double>(r.cycles)
                   : 0.0;
  r.runtime_s = config_.clock().seconds_for_cycles(r.cycles);
  for (const auto& bank : banks_) {
    r.l2.merge(bank->stats());
    r.l2_leakage_w += bank->leakage_w();
    r.l2_energy.merge(bank->energy());
    factory_->collect(*bank, r.l2_counters);
  }
  for (const auto& d : dram_) {
    r.dram_reads += d->reads();
    r.dram_writes += d->writes();
    r.sched.dram_express_reads += d->express_reads();
    r.sched.dram_queued_reads += d->queued_reads();
  }
  r.sched.icnt_request_express = icnt_.request_express();
  r.sched.icnt_request_queued = icnt_.request_queued();
  r.sched.icnt_response_express = icnt_.response_express();
  r.sched.icnt_response_queued = icnt_.response_queued();
  return r;
}

}  // namespace sttgpu::gpu
