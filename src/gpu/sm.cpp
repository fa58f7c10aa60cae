#include "gpu/sm.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "common/telemetry.hpp"

namespace sttgpu::gpu {

using workload::MemSpace;
using workload::WarpInstr;

namespace {
/// Cycles from "last awaited response arrived" to the warp being schedulable.
constexpr Cycle kWakeLatency = 4;
}  // namespace

Sm::Sm(unsigned id, const GpuConfig& config, std::uint64_t seed)
    : id_(id), config_(&config), seed_(seed), l1_(config, seed * 7919 + id) {}

void Sm::start_kernel(const workload::KernelSpec& kernel, std::deque<unsigned> block_queue,
                      unsigned resident_blocks, std::uint64_t warps_in_grid,
                      std::uint64_t workload_seed) {
  STTGPU_REQUIRE(resident_blocks > 0, "Sm: need at least one resident block slot");
  STTGPU_ASSERT_MSG(active_warps_ == 0, "Sm: previous kernel still running");

  kernel_ = kernel;
  block_queue_ = std::move(block_queue);
  warps_in_grid_ = warps_in_grid;
  workload_seed_ = workload_seed;
  warps_per_block_ = kernel.warps_per_block();

  warps_.assign(static_cast<std::size_t>(resident_blocks) * warps_per_block_, WarpCtx{});
  block_live_warps_.assign(resident_blocks, 0);
  ready_bits_.assign((warps_.size() + 63) / 64, 0);
  ready_count_ = 0;
  stall_clean_ = false;
  while (!sleep_heap_.empty()) sleep_heap_.pop();
  last_issued_ = -1;

  for (unsigned slot = 0; slot < resident_blocks && !block_queue_.empty(); ++slot) {
    launch_block(slot, 0);
  }
}

void Sm::launch_block(unsigned slot, Cycle /*now*/) {
  STTGPU_ASSERT(!block_queue_.empty());
  const unsigned block_id = block_queue_.front();
  block_queue_.pop_front();

  for (unsigned w = 0; w < warps_per_block_; ++w) {
    const unsigned idx = slot * warps_per_block_ + w;
    WarpCtx& ctx = warps_[idx];
    const std::uint64_t warp_global =
        static_cast<std::uint64_t>(block_id) * warps_per_block_ + w;
    ctx.stream.emplace(kernel_, warp_global, warps_in_grid_, workload_seed_);
    ctx.pending.reset();
    ctx.state = WarpState::kReady;
    ctx.ready_at = 0;
    ctx.awaiting = 0;
    ctx.block_slot = slot;
    set_ready(idx);
    // A launch during cycle()'s issue loop must add the fresh warps to the
    // tail of this cycle's candidate list (they are issue candidates right
    // away); outside the loop the scratch is rebuilt before use anyway.
    issue_order_.push_back(idx);
    ++active_warps_;
  }
  block_live_warps_[slot] = warps_per_block_;
}

void Sm::wake_due(Cycle now) {
  while (!sleep_heap_.empty() && sleep_heap_.top().first <= now) {
    const unsigned warp = sleep_heap_.top().second;
    sleep_heap_.pop();
    WarpCtx& ctx = warps_[warp];
    // Stale entries can exist if a warp was re-slept; only the entry whose
    // time matches wakes it.
    if (ctx.state == WarpState::kSleeping && ctx.ready_at <= now) {
      ctx.state = WarpState::kReady;
      set_ready(warp);
    }
  }
}

void Sm::sleep_warp(unsigned warp, Cycle until) {
  WarpCtx& ctx = warps_[warp];
  clear_ready(warp);
  ctx.state = WarpState::kSleeping;
  ctx.ready_at = until;
  sleep_heap_.emplace(until, warp);
}

void Sm::finish_warp(unsigned warp, Cycle now) {
  WarpCtx& ctx = warps_[warp];
  STTGPU_ASSERT(ctx.state != WarpState::kInactive);
  clear_ready(warp);
  ctx.state = WarpState::kInactive;
  ctx.stream.reset();
  STTGPU_ASSERT(active_warps_ > 0);
  --active_warps_;
  STTGPU_ASSERT(block_live_warps_[ctx.block_slot] > 0);
  if (--block_live_warps_[ctx.block_slot] == 0 && !block_queue_.empty()) {
    launch_block(ctx.block_slot, now);
  }
}

void Sm::append_ready_range(unsigned lo, unsigned hi) {
  if (lo >= hi) return;
  const unsigned first = lo >> 6;
  const unsigned last = (hi - 1) >> 6;
  for (unsigned wi = first; wi <= last; ++wi) {
    std::uint64_t m = ready_bits_[wi];
    if (wi == first) m &= ~std::uint64_t{0} << (lo & 63u);
    const unsigned word_end = (wi + 1) * 64u;
    if (word_end > hi) m &= ~std::uint64_t{0} >> (word_end - hi);
    while (m != 0) {
      issue_order_.push_back(wi * 64u + static_cast<unsigned>(std::countr_zero(m)));
      m &= m - 1;
    }
  }
}

void Sm::cycle(Cycle now, const SendTxnFn& send) {
  // Inline fast path for the common no-sleeper-due case; wake_due's loop
  // keeps the compiler from inlining it wholesale.
  if (!sleep_heap_.empty() && sleep_heap_.top().first <= now) wake_due(now);
  if (ready_count_ == 0) {
    if (active_warps_ > 0) ++stats_.idle_cycles;
    return;
  }
  // Still stalled with nothing changed since the failed walk: re-walking
  // would fail identically (pure prechecks), so only the accounting remains.
  if (stall_clean_) {
    ++stats_.stall_cycles;
    return;
  }

  // Candidate ordering per scheduler policy, rebuilt from the ready bitmap:
  // ascending slot order IS the GTO oldest-first sort, and the circular walk
  // starting just past the last issued warp IS the LRR rotated sort. NOTE:
  // try_issue may finish a warp, which can launch a new block — launch_block
  // then appends the fresh warps to issue_order_, so they become candidates
  // at the tail of this cycle exactly as before.
  issue_order_.clear();
  const unsigned n = static_cast<unsigned>(warps_.size());
  if (config_->scheduler == SchedulerKind::kLrr && last_issued_ >= 0) {
    const unsigned start = (static_cast<unsigned>(last_issued_) + 1) % n;
    append_ready_range(start, n);
    append_ready_range(0, start);
  } else {
    append_ready_range(0, n);
  }
  bool issued = false;

  if (config_->scheduler == SchedulerKind::kGto && last_issued_ >= 0) {
    const unsigned greedy = static_cast<unsigned>(last_issued_);
    if (is_ready(greedy) && warps_[greedy].state == WarpState::kReady &&
        !issue_precheck_fails(warps_[greedy]) && try_issue(greedy, now, send)) {
      issued = true;
    }
  }
  for (std::size_t i = 0; !issued && i < issue_order_.size(); ++i) {
    const unsigned warp = issue_order_[i];
    const WarpCtx& ctx = warps_[warp];
    if (ctx.state != WarpState::kReady || issue_precheck_fails(ctx)) continue;
    if (try_issue(warp, now, send)) {
      issued = true;
      last_issued_ = static_cast<int>(warp);
    }
  }

  if (!issued && ready_count_ > 0) {
    ++stats_.stall_cycles;
    // The walk left stable state behind: every surviving candidate has its
    // pending instruction materialized and failed a pure precheck. Until a
    // wake or a response changes the inputs, skip the walk entirely. Record
    // the smallest per-kind transaction need so on_response() can tell
    // whether a freed credit can actually unstick anything: a walk failing
    // means every candidate is a non-shared load/store (anything else would
    // have issued), so the two mins cover the whole candidate set.
    stall_clean_ = true;
    stall_load_need_ = kNoNeed;
    stall_store_need_ = kNoNeed;
    for (const unsigned warp : issue_order_) {
      const WarpCtx& ctx = warps_[warp];
      if (ctx.state != WarpState::kReady) continue;
      STTGPU_ASSERT(ctx.pending.has_value());
      const WarpInstr& instr = *ctx.pending;
      const unsigned need = static_cast<unsigned>(instr.transactions.size());
      if (instr.kind == WarpInstr::Kind::kLoad) {
        stall_load_need_ = need < stall_load_need_ ? need : stall_load_need_;
      } else {
        stall_store_need_ = need < stall_store_need_ ? need : stall_store_need_;
      }
    }
  }
}

// Mirrors try_issue's structural prechecks for a warp whose pending
// instruction is already materialized: a true return means try_issue would
// fail those same checks before touching any state, so the call (and its
// overhead) can be skipped on the issue walk. Warps without a materialized
// instruction must go through try_issue (it may finish the warp or issue).
bool Sm::issue_precheck_fails(const WarpCtx& ctx) const noexcept {
  if (!ctx.pending) return false;
  const WarpInstr& instr = *ctx.pending;
  if (instr.kind == WarpInstr::Kind::kCompute || instr.space == MemSpace::kShared) {
    return false;
  }
  const unsigned n = static_cast<unsigned>(instr.transactions.size());
  if (instr.kind == WarpInstr::Kind::kLoad) {
    return inflight_loads_ + n > config_->max_outstanding_load_txn ||
           mshr_.size() + n > config_->l1_mshr_entries;
  }
  return inflight_stores_ + n > config_->max_outstanding_store_txn;
}

bool Sm::try_issue(unsigned warp, Cycle now, const SendTxnFn& send) {
  WarpCtx& ctx = warps_[warp];
  STTGPU_ASSERT(ctx.state == WarpState::kReady);

  if (!ctx.pending) {
    if (ctx.stream->done()) {
      finish_warp(warp, now);
      return false;
    }
    ctx.pending = ctx.stream->next();
  }
  const WarpInstr& instr = *ctx.pending;

  if (instr.kind == WarpInstr::Kind::kCompute) {
    ++stats_.issued_instructions;
    const unsigned latency = instr.latency;  // reset() destroys instr
    ctx.pending.reset();
    sleep_warp(warp, now + latency);
    return true;
  }

  if (instr.space == MemSpace::kShared) {
    // Scratchpad access: entirely intra-SM; the generated latency already
    // includes bank-conflict serialization.
    ++stats_.issued_instructions;
    ++stats_.shared_accesses;
    const unsigned latency = std::max(1u, instr.latency);  // reset() destroys instr
    ctx.pending.reset();
    sleep_warp(warp, now + latency);
    return true;
  }

  const unsigned l1_line = instr.space == MemSpace::kTexture ? config_->l1t_line
                                                             : config_->l1d_line;
  const unsigned n = static_cast<unsigned>(instr.transactions.size());
  STTGPU_ASSERT(n >= 1);

  if (instr.kind == WarpInstr::Kind::kLoad) {
    // Structural precheck: enough load credits for the worst case (every
    // transaction is a primary miss) and MSHR space for new entries.
    if (inflight_loads_ + n > config_->max_outstanding_load_txn) return false;
    if (mshr_.size() + n > config_->l1_mshr_entries) return false;

    ++stats_.issued_instructions;
    ++stats_.issued_loads;
    unsigned awaiting = 0;
    for (const Addr t : instr.transactions) {
      const Addr line = align_down(t, l1_line);
      ++stats_.load_transactions;
      const L1Outcome out = l1_.access(line, WarpInstr::Kind::kLoad, instr.space, now);
      if (out.hit) continue;
      auto* waiters = mshr_.find(line);
      if (waiters != nullptr) {
        if (waiters->size() < config_->l1_mshr_merge) {
          waiters->push_back(warp);
          ++stats_.mshr_merges;
          ++awaiting;
          continue;
        }
        // Merge list full: fall through and issue a duplicate fetch; rare.
      } else {
        mshr_[line].push_back(warp);
        ++awaiting;
      }
      const std::uint64_t id = send(line, /*is_store=*/false);
      inflight_meta_[id] = TxnMeta{line, instr.space, false, false};
      ++inflight_loads_;
    }
    ctx.pending.reset();
    if (awaiting > 0) {
      ctx.awaiting = awaiting;
      clear_ready(warp);
      ctx.state = WarpState::kBlocked;
    } else {
      sleep_warp(warp, now + config_->l1_hit_latency);
    }
    return true;
  }

  // Store.
  if (inflight_stores_ + n > config_->max_outstanding_store_txn) return false;

  ++stats_.issued_instructions;
  ++stats_.issued_stores;
  for (const Addr t : instr.transactions) {
    const Addr line = align_down(t, l1_line);
    ++stats_.store_transactions;
    const L1Outcome out = l1_.access(line, WarpInstr::Kind::kStore, instr.space, now);
    if (out.send_write) {
      const std::uint64_t id = send(line, /*is_store=*/true);
      inflight_meta_[id] = TxnMeta{line, instr.space, true, false};
      ++inflight_stores_;
    }
    for (const Addr wb : out.writebacks) send_writeback(wb, now, send);
  }
  ctx.pending.reset();
  sleep_warp(warp, now + 1);  // stores retire into the memory system
  return true;
}

void Sm::send_writeback(Addr addr, Cycle /*now*/, const SendTxnFn& send) {
  const std::uint64_t id = send(addr, /*is_store=*/true);
  inflight_meta_[id] = TxnMeta{addr, MemSpace::kLocal, true, true};
}

void Sm::process_response(const L2Response& response, Cycle now, const SendTxnFn& send) {
  const TxnMeta* it = inflight_meta_.find(response.id);
  STTGPU_ASSERT_MSG(it != nullptr, "Sm: response for unknown request");
  const TxnMeta meta = *it;
  inflight_meta_.erase(response.id);

  if (meta.is_store) {
    if (!meta.is_writeback) {
      STTGPU_ASSERT(inflight_stores_ > 0);
      --inflight_stores_;
    }
    return;
  }

  // Load fill: install in L1 and wake every merged waiter.
  STTGPU_ASSERT(inflight_loads_ > 0);
  --inflight_loads_;
  writeback_scratch_.clear();
  l1_.fill(meta.line_addr, meta.space, now, writeback_scratch_);
  for (const Addr wb : writeback_scratch_) send_writeback(wb, now, send);

  auto* mit = mshr_.find(meta.line_addr);
  if (mit != nullptr) {  // else: duplicate fetch (merge overflow) case
    const auto waiters = std::move(*mit);
    mshr_.erase(meta.line_addr);
    for (const unsigned warp : waiters) {
      WarpCtx& ctx = warps_[warp];
      STTGPU_ASSERT(ctx.state == WarpState::kBlocked && ctx.awaiting > 0);
      if (--ctx.awaiting == 0) sleep_warp(warp, now + kWakeLatency);
    }
  }
}

void Sm::recheck_stall() noexcept {
  // Completions free load/store credits and possibly MSHR entries — the
  // precheck inputs. A stalled walk unsticks only if the cheapest candidate
  // of some kind now fits at the live levels. (Writeback completions use no
  // credit and touch nothing the prechecks read, so after a writeback-only
  // batch the levels are those the failed walk already rejected and the
  // stall correctly stays clean.)
  if (!stall_clean_) return;
  if (stall_store_need_ != kNoNeed &&
      inflight_stores_ + stall_store_need_ <= config_->max_outstanding_store_txn) {
    stall_clean_ = false;
    return;
  }
  if (stall_load_need_ != kNoNeed &&
      inflight_loads_ + stall_load_need_ <= config_->max_outstanding_load_txn &&
      mshr_.size() + stall_load_need_ <= config_->l1_mshr_entries) {
    stall_clean_ = false;
  }
}

void Sm::on_response(const L2Response& response, Cycle now, const SendTxnFn& send) {
  process_response(response, now, send);
  recheck_stall();
}

void Sm::flush_l1(Cycle now, const SendTxnFn& send) {
  for (const Addr wb : l1_.flush()) send_writeback(wb, now, send);
}

void Sm::sample_telemetry(Telemetry& out) const {
  const std::string p = "sm" + std::to_string(id_) + '.';
  out.counter(p + "instructions", stats_.issued_instructions);
  out.counter(p + "load_txns", stats_.load_transactions);
  out.counter(p + "store_txns", stats_.store_transactions);
  out.counter(p + "idle_cycles", stats_.idle_cycles);
  out.counter(p + "stall_cycles", stats_.stall_cycles);
}

}  // namespace sttgpu::gpu
