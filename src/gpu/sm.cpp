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

// Transaction tag (L2Request::tag): the memory space of a load in the low
// bits, plus a flag for an L1 dirty writeback, which uses no store credit.
constexpr std::uint8_t kWritebackTag = 0x80;

std::uint8_t space_tag(MemSpace space) { return static_cast<std::uint8_t>(space); }
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
  hot_.assign(warps_.size(), WarpHot{});
  block_live_warps_.assign(resident_blocks, 0);
  ready_bits_.assign((warps_.size() + 63) / 64, 0);
  walk_bits_.assign(ready_bits_.size(), 0);
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
    ctx.block_slot = slot;
    hot_[idx] = WarpHot{.state = WarpState::kReady};
    set_ready(idx);
    // A launch during cycle()'s issue walk adds the fresh warps to the tail
    // of this cycle's candidates (they are issue candidates right away);
    // outside the walk the scratch is cleared before use anyway.
    issue_order_.push_back(idx);
    ++active_warps_;
  }
  block_live_warps_[slot] = warps_per_block_;
}

void Sm::wake_due(Cycle now) {
  while (!sleep_heap_.empty() && sleep_heap_.top().first <= now) {
    const unsigned warp = sleep_heap_.top().second;
    sleep_heap_.pop();
    WarpHot& hot = hot_[warp];
    // Stale entries can exist if a warp was re-slept; only the entry whose
    // time matches wakes it.
    if (hot.state == WarpState::kSleeping && hot.ready_at <= now) {
      hot.state = WarpState::kReady;
      set_ready(warp);
    }
  }
}

void Sm::sleep_warp(unsigned warp, Cycle until) {
  WarpHot& hot = hot_[warp];
  clear_ready(warp);
  hot.state = WarpState::kSleeping;
  hot.ready_at = until;
  sleep_heap_.emplace(until, warp);
}

void Sm::finish_warp(unsigned warp, Cycle now) {
  WarpCtx& ctx = warps_[warp];
  STTGPU_ASSERT(hot_[warp].state != WarpState::kInactive);
  clear_ready(warp);
  hot_[warp].state = WarpState::kInactive;
  ctx.stream.reset();
  STTGPU_ASSERT(active_warps_ > 0);
  --active_warps_;
  STTGPU_ASSERT(block_live_warps_[ctx.block_slot] > 0);
  if (--block_live_warps_[ctx.block_slot] == 0 && !block_queue_.empty()) {
    launch_block(ctx.block_slot, now);
  }
}

bool Sm::try_candidate(unsigned warp, Cycle now, const SendTxnFn& send) {
  const WarpHot& hot = hot_[warp];
  if (hot.state != WarpState::kReady || issue_precheck_fails(hot)) return false;
  if (!try_issue(warp, now, send)) return false;
  last_issued_ = static_cast<int>(warp);
  return true;
}

bool Sm::walk_range(unsigned lo, unsigned hi, Cycle now, const SendTxnFn& send) {
  if (lo >= hi) return false;
  const unsigned first = lo >> 6;
  const unsigned last = (hi - 1) >> 6;
  for (unsigned wi = first; wi <= last; ++wi) {
    std::uint64_t m = walk_bits_[wi];
    if (wi == first) m &= ~std::uint64_t{0} << (lo & 63u);
    const unsigned word_end = (wi + 1) * 64u;
    if (word_end > hi) m &= ~std::uint64_t{0} >> (word_end - hi);
    while (m != 0) {
      const unsigned warp = wi * 64u + static_cast<unsigned>(std::countr_zero(m));
      m &= m - 1;
      if (try_candidate(warp, now, send)) return true;
    }
  }
  return false;
}

void Sm::cycle(Cycle now, const SendTxnFn& send) {
  settle(now);
  settled_ = now + 1;
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

  // The candidates are the warps ready now, in policy order, then the warps
  // a block launch adds during the walk (issue_order_). Ascending slot order
  // IS the GTO oldest-first sort, and the circular walk starting just past
  // the last issued warp IS the LRR rotated sort. try_issue may finish a
  // warp, which can relaunch its block slot: the fresh warps reuse the slot's
  // indices and are candidates again at the tail, even when their index was
  // already visited (or is still ahead) in the snapshot.
  std::copy(ready_bits_.begin(), ready_bits_.end(), walk_bits_.begin());
  issue_order_.clear();
  bool issued = false;
  if (config_->scheduler == SchedulerKind::kGto && last_issued_ >= 0) {
    const unsigned greedy = static_cast<unsigned>(last_issued_);
    const WarpHot& hot = hot_[greedy];
    issued = hot.state == WarpState::kReady && !issue_precheck_fails(hot) &&
             try_issue(greedy, now, send);
  }
  if (!issued) {
    const unsigned n = static_cast<unsigned>(warps_.size());
    if (config_->scheduler == SchedulerKind::kLrr && last_issued_ >= 0) {
      const unsigned start = (static_cast<unsigned>(last_issued_) + 1) % n;
      issued = walk_range(start, n, now, send) || walk_range(0, start, now, send);
    } else {
      issued = walk_range(0, n, now, send);
    }
  }
  for (std::size_t i = 0; !issued && i < issue_order_.size(); ++i) {
    issued = try_candidate(issue_order_[i], now, send);
  }

  if (!issued && ready_count_ > 0) {
    ++stats_.stall_cycles;
    // The walk left stable state behind: every surviving candidate has its
    // pending instruction materialized and failed a pure precheck. Until a
    // wake or a response changes the inputs, skip the walk entirely. Record
    // the smallest per-kind transaction need so on_response() can tell
    // whether a freed credit can actually unstick anything: a walk failing
    // means every candidate is a non-shared load/store (anything else would
    // have issued), so the two mins cover the whole candidate set. Only a
    // candidate can be ready now, so the ready set is the surviving one.
    stall_clean_ = true;
    stall_load_need_ = kNoNeed;
    stall_store_need_ = kNoNeed;
    for (unsigned wi = 0; wi < ready_bits_.size(); ++wi) {
      for (std::uint64_t m = ready_bits_[wi]; m != 0; m &= m - 1) {
        const WarpHot& hot = hot_[wi * 64u + static_cast<unsigned>(std::countr_zero(m))];
        STTGPU_ASSERT(hot.pending == PendingKind::kLoad || hot.pending == PendingKind::kStore);
        unsigned& need = hot.pending == PendingKind::kLoad ? stall_load_need_ : stall_store_need_;
        need = hot.txns < need ? hot.txns : need;
      }
    }
  }
}

bool Sm::try_issue(unsigned warp, Cycle now, const SendTxnFn& send) {
  WarpCtx& ctx = warps_[warp];
  WarpHot& hot = hot_[warp];
  STTGPU_ASSERT(hot.state == WarpState::kReady);

  if (!ctx.pending) {
    if (ctx.stream->done()) {
      finish_warp(warp, now);
      return false;
    }
    ctx.pending = ctx.stream->next();
    const WarpInstr& next = *ctx.pending;
    if (next.kind == WarpInstr::Kind::kCompute || next.space == MemSpace::kShared) {
      hot.pending = PendingKind::kFree;
    } else {
      hot.pending = next.kind == WarpInstr::Kind::kLoad ? PendingKind::kLoad
                                                         : PendingKind::kStore;
      hot.txns = static_cast<std::uint16_t>(next.transactions.size());
    }
  }
  const WarpInstr& instr = *ctx.pending;

  if (instr.kind == WarpInstr::Kind::kCompute) {
    ++stats_.issued_instructions;
    const unsigned latency = instr.latency;  // reset() destroys instr
    ctx.pending.reset();
    hot.pending = PendingKind::kNone;
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
    hot.pending = PendingKind::kNone;
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
      send(line, /*is_store=*/false, space_tag(instr.space));
      ++inflight_loads_;
    }
    ctx.pending.reset();
    hot.pending = PendingKind::kNone;
    if (awaiting > 0) {
      hot.awaiting = awaiting;
      clear_ready(warp);
      hot.state = WarpState::kBlocked;
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
      send(line, /*is_store=*/true, space_tag(instr.space));
      ++inflight_stores_;
    }
    for (const Addr wb : out.writebacks) send_writeback(wb, send);
  }
  ctx.pending.reset();
  hot.pending = PendingKind::kNone;
  sleep_warp(warp, now + 1);  // stores retire into the memory system
  return true;
}

void Sm::send_writeback(Addr addr, const SendTxnFn& send) {
  send(addr, /*is_store=*/true, kWritebackTag | space_tag(MemSpace::kLocal));
}

void Sm::process_response(const L2Response& response, Cycle now, const SendTxnFn& send) {
  if (response.is_store) {
    if ((response.tag & kWritebackTag) == 0) {
      STTGPU_ASSERT(inflight_stores_ > 0);
      --inflight_stores_;
    }
    return;
  }

  // Load fill: install in L1 and wake every merged waiter.
  STTGPU_ASSERT(inflight_loads_ > 0);
  --inflight_loads_;
  // A load's address is its L1 line (the fill key).
  const Addr line = response.addr;
  writeback_scratch_.clear();
  l1_.fill(line, static_cast<MemSpace>(response.tag), now, writeback_scratch_);
  for (const Addr wb : writeback_scratch_) send_writeback(wb, send);

  auto* mit = mshr_.find(line);
  if (mit != nullptr) {  // else: duplicate fetch (merge overflow) case
    const auto waiters = std::move(*mit);
    mshr_.erase(line);
    for (const unsigned warp : waiters) {
      WarpHot& hot = hot_[warp];
      STTGPU_ASSERT(hot.state == WarpState::kBlocked && hot.awaiting > 0);
      if (--hot.awaiting == 0) sleep_warp(warp, now + kWakeLatency);
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

void Sm::flush_l1(const SendTxnFn& send) {
  for (const Addr wb : l1_.flush()) send_writeback(wb, send);
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
