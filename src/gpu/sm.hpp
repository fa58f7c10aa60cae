// Streaming Multiprocessor model.
//
// The SM abstracts the SIMT ALU pipelines to an issue/latency model (one
// warp instruction issued per cycle, compute results ready after a fixed
// latency) and models the memory side in detail: coalesced transactions,
// the L1 complex, MSHR merging, and credit-bounded traffic to the L2. This
// is the level at which warp-parallelism hides memory latency — the effect
// the paper's C2/C3 register-file configurations exploit.
//
// Thread blocks are assigned to the SM as a queue; `resident` slots run
// concurrently (the occupancy limit) and a finished block slot immediately
// launches the next queued block.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <queue>
#include <vector>

#include "common/flat_map.hpp"
#include "common/small_vec.hpp"
#include "common/types.hpp"
#include "gpu/gpu_config.hpp"
#include "gpu/l1_complex.hpp"
#include "gpu/request.hpp"
#include "workload/stream.hpp"

namespace sttgpu {
class Telemetry;
}

namespace sttgpu::gpu {

/// Emits one 128B transaction toward the L2. @p tag comes back unchanged in
/// the response (L2Response::tag).
using SendTxnFn = std::function<void(Addr addr, bool is_store, std::uint8_t tag)>;

struct SmStats {
  std::uint64_t issued_instructions = 0;
  std::uint64_t issued_loads = 0;
  std::uint64_t issued_stores = 0;
  std::uint64_t load_transactions = 0;
  std::uint64_t store_transactions = 0;
  std::uint64_t idle_cycles = 0;        ///< no warp ready
  std::uint64_t stall_cycles = 0;       ///< warps ready but none issuable
  std::uint64_t mshr_merges = 0;
  std::uint64_t shared_accesses = 0;
};

class Sm {
 public:
  Sm(unsigned id, const GpuConfig& config, std::uint64_t seed);

  /// Begins executing @p kernel with the given block queue and residency.
  /// The spec is copied: the caller's object need not outlive the kernel
  /// (warp streams launched later reference the SM's own copy).
  void start_kernel(const workload::KernelSpec& kernel, std::deque<unsigned> block_queue,
                    unsigned resident_blocks, std::uint64_t warps_in_grid,
                    std::uint64_t workload_seed);

  /// All blocks finished and no instruction remains (memory may still be
  /// in flight; the GPU tracks that separately).
  bool kernel_done() const noexcept { return active_warps_ == 0 && block_queue_.empty(); }

  /// One scheduler cycle: try to issue one warp instruction.
  void cycle(Cycle now, const SendTxnFn& send);

  /// Memory response delivered by the interconnect.
  void on_response(const L2Response& response, Cycle now, const SendTxnFn& send);

  /// End-of-kernel L1 flush; dirty local lines go to L2 as writes.
  void flush_l1(const SendTxnFn& send);

  /// In-flight transactions this SM is still waiting on (loads + stores).
  unsigned inflight() const noexcept { return inflight_loads_ + inflight_stores_; }

  /// Earliest absolute cycle at which this SM can make progress on its own:
  /// 0 (i.e. "every cycle") while a warp is ready AND the last stall walk's
  /// outcome may have changed, the earliest sleeper's wake-up otherwise,
  /// kNoCycle when nothing is scheduled (blocked warps are woken by
  /// responses, which the memory side reports). A stalled SM whose walk
  /// already completed with no state change (stall_clean_) is skippable:
  /// re-walking is a pure check that fails identically until a wake or a
  /// memory response dirties it, and responses show up as interconnect
  /// arrivals in the caller's event lane. Stale sleep-heap entries only make
  /// this conservative (an early no-op tick), exactly as the per-cycle loop
  /// would pop them.
  Cycle next_event_cycle() const noexcept {
    if (ready_count_ > 0 && !stall_clean_) return 0;
    if (!sleep_heap_.empty()) return sleep_heap_.top().first;
    return kNoCycle;
  }

  /// Applies the idle/stall accounting of the cycles in [settled, @p upto)
  /// for which cycle() was not called, exactly as cycle() would have counted
  /// them. A caller may skip an SM's tick only when it is not due (see
  /// next_event_cycle()), and only cycle() and start_kernel() change whether
  /// warps are ready or live (on_response() never does), so every skipped
  /// cycle has the state the last tick left: ready warps mean a clean stall,
  /// where cycle() counts a stall cycle; otherwise, with live warps, it counts
  /// an idle cycle. cycle() settles itself; a caller that skips ticks settles
  /// before it reads the counters mid-kernel and before start_kernel(). Once
  /// kernel_done(), no live warp is left, so there is nothing to settle.
  void settle(Cycle upto) noexcept {
    const Cycle skipped = upto - settled_;
    if (ready_count_ > 0) {
      stats_.stall_cycles += skipped;
    } else if (active_warps_ > 0) {
      stats_.idle_cycles += skipped;
    }
    settled_ = upto;
  }

  /// Contributes this SM's counter tracks ("smN.instructions", ...) to the
  /// open telemetry frame; per-interval IPC falls out as the increment of
  /// instructions over the interval length.
  void sample_telemetry(Telemetry& out) const;

  const SmStats& stats() const noexcept { return stats_; }
  const L1Complex& l1() const noexcept { return l1_; }
  unsigned id() const noexcept { return id_; }

 private:
  enum class WarpState : std::uint8_t { kInactive, kReady, kSleeping, kBlocked };

  /// Summary of a warp's materialized instruction: all the issue precheck
  /// and the stall bookkeeping need to know about it.
  enum class PendingKind : std::uint8_t {
    kNone,   ///< nothing materialized
    kFree,   ///< compute or shared: never fails a precheck
    kLoad,   ///< global/local/constant/texture load of `txns` transactions
    kStore,  ///< store of `txns` transactions
  };

  /// The per-warp fields the issue walk, the wake and the precheck read,
  /// packed 16 bytes per warp apart from the cold WarpCtx.
  struct WarpHot {
    Cycle ready_at = 0;
    std::uint32_t awaiting = 0;  ///< load transactions outstanding
    WarpState state = WarpState::kInactive;
    PendingKind pending = PendingKind::kNone;
    std::uint16_t txns = 0;
  };
  static_assert(sizeof(WarpHot) == 16);

  struct WarpCtx {
    std::optional<workload::WarpStream> stream;
    std::optional<workload::WarpInstr> pending;  ///< summarized in WarpHot
    unsigned block_slot = 0;
  };

  void launch_block(unsigned slot, Cycle now);
  void process_response(const L2Response& response, Cycle now, const SendTxnFn& send);
  /// Clears stall_clean_ if the cheapest stalled candidate of either kind
  /// now passes its prechecks with the live credit/MSHR levels.
  void recheck_stall() noexcept;
  void wake_due(Cycle now);
  /// Mirrors try_issue's structural prechecks for a warp whose pending
  /// instruction is already materialized: a true return means try_issue
  /// would fail those same checks before touching any state, so the call
  /// (and its overhead) can be skipped on the issue walk. Warps without a
  /// materialized instruction must go through try_issue (it may finish the
  /// warp or issue). Defined here: the walk runs it for every candidate.
  bool issue_precheck_fails(const WarpHot& hot) const noexcept {
    const unsigned n = hot.txns;
    if (hot.pending == PendingKind::kLoad) {
      return inflight_loads_ + n > config_->max_outstanding_load_txn ||
             mshr_.size() + n > config_->l1_mshr_entries;
    }
    if (hot.pending == PendingKind::kStore) {
      return inflight_stores_ + n > config_->max_outstanding_store_txn;
    }
    return false;
  }
  /// Issues @p warp if it is a ready candidate that passes its prechecks.
  bool try_candidate(unsigned warp, Cycle now, const SendTxnFn& send);
  /// Tries the candidates of walk_bits_ with index in [lo, hi), ascending,
  /// until one issues.
  bool walk_range(unsigned lo, unsigned hi, Cycle now, const SendTxnFn& send);
  bool try_issue(unsigned warp, Cycle now, const SendTxnFn& send);
  void sleep_warp(unsigned warp, Cycle until);
  void finish_warp(unsigned warp, Cycle now);
  void send_writeback(Addr addr, const SendTxnFn& send);

  // The ready set is a packed bitmap (one bit per warp slot), kept exactly
  // in sync with WarpState::kReady. Iterating set bits ascending reproduces
  // the old sorted-vector candidate order without the per-cycle sort.
  void set_ready(unsigned warp) noexcept {
    std::uint64_t& word = ready_bits_[warp >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (warp & 63u);
    if ((word & bit) == 0) {
      word |= bit;
      ++ready_count_;
    }
    // A new candidate can change a stalled walk's outcome.
    stall_clean_ = false;
  }
  void clear_ready(unsigned warp) noexcept {
    std::uint64_t& word = ready_bits_[warp >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (warp & 63u);
    if ((word & bit) != 0) {
      word &= ~bit;
      --ready_count_;
    }
  }

  unsigned id_;
  const GpuConfig* config_;
  std::uint64_t seed_;
  L1Complex l1_;

  // Kernel state
  workload::KernelSpec kernel_;  ///< owned copy; WarpStreams point into it
  std::deque<unsigned> block_queue_;
  std::uint64_t warps_in_grid_ = 0;
  std::uint64_t workload_seed_ = 0;
  unsigned warps_per_block_ = 0;
  std::vector<WarpCtx> warps_;
  std::vector<WarpHot> hot_;  ///< parallel to warps_
  std::vector<unsigned> block_live_warps_;  ///< per resident slot
  unsigned active_warps_ = 0;

  // Scheduling structures
  using SleepEntry = std::pair<Cycle, unsigned>;  // (ready_at, warp)
  std::priority_queue<SleepEntry, std::vector<SleepEntry>, std::greater<>> sleep_heap_;
  std::vector<std::uint64_t> ready_bits_;  ///< packed kReady set, one bit per warp
  unsigned ready_count_ = 0;               ///< population count of ready_bits_
  /// The ready set as the walk began: the walk's candidates, visited in
  /// policy order, followed by issue_order_.
  std::vector<std::uint64_t> walk_bits_;
  /// Warps a block launch made ready during this cycle's walk, in launch
  /// order. A relaunched slot reuses its warp indices, so an index can be
  /// both in walk_bits_ and here; it is then a candidate twice.
  std::vector<unsigned> issue_order_;
  int last_issued_ = -1;  // GTO greedy preference
  /// The last cycle() walk stalled (ready warps, none issuable) and nothing
  /// has changed since: a failed walk is a pure check — every candidate has
  /// its pending instruction materialized and fails a credit/MSHR precheck
  /// before touching any state — so until set_ready() or a response that can
  /// actually satisfy a candidate clears this, repeating the walk is a
  /// provable no-op.
  bool stall_clean_ = false;
  /// Smallest transaction count over the stalled load (resp. store)
  /// candidates of the last failed walk; kNoNeed when none of that kind.
  /// Valid only while stall_clean_ — any walk or candidate-set change
  /// recomputes them. The precheck pass condition is monotone in a
  /// candidate's transaction count, so if the min-need candidate still fails
  /// with the live credit/MSHR levels, every candidate does, and a response
  /// that cannot satisfy the min need provably leaves the stall stuck.
  static constexpr unsigned kNoNeed = ~0u;
  unsigned stall_load_need_ = kNoNeed;
  unsigned stall_store_need_ = kNoNeed;

  // Memory-side state
  SmallVec<Addr, 2> writeback_scratch_;     ///< per-fill eviction scratch
  FlatU64Map<SmallVec<unsigned, 8>> mshr_;  ///< line -> waiting warps
  unsigned inflight_loads_ = 0;   ///< primary load transactions in flight
  unsigned inflight_stores_ = 0;  ///< store transactions in flight

  SmStats stats_;
  Cycle settled_ = 0;  ///< idle/stall accounting applied to cycles below this
};

}  // namespace sttgpu::gpu
