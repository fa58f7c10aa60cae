// Shared plumbing for L2 bank implementations: input queue, fill (MSHR)
// table, DRAM interplay, response emission, energy ledger and a single-
// server occupancy model per data array.
//
// Timing model: each data array is a FIFO single server. An operation
// starting at `now` begins at max(now, server.free), occupies the array for
// its access latency, and the server's free time advances — so long
// STT-RAM writes delay everything queued behind them, which is the paper's
// performance mechanism for both the naive STT baseline's regressions and
// the LR part's recovery of them.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/flat_map.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "common/units.hpp"
#include "gpu/dram.hpp"
#include "gpu/l2_bank.hpp"
#include "power/energy.hpp"

namespace sttgpu::sttl2 {

/// FIFO single-server resource (a data array port).
class ArrayServer {
 public:
  /// Starts an operation of @p occupancy cycles at or after @p now; returns
  /// the completion cycle.
  Cycle occupy(Cycle now, Cycle occupancy) noexcept {
    const Cycle start = free_ > now ? free_ : now;
    free_ = start + occupancy;
    return free_;
  }
  Cycle free_at() const noexcept { return free_; }
  Cycle backlog(Cycle now) const noexcept { return free_ > now ? free_ - now : 0; }

 private:
  Cycle free_ = 0;
};

/// A data array split into independently ported subarrays (as CACTI mats):
/// operations on different subbanks overlap; the subbank is selected by a
/// hash of the line address. Models the internal banking of large caches,
/// without which long STT-RAM write pulses would serialize the whole bank.
class SubbankedServer {
 public:
  explicit SubbankedServer(unsigned subbanks) : servers_(subbanks ? subbanks : 1) {}

  Cycle occupy(Addr line_addr, Cycle now, Cycle occupancy) noexcept {
    return servers_[index(line_addr)].occupy(now, occupancy);
  }
  Cycle backlog(Addr line_addr, Cycle now) const noexcept {
    return servers_[index(line_addr)].backlog(now);
  }
  unsigned subbanks() const noexcept { return static_cast<unsigned>(servers_.size()); }

 private:
  std::size_t index(Addr line_addr) const noexcept {
    // Multiplicative hash decorrelates the subbank from the L2-bank
    // interleaving bits (which are also low line-number bits).
    const std::uint64_t h = (line_addr >> 6) * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> 32) % servers_.size();
  }
  std::vector<ArrayServer> servers_;
};

class BankBase : public gpu::L2Bank {
 public:
  BankBase(unsigned bank_id, unsigned line_bytes, unsigned input_queue_limit,
           gpu::DramChannel& dram);

  // --- gpu::L2Bank ---
  bool accepting() const final;
  void enqueue(const gpu::L2Request& request, Cycle now) final;
  void tick(Cycle now) final;
  void drain_responses(Cycle now, std::vector<gpu::L2Response>& out) final;
  void on_dram_read_done(std::uint64_t cookie, Cycle now) final;
  bool idle() const final;
  Cycle next_event_cycle() const final;
  const gpu::L2BankStats& stats() const final { return stats_; }
  const power::EnergyLedger& energy() const final { return energy_; }

  /// Remembers the sink so implementations can mark timeline events
  /// (refresh storms, fault data loss) as they happen.
  void attach_telemetry(Telemetry* sink) override { telemetry_ = sink; }

  /// Dumps the shared hit/miss/DRAM stats plus every implementation counter
  /// as "l2bN."-prefixed counter tracks and the input-queue fill as a gauge.
  /// Implementations extend this with their own gauges (occupancy, buffer
  /// depths) by overriding and calling the base first.
  void sample_telemetry(Cycle now, Telemetry& out) override;

  /// Shared-queue depths (input, outstanding fills, buffered responses) for
  /// watchdog diagnostic dumps; implementations append their own state.
  void describe_state(std::ostream& os, Cycle now) const override;

  /// Implementation-specific counters for reports.
  const CounterSet& counters() const noexcept { return counters_; }

 protected:
  /// One demand request ready to be serviced (input queue head).
  virtual void process_request(const gpu::L2Request& request, Cycle now) = 0;

  /// A previously requested DRAM line arrived.
  virtual void process_fill(Addr line_addr, Cycle now) = 0;

  /// Deadline housekeeping (refresh, expiry, threshold adaptation, wear
  /// rotation). Called from tick() only when the cached implementation
  /// deadline (see sched_impl_event) has matured — a call with every
  /// deadline in the future must be a no-op, which is exactly the
  /// impl_next_event() contract the event-driven fast-forward already
  /// relies on.
  virtual void maintenance(Cycle /*now*/) {}

  /// Implementation has in-flight work beyond the shared queues.
  virtual bool impl_idle() const { return true; }

  /// Earliest absolute cycle of an implementation-scheduled deadline
  /// (refresh due, retention expiry, threshold adaptation); kNoCycle when
  /// none. Conservative (early) values are safe — the tick is then a no-op,
  /// exactly as it would be in a cycle-by-cycle loop. Called by the base
  /// only right after maintenance() ran, to refresh the cached deadline;
  /// between maintenance calls implementations must announce any new or
  /// earlier deadline through sched_impl_event().
  virtual Cycle impl_next_event() const { return kNoCycle; }

  /// Announces an implementation deadline at @p when: lowers the cached
  /// deadline that gates maintenance() (and feeds next_event_cycle()).
  /// Stale-low values are safe (one extra no-op maintenance call); every
  /// site that schedules a deadline — timer arm, rotation trigger — must
  /// call this, or the deadline could be skipped entirely.
  void sched_impl_event(Cycle when) noexcept {
    if (when < maint_next_) maint_next_ = when;
  }

  /// Seeds the cached deadline from impl_next_event(). Every concrete bank
  /// constructor must call this last (the base constructor cannot: virtual
  /// dispatch is not live yet). The default (0, "due now") is merely
  /// conservative — one no-op maintenance on the first tick — but it also
  /// pins next_event_cycle() to 0 and defeats fast-forward on idle banks.
  void init_impl_deadline() noexcept { maint_next_ = impl_next_event(); }

  // --- helpers for implementations ---

  Addr line_base(Addr addr) const noexcept { return align_down(addr, line_bytes_); }

  /// Registers a demand miss on @p line: merges with an outstanding fill or
  /// issues a new DRAM read. Store requests are replayed as writes when the
  /// line arrives (fetch-on-write).
  void request_fill(Addr line, const gpu::L2Request& request, Cycle now);

  /// True if a fill for @p line is already outstanding.
  bool fill_outstanding(Addr line) const noexcept { return pending_.contains(line); }

  /// Takes the requests waiting on @p line (fill arrived). The returned
  /// reference aliases a member scratch buffer: it stays valid until the
  /// next take_waiters call, and replaying the requests (which may register
  /// new fills) does not disturb it.
  struct Waiters {
    std::vector<gpu::L2Request> reads;
    std::vector<gpu::L2Request> writes;
  };
  const Waiters& take_waiters(Addr line);

  /// Emits the response for @p request at completion time @p ready.
  void respond(const gpu::L2Request& request, Cycle ready);

  /// Issues a DRAM writeback (dirty eviction / forced writeback).
  void dram_writeback(Addr line, Cycle now);

  power::EnergyLedger& ledger() noexcept { return energy_; }
  CounterSet& mutable_counters() noexcept { return counters_; }
  gpu::L2BankStats& mutable_stats() noexcept { return stats_; }
  unsigned bank_id() const noexcept { return bank_id_; }
  unsigned line_bytes() const noexcept { return line_bytes_; }

  /// Attached telemetry sink; null while telemetry is off — every use in an
  /// implementation must be gated on it.
  Telemetry* telemetry() const noexcept { return telemetry_; }
  /// Track-name prefix scoping samples/events to this bank ("l2bN.").
  std::string telemetry_prefix() const;

 private:
  unsigned bank_id_;
  unsigned line_bytes_;
  unsigned input_queue_limit_;
  gpu::DramChannel* dram_;

  std::deque<gpu::L2Request> input_;
  /// Cached min over the implementation's scheduled deadlines: lowered by
  /// sched_impl_event(), recomputed from impl_next_event() after each
  /// maintenance() run. Never stale-high, so gating maintenance on it is
  /// exact; starts due so the first tick initializes it from the impl.
  Cycle maint_next_ = 0;
  std::vector<gpu::L2Response> responses_;  // min-heap keyed by ready cycle
  FlatU64Map<Waiters> pending_;
  std::vector<Addr> fills_ready_;  // lines whose DRAM read completed

  // Hot-path scratch: reused across ticks/fills so the steady state makes no
  // per-event allocations (vectors keep their high-water capacity).
  std::vector<Addr> fills_scratch_;
  Waiters waiters_scratch_;
  std::vector<Waiters> free_waiters_;

  gpu::L2BankStats stats_;
  power::EnergyLedger energy_;
  CounterSet counters_;
  Telemetry* telemetry_ = nullptr;
};

}  // namespace sttgpu::sttl2
