// Top-level GPU: SM cluster + interconnect + pluggable L2 banks + DRAM
// channels, executing a Workload's kernels sequentially and reporting the
// performance/energy metrics the paper's evaluation uses.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "gpu/dram.hpp"
#include "gpu/gpu_config.hpp"
#include "gpu/interconnect.hpp"
#include "gpu/l2_bank.hpp"
#include "gpu/sm.hpp"
#include "workload/benchmarks.hpp"

namespace sttgpu::gpu {

/// Scheduler/transport diagnostics of a run. Purely observational: the
/// express/queued splits are contention properties of the simulated machine,
/// identical with and without fast-forward.
struct SchedulerDiag {
  std::uint64_t icnt_request_express = 0;  ///< admits with zero port backlog
  std::uint64_t icnt_request_queued = 0;   ///< admits behind earlier traffic
  std::uint64_t icnt_response_express = 0;
  std::uint64_t icnt_response_queued = 0;
  std::uint64_t dram_express_reads = 0;
  std::uint64_t dram_queued_reads = 0;
  /// Always 0. Kept only because external benchmark probes still read it;
  /// the event-wheel scheduler it measured no longer exists.
  std::uint64_t wheel_far_high_water = 0;
};

/// Everything a run produces.
struct RunResult {
  Cycle cycles = 0;
  std::uint64_t instructions = 0;
  double ipc = 0.0;
  double runtime_s = 0.0;

  L2BankStats l2;              ///< merged across banks
  Watt l2_leakage_w = 0.0;     ///< summed across banks
  CounterSet l2_counters;      ///< implementation-specific bank counters
  power::EnergyLedger l2_energy;  ///< merged dynamic-energy ledger

  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;

  std::uint64_t l1d_hits = 0;
  std::uint64_t l1d_misses = 0;

  SmStats sm;                  ///< merged across SMs
  SchedulerDiag sched;         ///< transport/scheduler observability
};

/// Factory that builds one L2 bank. @p dram is the bank's private channel;
/// implementations must deliver their DRAM read completions through it and
/// accept them via L2Bank-internal callbacks (see sttl2::BankDramPort).
class L2BankFactory {
 public:
  virtual ~L2BankFactory() = default;
  virtual std::unique_ptr<L2Bank> make_bank(unsigned bank_id, DramChannel& dram) = 0;
  /// Extra counters the implementation wants surfaced in RunResult.
  virtual void collect(const L2Bank& bank, CounterSet& out) const {
    (void)bank;
    (void)out;
  }
};

class Gpu {
 public:
  Gpu(const GpuConfig& config, L2BankFactory& l2_factory);

  /// Runs all kernels of @p workload to completion; cumulative across calls
  /// is not supported — construct a fresh Gpu per run.
  RunResult run(const workload::Workload& workload);

  /// Direct access for tests / benches needing implementation details.
  L2Bank& bank(unsigned i) { return *banks_[i]; }
  const Sm& sm(unsigned i) const { return *sms_[i]; }
  unsigned num_banks() const noexcept { return static_cast<unsigned>(banks_.size()); }
  const GpuConfig& config() const noexcept { return config_; }

 private:
  void run_kernel(const workload::KernelSpec& kernel, std::uint64_t seed);
  void drain_memory();
  bool memory_idle() const;

  /// Advances one cycle: tick_due() when fast_forward is on, tick_all()
  /// otherwise, then the telemetry boundary check.
  void step();

  /// The plain reference cycle: every component ticks, due or not.
  void tick_all();

  /// Event-driven cycle: identical phase order to tick_all(), but each
  /// component only runs when its event lane says something is due —
  /// skipped calls are provably no-ops (the same conservative-next-event
  /// contract fast_forward relies on, applied per component per cycle).
  void tick_due();

  /// Earliest event over the incrementally maintained lanes. Lanes are lower
  /// bounds (never later than the component's true next event), so the
  /// value is safe for fast_forward: a conservative jump lands on a no-op
  /// cycle at worst.
  Cycle earliest_lane() const;

  /// Event-driven fast-forward: if every component's next event lies in the
  /// future, jump now_ straight to the earliest one (skipped cycles would
  /// have been pure no-ops except SM idle/stall accounting, which each SM
  /// settles lazily). No-op when config_.fast_forward is off or an event is
  /// due now. When telemetry is attached, interval boundaries inside the
  /// skipped stretch are sampled at exactly the cycle the plain loop would
  /// have sampled, so the series is identical in both modes.
  void fast_forward();

  /// Opens a telemetry frame at @p at and polls every component, settling
  /// each SM's idle/stall accounting up to @p at first.
  void telemetry_sample(Cycle at);

  /// Supervision point: publishes the cycle-count heartbeat and unwinds
  /// with Cancelled if config_.cancel was requested (appending a diagnostic
  /// state dump for watchdog/timeout kills). Reached every
  /// kSupervisionInterval cycles in the run loops; a no-op single compare
  /// when neither cancel nor heartbeat is configured.
  void supervision_point();

  /// Human-readable in-flight state (cycle, per-bank queue depths and
  /// swap-buffer fill, interconnect/DRAM idleness) for watchdog dumps.
  std::string state_dump() const;

  /// After a failed skip attempt the next one waits this many cycles, so the
  /// lane scan stays off the critical path of busy stretches. Stepping
  /// a skippable cycle plainly is a no-op, so this affects speed only.
  static constexpr Cycle kFastForwardBackoff = 16;

  /// Cycles between supervision points: frequent enough that cancellation
  /// latency is microseconds of wall clock, far too coarse to profile.
  static constexpr Cycle kSupervisionInterval = 16384;

  unsigned bank_of(Addr addr) const noexcept;

  GpuConfig config_;
  L2BankFactory* factory_;
  Interconnect icnt_;
  std::vector<std::unique_ptr<DramChannel>> dram_;
  std::vector<std::unique_ptr<L2Bank>> banks_;
  std::vector<std::unique_ptr<Sm>> sms_;

  Cycle now_ = 0;
  Cycle ff_next_try_ = 0;  ///< earliest cycle for the next fast-forward scan

  // Interval telemetry (null/kNoCycle when disabled, so the per-cycle cost
  // of the disabled path is a single integer compare in step()).
  Telemetry* tel_ = nullptr;
  Cycle tel_interval_ = 0;
  Cycle tel_next_ = kNoCycle;  ///< next interval boundary to sample

  // Supervision (kNoCycle when neither cancel nor heartbeat is configured,
  // so the unsupervised run loop pays a single integer compare).
  Cycle sup_next_ = kNoCycle;  ///< next supervision point

  std::vector<L2Response> response_scratch_;
  std::vector<SendTxnFn> senders_;  ///< one bound sender per SM

  // Event lanes: per-component lower bounds on the next event cycle.
  // bank_lane_[b] covers bank b's partition (its interconnect request queue,
  // DRAM channel and the bank itself); sm_lane_[s] covers SM s plus its
  // interconnect response queue. A lane is recomputed after its component
  // runs and lowered in place when a packet is sent toward the component; it
  // may go stale-low (an extra no-op tick) but never stale-high (a missed
  // event).
  std::vector<Cycle> bank_lane_;
  std::vector<Cycle> sm_lane_;
  std::vector<unsigned> due_banks_;  ///< per-cycle scratch
};

}  // namespace sttgpu::gpu
