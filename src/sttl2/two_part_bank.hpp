// The paper's proposed two-part STT-RAM L2 bank (Section 5, Figure 7).
//
// Two parallel arrays with independent ports:
//   * LR — small, low-retention (default 26.5us), 2-way: fast/cheap writes,
//     holds the running application's write working set. Needs refresh,
//     tracked by 4-bit per-line retention counters; the refresh is postponed
//     to the last counter period and staged through the LR->HR buffer.
//   * HR — large, high-retention (default 40ms), 7-way: read-mostly data.
//     Expired lines are invalidated (clean) or written back (dirty) — no
//     refresh in HR.
//
// WWS monitor: a per-line saturating write counter in HR; a write arriving
// at a line whose counter has already reached the threshold migrates the
// line to LR (threshold 1 == the conventional modified bit, the paper's
// free monitor). Fills always install into HR; LR is populated exclusively
// by migration, so one-shot streaming writes never pollute it.
//
// Swap buffers: HR->LR (migrations) and LR->HR (LR evictions + refresh
// staging) of `buffer_lines` entries each. A full LR->HR buffer forces
// dirty lines straight to DRAM (the paper's worst case: ~1% of writes).
//
// Search: sequential (writes probe LR tags first, reads probe HR first;
// miss probes the other serially) or parallel (both probed at once).
#pragma once

#include "cache/tag_array.hpp"
#include "cache/write_stats.hpp"
#include "power/array_model.hpp"
#include "sttl2/bank_base.hpp"
#include "sttl2/config.hpp"
#include "sttl2/fault_model.hpp"
#include "sttl2/line_timers.hpp"
#include "sttl2/retention.hpp"
#include "sttl2/rewrite_tracker.hpp"

namespace sttgpu::sttl2 {

/// Sliding-window occupancy model of a small swap buffer: each staged line
/// occupies a slot until the cycle its destination write completes.
class BufferWindow {
 public:
  explicit BufferWindow(unsigned capacity) : capacity_(capacity) {}

  bool full(Cycle now) noexcept {
    prune(now);
    return busy_until_.size() >= capacity_;
  }
  void add(Cycle done) { busy_until_.push_back(done); }
  std::size_t in_use(Cycle now) noexcept {
    prune(now);
    return busy_until_.size();
  }
  /// Non-mutating occupancy count (diagnostic dumps on const paths).
  std::size_t in_use_at(Cycle now) const noexcept {
    std::size_t n = 0;
    for (const Cycle c : busy_until_) n += c > now ? 1 : 0;
    return n;
  }
  unsigned capacity() const noexcept { return capacity_; }

 private:
  void prune(Cycle now) noexcept {
    std::erase_if(busy_until_, [now](Cycle c) { return c <= now; });
  }
  unsigned capacity_;
  std::vector<Cycle> busy_until_;
};

class TwoPartBank final : public BankBase {
 public:
  TwoPartBank(unsigned bank_id, const TwoPartBankConfig& config, const Clock& clock,
              gpu::DramChannel& dram);

  Watt leakage_w() const override { return hr_costs_.leakage_w + lr_costs_.leakage_w; }

  /// Base counters plus the two-part gauges: LR/HR occupancy, swap-buffer
  /// depths and the current (possibly adapted) migration threshold.
  void sample_telemetry(Cycle now, Telemetry& out) override;

  /// Base queue depths plus swap-buffer fill, migration threshold and the
  /// refresh/expiry backlog (watchdog diagnostic dumps).
  void describe_state(std::ostream& os, Cycle now) const override;

  // --- figure hooks ---
  const RewriteTracker& lr_rewrites() const noexcept { return lr_rewrites_; }
  const RewriteTracker& hr_rewrites() const noexcept { return hr_rewrites_; }

  /// Fraction of demand stores served directly by an LR write hit (a
  /// migration does not count: it means the block had fallen out of LR).
  /// The quantity of Figs. 4/5.
  double lr_write_utilization() const noexcept;

  const TwoPartBankConfig& config() const noexcept { return config_; }
  const power::ArrayCosts& hr_costs() const noexcept { return hr_costs_; }
  const power::ArrayCosts& lr_costs() const noexcept { return lr_costs_; }
  const cache::TagArray& lr_tags() const noexcept { return lr_tags_; }
  const cache::TagArray& hr_tags() const noexcept { return hr_tags_; }

  /// Physical-write (wear) distribution over each part's cells, including
  /// fills, migrations and refreshes — the endurance view of i2WAP.
  const cache::WriteVariationTracker& lr_wear() const noexcept { return lr_wear_; }
  const cache::WriteVariationTracker& hr_wear() const noexcept { return hr_wear_; }

  /// Current (possibly adapted) migration threshold.
  unsigned current_threshold() const noexcept { return threshold_; }

  /// Current LR index rotation (wear-leveling extension).
  std::uint64_t lr_rotation_offset() const noexcept { return lr_offset_; }

  /// Fault-injection streams (inert when config().faults.enabled is false).
  const FaultModel& lr_faults() const noexcept { return lr_faults_; }
  const FaultModel& hr_faults() const noexcept { return hr_faults_; }

  /// Armed retention timers: at most one per line of each part.
  struct LiveTimers {
    std::size_t lr_refresh;
    std::size_t hr_expiry;
  };
  LiveTimers live_timers() const noexcept {
    return {refresh_timers_.size(), hr_expiry_timers_.size()};
  }

 protected:
  void process_request(const gpu::L2Request& request, Cycle now) override;
  void process_fill(Addr line_addr, Cycle now) override;
  void maintenance(Cycle now) override;
  Cycle impl_next_event() const override;

 private:
  void service(const gpu::L2Request& request, Cycle now, bool replay);
  /// Write into an LR-resident line (way known).
  Cycle lr_write_hit(Addr line_addr, unsigned way, Cycle now);
  /// Write into an HR-resident line; may trigger migration. Returns the
  /// completion cycle for the triggering store's ack.
  Cycle hr_write_hit(Addr line_addr, unsigned way, Cycle now);
  /// Installs @p addr into LR (migration target), evicting as needed.
  Cycle lr_install(Addr addr, bool dirty, std::uint32_t write_count, Cycle last_write,
                   Cycle now);
  /// Evicts the LR line at (set, way) toward HR via the LR->HR buffer (or
  /// forces it to DRAM if the buffer is full).
  void lr_evict(std::uint64_t set, unsigned way, Cycle now);
  /// Installs a line into HR (fills and LR evictions land here).
  Cycle hr_install(Addr addr, bool dirty, std::uint32_t write_count, Cycle now);

  void do_refresh(Cycle now);
  void do_hr_expiry(Cycle now);
  void adapt_threshold(Cycle now);
  void rotate_lr_mapping(Cycle now);

  /// LR set-mapping rotation (wear leveling): the LR tag array is keyed by
  /// a shifted address so the same line lands in a different physical set
  /// after each rotation.
  Addr to_lr(Addr a) const noexcept { return a + lr_offset_ * config_.line_bytes; }
  Addr from_lr(Addr a) const noexcept { return a - lr_offset_ * config_.line_bytes; }

  /// Charges one physical line write in the given part, honouring EWT.
  void charge_lr_write(Addr addr);
  void charge_hr_write(Addr addr);

  // --- fault injection (every helper is a no-op when faults are disabled) ---

  /// One physical data-array write (occupancy + energy + write-verify
  /// retries). Replaces the occupy/charge pair on every write path; returns
  /// the completion cycle of the last pulse.
  Cycle lr_data_write(Addr key, Cycle now);
  Cycle hr_data_write(Addr addr, Cycle now);

  /// Evaluates the decay interval of the hit line ending at @p now and
  /// applies recovery: ECC-corrects a single-bit collapse with a scrub
  /// write; invalidates unrecoverable lines (clean -> the demand access
  /// falls through to a transparent DRAM re-fetch; dirty -> counted data
  /// loss). Returns true if the line was invalidated.
  bool fault_read_check(bool lr_part, Addr key, unsigned way, Cycle now);

  enum class Carry { kOk, kDrop };
  /// Evaluates the decay interval of a line whose data was just read out to
  /// be carried elsewhere (eviction, writeback, refresh). kDrop: the data is
  /// unrecoverable (or clean and re-fetchable) and must not be propagated.
  Carry fault_carry_trial(FaultModel& fm, cache::LineMeta& line, Cycle retention_cycles,
                          Cycle now);

  /// Applies the write-verify retry policy to a write finishing at @p done.
  Cycle apply_write_verify(FaultModel& fm, SubbankedServer& data, Addr key, Cycle done,
                           Cycle occ, power::EnergyId cat, PicoJoule pulse_pj);

  TwoPartBankConfig config_;
  Clock clock_;

  power::ArrayCosts hr_costs_;
  power::ArrayCosts lr_costs_;
  cache::TagArray hr_tags_;
  cache::TagArray lr_tags_;

  RetentionClock hr_retention_;
  RetentionClock lr_retention_;

  FaultModel lr_faults_;
  FaultModel hr_faults_;

  SubbankedServer hr_data_;
  SubbankedServer lr_data_;

  // cycles, precomputed from the array models
  Cycle hr_tag_lat_, lr_tag_lat_;
  Cycle hr_read_occ_, hr_write_occ_;
  Cycle lr_read_occ_, lr_write_occ_;
  PicoJoule buffer_entry_pj_;

  BufferWindow hr2lr_;
  BufferWindow lr2hr_;

  LineTimers refresh_timers_;    ///< one per LR line: refresh due
  LineTimers hr_expiry_timers_;  ///< one per HR line: retention deadline

  RewriteTracker lr_rewrites_;
  RewriteTracker hr_rewrites_;

  cache::WriteVariationTracker lr_wear_;
  cache::WriteVariationTracker hr_wear_;

  // Adaptive-threshold state (extension; inert when disabled).
  unsigned threshold_;
  Cycle next_adapt_ = 0;
  std::uint64_t interval_migrations_ = 0;
  std::uint64_t interval_evictions_ = 0;

  double write_energy_scale_ = 1.0;  ///< EWT factor (1.0 when disabled)

  // Wear-leveling state (extension; inert when disabled).
  std::uint64_t lr_offset_ = 0;
  std::uint64_t lr_writes_since_rotation_ = 0;

  // Ledger/counter handles, interned once at construction so the per-access
  // path indexes vectors instead of hashing category/counter names.
  struct EnergyIds {
    power::EnergyId lr_data_write, lr_tag_update, lr_tag_probe, lr_data_read, lr_refresh;
    power::EnergyId hr_data_write, hr_tag_update, hr_tag_probe, hr_data_read;
    power::EnergyId buffer;
    // Interned only when fault injection is enabled, so disabled runs report
    // the exact same category set as before the subsystem existed.
    power::EnergyId fault_scrub = 0;
  } e_;
  struct CounterIds {
    CounterId w_demand, w_lr, w_lr_hit, w_hr;
    CounterId tag_probes_lr, tag_probes_hr;
    CounterId lr_phys_writes, hr_phys_writes;
    CounterId migrations, migrations_blocked, lr_evictions;
    CounterId lr_forced_wb, lr_forced_drop;
    CounterId hr_evict_dirty, hr_evict_clean;
    CounterId refreshes, refresh_forced_wb, refresh_forced_drop;
    CounterId hr_expired_dirty, hr_expired_clean;
    CounterId wear_rotations, threshold_up, threshold_down;
    // Fault-injection counters; interned only when enabled (a CounterId of 0
    // would alias the first real counter, so every use is gated).
    CounterId fault_ecc_corrected = 0, fault_ecc_detected = 0;
    CounterId fault_clean_refetch = 0, fault_data_loss = 0;
    CounterId fault_wv_retries = 0, fault_wv_escalations = 0;
  } c_;
};

}  // namespace sttgpu::sttl2
