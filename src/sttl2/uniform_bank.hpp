// Conventional single-array L2 bank.
//
// With SRAM cells this is the paper's *SRAM baseline*; with 10-year STT-RAM
// cells and 4x the capacity it is the *STT-RAM baseline* the paper compares
// against (Table 2 row "baseline STT-RAM"). With volatile STT cells it also
// supports retention expiry (invalidate clean / write back dirty lines whose
// data aged out), so it can model any single-retention design point.
//
// Policy: write-back, write-allocate (fetch-on-write), LRU.
#pragma once

#include "cache/tag_array.hpp"
#include "cache/write_stats.hpp"
#include "power/array_model.hpp"
#include "sttl2/bank_base.hpp"
#include "sttl2/config.hpp"
#include "sttl2/fault_model.hpp"
#include "sttl2/line_timers.hpp"
#include "sttl2/rewrite_tracker.hpp"

namespace sttgpu::sttl2 {

class UniformBank final : public BankBase {
 public:
  UniformBank(unsigned bank_id, const UniformBankConfig& config, const Clock& clock,
              gpu::DramChannel& dram);

  Watt leakage_w() const override { return costs_.leakage_w; }

  /// Base counters plus the array-occupancy gauge.
  void sample_telemetry(Cycle now, Telemetry& out) override;

  const power::ArrayCosts& array_costs() const noexcept { return costs_; }
  const RewriteTracker& rewrite_intervals() const noexcept { return rewrites_; }
  const cache::TagArray& tags() const noexcept { return tags_; }

  /// Demand-write variation across sets/ways (i2WAP COV, paper Fig. 3).
  const cache::WriteVariationTracker& write_variation() const noexcept { return write_var_; }

  /// Fault-injection stream (auto-inert for SRAM cells or when disabled).
  const FaultModel& faults() const noexcept { return faults_; }

  /// Armed retention-expiry timers: at most one per line.
  std::size_t live_timers() const noexcept { return expiry_.size(); }

 protected:
  void process_request(const gpu::L2Request& request, Cycle now) override;
  void process_fill(Addr line_addr, Cycle now) override;
  void maintenance(Cycle now) override;
  Cycle impl_next_event() const override;

 private:
  void write_line(cache::LineMeta& line, std::uint64_t set, unsigned way, Cycle now);
  void schedule_expiry(std::uint64_t set, unsigned way, Cycle deadline);

  // --- fault injection (every helper is a no-op when faults are inert) ---

  /// One physical data-array write incl. write-verify retries.
  Cycle data_write(Addr line_addr, Cycle now);
  /// Decay evaluation + recovery on a demand hit; true = line invalidated
  /// (the access falls through to the miss path).
  bool fault_read_check(Addr line_addr, unsigned way, Cycle now);
  enum class Carry { kOk, kDrop };
  /// Decay evaluation on data read out for a writeback; kDrop = do not
  /// propagate (clean re-fetchable or counted data loss).
  Carry fault_carry_trial(cache::LineMeta& line, Cycle now);

  UniformBankConfig config_;
  Clock clock_;
  power::ArrayCosts costs_;
  cache::TagArray tags_;
  SubbankedServer data_;
  FaultModel faults_;

  // cycles
  Cycle tag_lat_;
  Cycle read_occ_;
  Cycle write_occ_;
  Cycle retention_cycles_ = 0;  // 0 => non-volatile at simulation horizons

  LineTimers expiry_;  ///< one per line: retention deadline (volatile cells)
  RewriteTracker rewrites_;
  cache::WriteVariationTracker write_var_;
  double write_energy_scale_ = 1.0;  ///< EWT factor (1.0 when disabled)

  // Handles interned once at construction for the per-access path.
  struct EnergyIds {
    power::EnergyId tag_probe, tag_update, data_read, data_write;
    power::EnergyId fault_scrub = 0;  ///< interned only when faults are live
  } e_;
  struct CounterIds {
    CounterId evict_dirty, evict_clean, expired_dirty, expired_clean;
    // Fault-injection counters; interned only when faults are live (a
    // CounterId of 0 would alias the first real counter, so uses are gated).
    CounterId fault_ecc_corrected = 0, fault_ecc_detected = 0;
    CounterId fault_clean_refetch = 0, fault_data_loss = 0;
    CounterId fault_wv_retries = 0, fault_wv_escalations = 0;
  } c_;
};

}  // namespace sttgpu::sttl2
