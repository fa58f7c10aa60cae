#include "sttl2/two_part_bank.hpp"

#include "common/error.hpp"
#include "common/telemetry.hpp"
#include "nvm/cell.hpp"

namespace sttgpu::sttl2 {

namespace {

power::ArrayCosts cost_hr(const TwoPartBankConfig& c) {
  power::ArraySpec spec;
  spec.capacity_bytes = c.hr_bytes;
  spec.associativity = c.hr_assoc;
  spec.line_bytes = c.line_bytes;
  spec.data_cell = nvm::stt_cell_for_retention(c.hr_retention_s);
  spec.extra_tag_bits_per_line = c.hr_counter_bits;  // RC; WC is the dirty bit
  return power::evaluate_array(spec);
}

power::ArrayCosts cost_lr(const TwoPartBankConfig& c) {
  power::ArraySpec spec;
  spec.capacity_bytes = c.lr_bytes;
  const unsigned lines = static_cast<unsigned>(c.lr_bytes / c.line_bytes);
  spec.associativity = c.lr_assoc == 0 ? lines : c.lr_assoc;
  spec.line_bytes = c.line_bytes;
  spec.data_cell = nvm::stt_cell_for_retention(c.lr_retention_s);
  spec.extra_tag_bits_per_line = c.lr_counter_bits;
  return power::evaluate_array(spec);
}

cache::CacheGeometry lr_geometry(const TwoPartBankConfig& c) {
  const unsigned lines = static_cast<unsigned>(c.lr_bytes / c.line_bytes);
  const unsigned assoc = c.lr_assoc == 0 ? lines : c.lr_assoc;
  return {c.lr_bytes, assoc, c.line_bytes};
}

}  // namespace

TwoPartBank::TwoPartBank(unsigned bank_id, const TwoPartBankConfig& config,
                         const Clock& clock, gpu::DramChannel& dram)
    : BankBase(bank_id, config.line_bytes, config.input_queue, dram),
      config_(config),
      clock_(clock),
      hr_costs_(cost_hr(config)),
      lr_costs_(cost_lr(config)),
      hr_tags_({config.hr_bytes, config.hr_assoc, config.line_bytes},
               cache::ReplacementKind::kLru, bank_id + 31),
      lr_tags_(lr_geometry(config), cache::ReplacementKind::kLru, bank_id + 37),
      hr_retention_(config.hr_retention_s, config.hr_counter_bits, clock),
      lr_retention_(config.lr_retention_s, config.lr_counter_bits, clock),
      // Distinct RNG streams per (bank, part) keep the fault sequence
      // deterministic regardless of thread count or fast-forward mode.
      lr_faults_(config.faults, config.lr_retention_s, clock, bank_id * 2ull),
      hr_faults_(config.faults, config.hr_retention_s, clock, bank_id * 2ull + 1),
      hr_data_(config.hr_subbanks),
      lr_data_(config.lr_subbanks),
      hr2lr_(config.buffer_lines),
      lr2hr_(config.buffer_lines),
      refresh_timers_(lr_tags_.geometry().num_sets(), lr_tags_.geometry().associativity()),
      hr_expiry_timers_(hr_tags_.geometry().num_sets(), hr_tags_.geometry().associativity()),
      lr_rewrites_(clock),
      hr_rewrites_(clock, {ms_to_ns(1.0), ms_to_ns(10.0), ms_to_ns(40.0), ms_to_ns(100.0)}),
      lr_wear_(lr_tags_.geometry().num_sets(), lr_tags_.geometry().associativity()),
      hr_wear_(hr_tags_.geometry().num_sets(), hr_tags_.geometry().associativity()),
      threshold_(config.write_threshold) {
  STTGPU_REQUIRE(config.lr_retention_s < config.hr_retention_s,
                 "TwoPartBank: LR retention must be below HR retention");
  hr_tag_lat_ = clock_.cycles_for_ns(hr_costs_.tag_latency_ns);
  lr_tag_lat_ = clock_.cycles_for_ns(lr_costs_.tag_latency_ns);
  hr_read_occ_ = clock_.cycles_for_ns(hr_costs_.data_read_latency_ns);
  hr_write_occ_ = clock_.cycles_for_ns(hr_costs_.data_write_latency_ns);
  lr_read_occ_ = clock_.cycles_for_ns(lr_costs_.data_read_latency_ns);
  lr_write_occ_ = clock_.cycles_for_ns(lr_costs_.data_write_latency_ns);
  // Swap-buffer entries are small SRAM: one line read in + one read out.
  const auto sram = nvm::sram_cell();
  buffer_entry_pj_ = config.line_bytes * 8.0 *
                     (sram.read_energy_pj_per_bit + sram.write_energy_pj_per_bit);
  if (config_.early_write_termination) {
    STTGPU_REQUIRE(config_.ewt_flip_fraction > 0.0 && config_.ewt_flip_fraction <= 1.0,
                   "TwoPartBank: ewt_flip_fraction must be in (0, 1]");
    write_energy_scale_ = config_.ewt_flip_fraction;
  }
  next_adapt_ = config_.adapt_interval;

  // Intern every category/counter this bank will ever charge: per-access
  // sites below use the dense handles only.
  e_.lr_data_write = ledger().intern("l2.lr.data_write");
  e_.lr_tag_update = ledger().intern("l2.lr.tag_update");
  e_.lr_tag_probe = ledger().intern("l2.lr.tag_probe");
  e_.lr_data_read = ledger().intern("l2.lr.data_read");
  e_.lr_refresh = ledger().intern("l2.lr.refresh");
  e_.hr_data_write = ledger().intern("l2.hr.data_write");
  e_.hr_tag_update = ledger().intern("l2.hr.tag_update");
  e_.hr_tag_probe = ledger().intern("l2.hr.tag_probe");
  e_.hr_data_read = ledger().intern("l2.hr.data_read");
  e_.buffer = ledger().intern("l2.buffer");

  CounterSet& cs = mutable_counters();
  c_.w_demand = cs.intern("w_demand");
  c_.w_lr = cs.intern("w_lr");
  c_.w_lr_hit = cs.intern("w_lr_hit");
  c_.w_hr = cs.intern("w_hr");
  c_.tag_probes_lr = cs.intern("tag_probes_lr");
  c_.tag_probes_hr = cs.intern("tag_probes_hr");
  c_.lr_phys_writes = cs.intern("lr_phys_writes");
  c_.hr_phys_writes = cs.intern("hr_phys_writes");
  c_.migrations = cs.intern("migrations");
  c_.migrations_blocked = cs.intern("migrations_blocked");
  c_.lr_evictions = cs.intern("lr_evictions");
  c_.lr_forced_wb = cs.intern("lr_forced_wb");
  c_.lr_forced_drop = cs.intern("lr_forced_drop");
  c_.hr_evict_dirty = cs.intern("hr_evict_dirty");
  c_.hr_evict_clean = cs.intern("hr_evict_clean");
  c_.refreshes = cs.intern("refreshes");
  c_.refresh_forced_wb = cs.intern("refresh_forced_wb");
  c_.refresh_forced_drop = cs.intern("refresh_forced_drop");
  c_.hr_expired_dirty = cs.intern("hr_expired_dirty");
  c_.hr_expired_clean = cs.intern("hr_expired_clean");
  c_.wear_rotations = cs.intern("wear_rotations");
  c_.threshold_up = cs.intern("threshold_up");
  c_.threshold_down = cs.intern("threshold_down");
  if (config_.faults.enabled) {
    e_.fault_scrub = ledger().intern("l2.fault.scrub");
    c_.fault_ecc_corrected = cs.intern("fault_ecc_corrected");
    c_.fault_ecc_detected = cs.intern("fault_ecc_detected");
    c_.fault_clean_refetch = cs.intern("fault_clean_refetch");
    c_.fault_data_loss = cs.intern("fault_data_loss");
    c_.fault_wv_retries = cs.intern("fault_wv_retries");
    c_.fault_wv_escalations = cs.intern("fault_wv_escalations");
  }
  init_impl_deadline();
}

Cycle TwoPartBank::impl_next_event() const {
  // A pending wear rotation fires on the very next maintenance() call, so
  // the bank must keep ticking until it runs: reporting a later event here
  // would let the fast-forward (and the hot-path tick gating) skip cycles
  // and delay the rotation, shifting every result after it.
  if (config_.lr_wear_leveling && lr_writes_since_rotation_ >= config_.wear_level_period) {
    return 0;
  }
  Cycle next = std::min(refresh_timers_.next_when(), hr_expiry_timers_.next_when());
  // The adaptation deadline must be an event even with nothing else going
  // on: adapt_threshold() reschedules relative to the cycle it runs at, so
  // firing late would shift every later interval.
  if (config_.adaptive_threshold && next_adapt_ < next) next = next_adapt_;
  return next;
}

void TwoPartBank::charge_lr_write(Addr addr) {
  ++lr_writes_since_rotation_;
  // Crossing the wear-level period arms a rotation that must run on the very
  // next maintenance() call (impl_next_event reports 0 for it); announce the
  // deadline so the maintenance gate opens this tick, as it would ungated.
  if (config_.lr_wear_leveling && lr_writes_since_rotation_ >= config_.wear_level_period) {
    sched_impl_event(0);
  }
  ledger().add(e_.lr_data_write, lr_costs_.data_write_pj * write_energy_scale_);
  ledger().add(e_.lr_tag_update, lr_costs_.tag_update_pj);
  mutable_counters().at(c_.lr_phys_writes) += 1;
  const std::uint64_t set = lr_tags_.geometry().set_index(addr);
  if (const auto way = lr_tags_.probe(addr)) lr_wear_.record_write(set, *way);
}

void TwoPartBank::charge_hr_write(Addr addr) {
  ledger().add(e_.hr_data_write, hr_costs_.data_write_pj * write_energy_scale_);
  ledger().add(e_.hr_tag_update, hr_costs_.tag_update_pj);
  mutable_counters().at(c_.hr_phys_writes) += 1;
  const std::uint64_t set = hr_tags_.geometry().set_index(addr);
  if (const auto way = hr_tags_.probe(addr)) hr_wear_.record_write(set, *way);
}

Cycle TwoPartBank::apply_write_verify(FaultModel& fm, SubbankedServer& data, Addr key,
                                      Cycle done, Cycle occ, power::EnergyId cat,
                                      PicoJoule pulse_pj) {
  const FaultModel::WriteVerify wv = fm.run_write_verify();
  if (wv.retries != 0) {
    mutable_counters().at(c_.fault_wv_retries) += wv.retries;
    for (unsigned i = 0; i < wv.retries; ++i) {
      done = data.occupy(key, done, occ);
      ledger().add(cat, pulse_pj);
    }
  }
  if (wv.escalated) {
    // Boosted pulse: twice the energy and pulse width, always sticks.
    mutable_counters().at(c_.fault_wv_escalations) += 1;
    done = data.occupy(key, done, 2 * occ);
    ledger().add(cat, 2.0 * pulse_pj);
  }
  return done;
}

Cycle TwoPartBank::lr_data_write(Addr key, Cycle now) {
  Cycle done = lr_data_.occupy(key, now, lr_write_occ_);
  charge_lr_write(key);
  if (lr_faults_.enabled()) {
    done = apply_write_verify(lr_faults_, lr_data_, key, done, lr_write_occ_,
                              e_.lr_data_write, lr_costs_.data_write_pj * write_energy_scale_);
  }
  return done;
}

Cycle TwoPartBank::hr_data_write(Addr addr, Cycle now) {
  Cycle done = hr_data_.occupy(addr, now, hr_write_occ_);
  charge_hr_write(addr);
  if (hr_faults_.enabled()) {
    done = apply_write_verify(hr_faults_, hr_data_, addr, done, hr_write_occ_,
                              e_.hr_data_write, hr_costs_.data_write_pj * write_energy_scale_);
  }
  return done;
}

bool TwoPartBank::fault_read_check(bool lr_part, Addr key, unsigned way, Cycle now) {
  FaultModel& fm = lr_part ? lr_faults_ : hr_faults_;
  if (!fm.enabled()) return false;
  cache::TagArray& tags = lr_part ? lr_tags_ : hr_tags_;
  const RetentionClock& rc = lr_part ? lr_retention_ : hr_retention_;
  const std::uint64_t set = tags.geometry().set_index(key);
  cache::LineMeta& line = tags.line(set, way);
  const auto collapse = fm.sample_collapse(fault_interval_start(line, rc.retention_cycles()), now);
  line.fault_check_cycle = now;
  if (collapse == FaultModel::Collapse::kNone) return false;
  if (config_.faults.ecc && collapse == FaultModel::Collapse::kSingleBit) {
    // SECDED corrects the word in flight; the controller scrubs (rewrites
    // the corrected line), which restarts the decay clock.
    mutable_counters().at(c_.fault_ecc_corrected) += 1;
    (lr_part ? lr_data_ : hr_data_).occupy(key, now, lr_part ? lr_write_occ_ : hr_write_occ_);
    ledger().add(e_.fault_scrub,
                 (lr_part ? lr_costs_ : hr_costs_).data_write_pj * write_energy_scale_);
    line.retention_deadline = rc.deadline(now);
    if (lr_part) {
      const Cycle due = rc.refresh_due(now);
      refresh_timers_.arm(set, way, due, line.retention_deadline);
      sched_impl_event(due);
    } else {
      hr_expiry_timers_.arm(set, way, line.retention_deadline, line.retention_deadline);
      sched_impl_event(line.retention_deadline);
    }
    return false;
  }
  if (!line.dirty) {
    // Clean data collapsed: drop the line; the demand access falls through
    // to the miss path and re-fetches from DRAM transparently.
    mutable_counters().at(c_.fault_clean_refetch) += 1;
  } else {
    // Dirty and uncorrectable: the only up-to-date copy is gone. The line
    // is dropped so later accesses at least see consistent (stale) data.
    if (config_.faults.ecc) mutable_counters().at(c_.fault_ecc_detected) += 1;
    mutable_counters().at(c_.fault_data_loss) += 1;
    if (telemetry() != nullptr) {
      telemetry()->instant(telemetry_prefix() + "faults", "data_loss", now);
    }
  }
  tags.invalidate(key, way);
  return true;
}

TwoPartBank::Carry TwoPartBank::fault_carry_trial(FaultModel& fm, cache::LineMeta& line,
                                                  Cycle retention_cycles, Cycle now) {
  if (!fm.enabled()) return Carry::kOk;
  const auto collapse = fm.sample_collapse(fault_interval_start(line, retention_cycles), now);
  line.fault_check_cycle = now;
  if (collapse == FaultModel::Collapse::kNone) return Carry::kOk;
  if (config_.faults.ecc && collapse == FaultModel::Collapse::kSingleBit) {
    mutable_counters().at(c_.fault_ecc_corrected) += 1;  // corrected in flight
    return Carry::kOk;
  }
  if (!line.dirty) {
    mutable_counters().at(c_.fault_clean_refetch) += 1;
    return Carry::kDrop;
  }
  if (config_.faults.ecc) mutable_counters().at(c_.fault_ecc_detected) += 1;
  mutable_counters().at(c_.fault_data_loss) += 1;
  if (telemetry() != nullptr) {
    telemetry()->instant(telemetry_prefix() + "faults", "data_loss", now);
  }
  return Carry::kDrop;
}

double TwoPartBank::lr_write_utilization() const noexcept {
  const std::uint64_t demand = counters().get("w_demand");
  if (demand == 0) return 0.0;
  // Direct LR write hits only: a migration means the previous write working
  // set placement failed to keep the block resident in LR, so the paper's
  // "write utilization of the LR part" penalizes it.
  return static_cast<double>(counters().get("w_lr_hit")) / static_cast<double>(demand);
}

void TwoPartBank::process_request(const gpu::L2Request& request, Cycle now) {
  service(request, now, /*replay=*/false);
}

void TwoPartBank::service(const gpu::L2Request& request, Cycle now, bool replay) {
  const Addr line_addr = line_base(request.addr);
  auto& s = mutable_stats();

  if (fill_outstanding(line_addr)) {
    if (!replay) {
      request.is_store ? ++s.write_misses : ++s.read_misses;
      if (request.is_store) mutable_counters().at(c_.w_demand) += 1;
    }
    request_fill(line_addr, request, now);
    return;
  }

  // --- cache search (Section 5's search selector) ---
  bool in_lr = false, in_hr = false;
  std::optional<unsigned> way;
  Cycle search_lat = 0;
  const Addr lr_key = to_lr(line_addr);
  const auto probe_lr = [&] {
    mutable_counters().at(c_.tag_probes_lr) += 1;
    ledger().add(e_.lr_tag_probe, lr_costs_.tag_probe_pj);
    way = lr_tags_.probe(lr_key);
    in_lr = way.has_value();
  };
  const auto probe_hr = [&] {
    mutable_counters().at(c_.tag_probes_hr) += 1;
    ledger().add(e_.hr_tag_probe, hr_costs_.tag_probe_pj);
    way = hr_tags_.probe(line_addr);
    in_hr = way.has_value();
  };

  if (config_.search == SearchPolicy::kParallel) {
    probe_lr();
    const auto lr_way = way;
    probe_hr();
    if (in_lr) {
      way = lr_way;
      in_hr = false;  // invariant: a line lives in exactly one part
    }
    search_lat = std::max(hr_tag_lat_, lr_tag_lat_);
  } else if (request.is_store) {
    probe_lr();
    search_lat = lr_tag_lat_;
    if (!in_lr) {
      probe_hr();
      search_lat += hr_tag_lat_;
    }
  } else {
    probe_hr();
    search_lat = hr_tag_lat_;
    if (!in_hr) {
      probe_lr();
      search_lat += lr_tag_lat_;
    }
  }

  // Fault injection: a hit observes the line's stored data, so its decay
  // interval is evaluated here. An unrecoverable collapse invalidates the
  // line and the access falls through to the miss path — the transparent
  // re-fetch from DRAM. (No-op when faults are disabled.)
  if (in_lr && fault_read_check(/*lr_part=*/true, lr_key, *way, now)) {
    in_lr = false;
    way.reset();
  } else if (in_hr && fault_read_check(/*lr_part=*/false, line_addr, *way, now)) {
    in_hr = false;
    way.reset();
  }

  const Cycle start = now + search_lat;

  if (request.is_store) {
    if (!replay) mutable_counters().at(c_.w_demand) += 1;
    if (in_lr) {
      if (!replay) ++s.write_hits;
      const Cycle done = lr_write_hit(lr_key, *way, start);
      respond(request, done + config_.pipeline_cycles);
      return;
    }
    if (in_hr) {
      if (!replay) ++s.write_hits;
      const Cycle done = hr_write_hit(line_addr, *way, start);
      respond(request, done + config_.pipeline_cycles);
      return;
    }
    if (!replay) ++s.write_misses;
    request_fill(line_addr, request, now);
    return;
  }

  // Loads.
  if (in_hr) {
    if (!replay) ++s.read_hits;
    hr_tags_.touch(line_addr, *way);
    const Cycle done = hr_data_.occupy(line_addr, start, hr_read_occ_);
    ledger().add(e_.hr_data_read, hr_costs_.data_read_pj);
    respond(request, done + config_.pipeline_cycles);
    return;
  }
  if (in_lr) {
    if (!replay) ++s.read_hits;
    lr_tags_.touch(lr_key, *way);
    const Cycle done = lr_data_.occupy(lr_key, start, lr_read_occ_);
    ledger().add(e_.lr_data_read, lr_costs_.data_read_pj);
    respond(request, done + config_.pipeline_cycles);
    return;
  }
  if (!replay) ++s.read_misses;
  request_fill(line_addr, request, now);
}

Cycle TwoPartBank::lr_write_hit(Addr lr_key, unsigned way, Cycle start) {
  const Addr line_addr = lr_key;  // already in LR key space
  const std::uint64_t set = lr_tags_.geometry().set_index(line_addr);
  cache::LineMeta& line = lr_tags_.line(set, way);
  lr_tags_.touch(line_addr, way);
  lr_rewrites_.record(line.last_write_cycle, start);
  line.dirty = true;
  line.write_count += 1;
  line.last_write_cycle = start;
  line.retention_deadline = lr_retention_.deadline(start);
  const Cycle refresh_due = lr_retention_.refresh_due(start);
  refresh_timers_.arm(set, way, refresh_due, line.retention_deadline);
  sched_impl_event(refresh_due);

  const Cycle done = lr_data_write(line_addr, start);
  mutable_counters().at(c_.w_lr) += 1;
  mutable_counters().at(c_.w_lr_hit) += 1;  // served directly by an LR hit
  return done;
}

Cycle TwoPartBank::hr_write_hit(Addr line_addr, unsigned way, Cycle start) {
  const std::uint64_t set = hr_tags_.geometry().set_index(line_addr);
  cache::LineMeta& line = hr_tags_.line(set, way);
  hr_rewrites_.record(line.last_write_cycle, start);

  if (line.write_count >= threshold_ && !hr2lr_.full(start)) {
    // WWS monitor fired: migrate this block to LR and perform the write there.
    mutable_counters().at(c_.migrations) += 1;
    ++interval_migrations_;
    const std::uint32_t wc = line.write_count + 1;
    hr_data_.occupy(line_addr, start, hr_read_occ_);  // read the block out of HR
    ledger().add(e_.hr_data_read, hr_costs_.data_read_pj);
    ledger().add(e_.hr_tag_update, hr_costs_.tag_update_pj);
    ledger().add(e_.buffer, buffer_entry_pj_);
    hr_tags_.invalidate(line_addr, way);

    const Cycle done = lr_install(line_addr, /*dirty=*/true, wc, start, start);
    hr2lr_.add(done);
    return done;
  }

  if (line.write_count >= threshold_) mutable_counters().at(c_.migrations_blocked) += 1;

  hr_tags_.touch(line_addr, way);
  line.dirty = true;
  line.write_count += 1;
  line.last_write_cycle = start;
  line.retention_deadline = hr_retention_.deadline(start);
  hr_expiry_timers_.arm(set, way, line.retention_deadline, line.retention_deadline);
  sched_impl_event(line.retention_deadline);

  const Cycle done = hr_data_write(line_addr, start);
  mutable_counters().at(c_.w_hr) += 1;
  return done;
}

Cycle TwoPartBank::lr_install(Addr addr, bool dirty, std::uint32_t write_count,
                              Cycle last_write, Cycle now) {
  const Addr key = to_lr(addr);
  const unsigned way = lr_tags_.pick_victim(key);
  const std::uint64_t set = lr_tags_.geometry().set_index(key);
  if (lr_tags_.valid(set, way)) lr_evict(set, way, now);

  cache::LineMeta& line = lr_tags_.fill(key, way, now);
  line.dirty = dirty;
  line.write_count = write_count;
  line.last_write_cycle = last_write;
  line.retention_deadline = lr_retention_.deadline(now);
  const Cycle refresh_due = lr_retention_.refresh_due(now);
  refresh_timers_.arm(set, way, refresh_due, line.retention_deadline);
  sched_impl_event(refresh_due);

  const Cycle done = lr_data_write(key, now);
  mutable_counters().at(c_.w_lr) += 1;
  return done;
}

void TwoPartBank::lr_evict(std::uint64_t set, unsigned way, Cycle now) {
  const cache::LineMeta old = lr_tags_.line(set, way);
  const Addr key = lr_tags_.addr_of(set, way);
  const Addr addr = from_lr(key);  // back to true address space
  mutable_counters().at(c_.lr_evictions) += 1;
  ++interval_evictions_;

  lr_data_.occupy(key, now, lr_read_occ_);  // read the block out of LR
  ledger().add(e_.lr_data_read, lr_costs_.data_read_pj);
  const Carry carry =
      fault_carry_trial(lr_faults_, lr_tags_.line(set, way), lr_retention_.retention_cycles(), now);
  lr_tags_.invalidate(key, way);
  if (carry == Carry::kDrop) return;  // collapsed in LR: nothing usable to carry

  if (!lr2hr_.full(now)) {
    ledger().add(e_.buffer, buffer_entry_pj_);
    // The write counter counts writes since (re)insertion into HR and
    // restarts here. With TH1 the monitor is the modified bit, which a
    // dirty block naturally carries back into HR (the paper's free WWS
    // monitor); higher thresholds make returning blocks re-earn migration.
    const std::uint32_t wc = (threshold_ == 1 && old.dirty) ? 1 : 0;
    const Cycle done = hr_install(addr, old.dirty, wc, now);
    lr2hr_.add(done);
    return;
  }
  // Paper: on buffer full, dirty lines are forced to main memory.
  if (old.dirty) {
    dram_writeback(addr, now);
    mutable_counters().at(c_.lr_forced_wb) += 1;
  } else {
    mutable_counters().at(c_.lr_forced_drop) += 1;
  }
}

Cycle TwoPartBank::hr_install(Addr addr, bool dirty, std::uint32_t write_count, Cycle now) {
  const unsigned victim = hr_tags_.pick_victim(addr);
  const std::uint64_t set = hr_tags_.geometry().set_index(addr);
  if (hr_tags_.valid(set, victim) && hr_tags_.line(set, victim).dirty) {
    const Addr victim_addr = hr_tags_.addr_of(set, victim);
    hr_data_.occupy(victim_addr, now, hr_read_occ_);
    ledger().add(e_.hr_data_read, hr_costs_.data_read_pj);
    if (fault_carry_trial(hr_faults_, hr_tags_.line(set, victim),
                          hr_retention_.retention_cycles(), now) == Carry::kOk) {
      dram_writeback(victim_addr, now);
    }
    mutable_counters().at(c_.hr_evict_dirty) += 1;
  } else if (hr_tags_.valid(set, victim)) {
    mutable_counters().at(c_.hr_evict_clean) += 1;
  }

  cache::LineMeta& line = hr_tags_.fill(addr, victim, now);
  line.dirty = dirty;
  line.write_count = write_count;
  line.last_write_cycle = write_count != 0 ? now : kNoCycle;
  line.retention_deadline = hr_retention_.deadline(now);
  hr_expiry_timers_.arm(set, victim, line.retention_deadline, line.retention_deadline);
  sched_impl_event(line.retention_deadline);

  const Cycle done = hr_data_write(addr, now);
  return done;
}

void TwoPartBank::process_fill(Addr line_addr, Cycle now) {
  const Cycle done = hr_install(line_addr, /*dirty=*/false, /*write_count=*/0, now);

  const Waiters& w = take_waiters(line_addr);
  for (const auto& req : w.reads) {
    respond(req, done + hr_tag_lat_ + config_.pipeline_cycles);
  }
  // Fetch-on-write: replay the merged stores against the now-present line.
  for (const auto& req : w.writes) service(req, now, /*replay=*/true);
}

void TwoPartBank::maintenance(Cycle now) {
  do_refresh(now);
  do_hr_expiry(now);
  if (config_.adaptive_threshold) adapt_threshold(now);
  if (config_.lr_wear_leveling && lr_writes_since_rotation_ >= config_.wear_level_period) {
    rotate_lr_mapping(now);
  }
}

void TwoPartBank::rotate_lr_mapping(Cycle now) {
  // Flush the LR part back to HR through the normal eviction path (the
  // swap buffer and write costs are charged as usual), then shift the
  // index mapping by one set so hot lines land on fresh cells.
  for (std::uint64_t set = 0; set < lr_tags_.geometry().num_sets(); ++set) {
    for (unsigned way = 0; way < lr_tags_.geometry().associativity(); ++way) {
      if (lr_tags_.valid(set, way)) lr_evict(set, way, now);
    }
  }
  lr_offset_ = (lr_offset_ + 1) % lr_tags_.geometry().num_sets();
  lr_writes_since_rotation_ = 0;
  mutable_counters().at(c_.wear_rotations) += 1;
}

void TwoPartBank::adapt_threshold(Cycle now) {
  if (now < next_adapt_) return;
  next_adapt_ = now + config_.adapt_interval;
  // Churn = LR evictions per migration over the last interval. High churn
  // means migrated blocks bounce straight back out: the LR is oversubscribed
  // and the monitor should demand more rewrites before migrating.
  if (interval_migrations_ >= 8) {
    const double churn = static_cast<double>(interval_evictions_) /
                         static_cast<double>(interval_migrations_);
    if (churn > 0.5 && threshold_ < config_.max_threshold) {
      ++threshold_;
      mutable_counters().at(c_.threshold_up) += 1;
    } else if (churn < 0.25 && threshold_ > config_.write_threshold) {
      --threshold_;
      mutable_counters().at(c_.threshold_down) += 1;
    }
  }
  interval_migrations_ = 0;
  interval_evictions_ = 0;
}

void TwoPartBank::do_refresh(Cycle now) {
  // Telemetry bookkeeping for the batch ("refresh storm"): how many live
  // lines this call touched and when the last staged rewrite completes.
  std::uint64_t storm_lines = 0;
  Cycle storm_end = now;
  while (refresh_timers_.next_when() <= now) {
    const LineTimers::Timer e = refresh_timers_.top();
    refresh_timers_.pop();
    if (!lr_tags_.valid(e.set, e.way)) continue;  // stale
    cache::LineMeta& line = lr_tags_.line(e.set, e.way);
    if (line.retention_deadline != e.stamp) continue;  // stale
    ++storm_lines;

    // Refresh-as-scrub: the refresh read passes through the ECC check, so a
    // collapse that happened since the last write is caught here rather
    // than refreshed into a "fresh" corrupt line. Correctable collapses are
    // repaired by the rewrite below; unrecoverable ones drop the line.
    if (lr_faults_.enabled() &&
        fault_carry_trial(lr_faults_, line, lr_retention_.retention_cycles(), now) ==
            Carry::kDrop) {
      lr_tags_.invalidate(lr_tags_.addr_of(e.set, e.way), e.way);
      continue;
    }

    if (!lr2hr_.full(now)) {
      // In-place refresh staged through the LR->HR buffer: read + rewrite.
      const Addr raddr = lr_tags_.addr_of(e.set, e.way);
      lr_data_.occupy(raddr, now, lr_read_occ_);
      Cycle done = lr_data_.occupy(raddr, now, lr_write_occ_);
      ledger().add(e_.lr_refresh,
                   lr_costs_.data_read_pj + lr_costs_.data_write_pj * write_energy_scale_);
      mutable_counters().at(c_.refreshes) += 1;
      mutable_counters().at(c_.lr_phys_writes) += 1;
      lr_wear_.record_write(e.set, e.way);
      line.retention_deadline = lr_retention_.deadline(now);
      refresh_timers_.arm(e.set, e.way, lr_retention_.refresh_due(now), line.retention_deadline);
      if (lr_faults_.enabled()) {
        done = apply_write_verify(lr_faults_, lr_data_, raddr, done, lr_write_occ_,
                                  e_.lr_refresh, lr_costs_.data_write_pj * write_energy_scale_);
      }
      if (done > storm_end) storm_end = done;
      lr2hr_.add(done);
      continue;
    }
    // No buffer slot: avoid data loss by writing back (dirty) / dropping.
    const Addr key = lr_tags_.addr_of(e.set, e.way);
    if (line.dirty) {
      dram_writeback(from_lr(key), now);
      mutable_counters().at(c_.refresh_forced_wb) += 1;
    } else {
      mutable_counters().at(c_.refresh_forced_drop) += 1;
    }
    lr_tags_.invalidate(key, e.way);
  }
  if (telemetry() != nullptr && storm_lines > 0) {
    telemetry()->slice(telemetry_prefix() + "refresh",
                       "refresh x" + std::to_string(storm_lines), now, storm_end);
  }
}

void TwoPartBank::do_hr_expiry(Cycle now) {
  while (hr_expiry_timers_.next_when() <= now) {
    const LineTimers::Timer e = hr_expiry_timers_.top();
    hr_expiry_timers_.pop();
    if (!hr_tags_.valid(e.set, e.way)) continue;  // stale
    cache::LineMeta& line = hr_tags_.line(e.set, e.way);
    if (line.retention_deadline != e.stamp) continue;  // stale
    const Addr addr = hr_tags_.addr_of(e.set, e.way);
    if (line.dirty) {
      hr_data_.occupy(addr, now, hr_read_occ_);
      ledger().add(e_.hr_data_read, hr_costs_.data_read_pj);
      // The expiry writeback reads the data out at the very end of its
      // retention window — the most collapse-prone moment in HR.
      if (fault_carry_trial(hr_faults_, line, hr_retention_.retention_cycles(), now) ==
          Carry::kOk) {
        dram_writeback(addr, now);
      }
      mutable_counters().at(c_.hr_expired_dirty) += 1;
    } else {
      mutable_counters().at(c_.hr_expired_clean) += 1;
    }
    hr_tags_.invalidate(addr, e.way);
  }
}

void TwoPartBank::sample_telemetry(Cycle now, Telemetry& out) {
  BankBase::sample_telemetry(now, out);
  const std::string p = telemetry_prefix();
  out.gauge(p + "lr_occupancy",
            static_cast<double>(lr_tags_.valid_count()) /
                static_cast<double>(lr_tags_.geometry().num_lines()));
  out.gauge(p + "hr_occupancy",
            static_cast<double>(hr_tags_.valid_count()) /
                static_cast<double>(hr_tags_.geometry().num_lines()));
  // in_use() prunes entries whose destination write already completed —
  // idempotent at a fixed `now`, so sampling never perturbs timing.
  out.gauge(p + "lr2hr_depth", static_cast<double>(lr2hr_.in_use(now)));
  out.gauge(p + "hr2lr_depth", static_cast<double>(hr2lr_.in_use(now)));
  out.gauge(p + "write_threshold", static_cast<double>(threshold_));
}

void TwoPartBank::describe_state(std::ostream& os, Cycle now) const {
  BankBase::describe_state(os, now);
  os << " | hr2lr=" << hr2lr_.in_use_at(now) << '/' << hr2lr_.capacity()
     << " lr2hr=" << lr2hr_.in_use_at(now) << '/' << lr2hr_.capacity()
     << " threshold=" << threshold_ << " live_refresh_timers=" << refresh_timers_.size()
     << " live_hr_expiry_timers=" << hr_expiry_timers_.size();
}

}  // namespace sttgpu::sttl2
