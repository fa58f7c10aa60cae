// Fault-injection subsystem tests: the FaultModel's statistics (including
// the injected-vs-analytic cross-validation the subsystem exists for), the
// banks' recovery paths (ECC correct/detect, clean re-fetch, data loss,
// write-verify retries), byte-identity with faults disabled, and the cache
// fingerprint separation of fault runs from baseline runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "bank_harness.hpp"
#include "nvm/cell.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "sttl2/fault_model.hpp"
#include "sttl2/reliability.hpp"

namespace sttgpu::sttl2 {
namespace {

// 1 GHz: one cycle == 1 ns, so cycle counts below read directly as ns.
const Clock kGHz{1e9};

FaultInjectionConfig enabled_cfg() {
  FaultInjectionConfig f;
  f.enabled = true;
  return f;
}

TEST(FaultModel, SramRetentionForcesDisabled) {
  FaultModel m(enabled_cfg(), /*retention_s=*/0.0, kGHz, /*salt=*/0);
  EXPECT_FALSE(m.enabled());
}

TEST(FaultModel, ZeroLengthIntervalIsNotATrial) {
  FaultModel m(enabled_cfg(), 1e-4, kGHz, 0);
  EXPECT_EQ(m.sample_collapse(500, 500), FaultModel::Collapse::kNone);
  EXPECT_EQ(m.sample_collapse(500, 400), FaultModel::Collapse::kNone);
  EXPECT_EQ(m.trials(), 0u);
  EXPECT_EQ(m.expected_collapses(), 0.0);
}

TEST(FaultModel, IntervalStartTracksWriteThenLastCheck) {
  cache::LineMeta line;
  line.insert_cycle = 100;
  EXPECT_EQ(fault_interval_start(line, 1000), 100u);  // only the install
  line.last_write_cycle = 400;
  EXPECT_EQ(fault_interval_start(line, 1000), 400u);
  line.retention_deadline = 5000;  // refreshed at 4000 with retention 1000
  EXPECT_EQ(fault_interval_start(line, 1000), 4000u);
  line.fault_check_cycle = 4500;  // already evaluated up to 4500
  EXPECT_EQ(fault_interval_start(line, 1000), 4500u);
  line.fault_check_cycle = 3000;  // stale check from before the refresh
  EXPECT_EQ(fault_interval_start(line, 1000), 4000u);
}

TEST(FaultModel, AccelZeroTurnsOffRetentionCollapse) {
  FaultInjectionConfig f = enabled_cfg();
  f.accel = 0.0;
  FaultModel m(f, 1e-4, kGHz, 0);
  EXPECT_EQ(m.collapse_probability(0, 1'000'000'000), 0.0);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(m.sample_collapse(0, 1'000'000), FaultModel::Collapse::kNone);
  }
  EXPECT_EQ(m.trials(), 1000u);
  EXPECT_EQ(m.collapses(), 0u);
}

// The tentpole cross-validation: drive the injector over a wide spread of
// lifetimes and check that (a) the injected collapse count converges to the
// exact analytic expectation and (b) analyze_reliability — re-scoring the
// injector's own lifetime histogram with the effective (accelerated) spec
// margin — predicts the same number. Tolerance 10% per the subsystem's
// acceptance criterion; at 20k trials the statistical noise alone is ~2%.
TEST(FaultModel, InjectedCollapsesConvergeToAnalyticPrediction) {
  FaultInjectionConfig f = enabled_cfg();
  f.accel = 20.0;        // effective_spec_margin == 1 (analyze's minimum)
  f.spec_margin = 20.0;
  FaultModel m(f, /*retention_s=*/1e-4, kGHz, /*salt=*/7);

  // Lifetimes 5e3 .. 3.02e5 cycles against a 1e5-cycle hazard constant:
  // per-trial p spans ~0.05 .. 0.95.
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    m.sample_collapse(0, 5000 + static_cast<Cycle>(i % 100) * 3000);
  }
  ASSERT_EQ(m.trials(), static_cast<std::uint64_t>(kTrials));
  const double injected = static_cast<double>(m.collapses());
  const double expected = m.expected_collapses();
  ASSERT_GT(expected, 1000.0);

  EXPECT_LT(std::abs(injected - expected) / expected, 0.10);

  const ReliabilityReport r =
      analyze_reliability(m.lifetimes_ns(), m.retention_s(), /*refresh_period_s=*/0.0,
                          m.overflow_lifetime_ns(), m.effective_spec_margin());
  EXPECT_EQ(r.lifetimes, m.trials());
  EXPECT_LT(std::abs(r.expected_failures - expected) / expected, 0.05);
  EXPECT_LT(std::abs(injected - r.expected_failures) / r.expected_failures, 0.10);
}

TEST(FaultModel, CollapseSeverityFollowsPoissonSplit) {
  FaultInjectionConfig f = enabled_cfg();
  f.accel = 20.0;
  FaultModel m(f, 1e-4, kGHz, 3);

  // Short lifetimes (p ~ 0.05): a collapsed line almost always has exactly
  // one bad bit — the SECDED-correctable case.
  unsigned single = 0, multi = 0;
  for (int i = 0; i < 20000; ++i) {
    switch (m.sample_collapse(0, 5130)) {
      case FaultModel::Collapse::kSingleBit: ++single; break;
      case FaultModel::Collapse::kMultiBit: ++multi; break;
      default: break;
    }
  }
  ASSERT_GT(single + multi, 500u);
  EXPECT_GT(static_cast<double>(single), 0.9 * (single + multi));

  // Long lifetimes (p ~ 0.999): many bits decayed — SECDED can only detect.
  FaultModel m2(f, 1e-4, kGHz, 4);
  single = multi = 0;
  for (int i = 0; i < 2000; ++i) {
    switch (m2.sample_collapse(0, 700'000)) {
      case FaultModel::Collapse::kSingleBit: ++single; break;
      case FaultModel::Collapse::kMultiBit: ++multi; break;
      default: break;
    }
  }
  ASSERT_GT(single + multi, 1000u);
  EXPECT_GT(static_cast<double>(multi), 0.9 * (single + multi));
}

TEST(FaultModel, WriteVerifyRetriesThenEscalates) {
  FaultInjectionConfig f = enabled_cfg();
  f.write_fail_prob = 1.0;  // every pulse fails verification
  f.write_retry_limit = 3;
  f.accel = 0.0;  // accel < 1 must never weaken the write-failure rate
  FaultModel m(f, 1e-4, kGHz, 0);
  const FaultModel::WriteVerify wv = m.run_write_verify();
  EXPECT_EQ(wv.retries, 3u);
  EXPECT_TRUE(wv.escalated);

  f.write_fail_prob = 0.0;
  FaultModel ok(f, 1e-4, kGHz, 0);
  const FaultModel::WriteVerify none = ok.run_write_verify();
  EXPECT_EQ(none.retries, 0u);
  EXPECT_FALSE(none.escalated);
}

// ---- bank-level recovery paths (uniform STT bank, 26.5us cells) ----

UniformBankConfig volatile_stt_cfg() {
  UniformBankConfig c;
  c.capacity_bytes = 16 * 1024;
  c.cell = nvm::stt_cell(nvm::RetentionClass::kUs26);  // 18550 cycles
  return c;
}

using UniformHarness = sttgpu::testing::UniformHarness;

TEST(UniformBankFaults, CleanCollapseRefetchesTransparently) {
  UniformBankConfig cfg = volatile_stt_cfg();
  cfg.faults = enabled_cfg();
  cfg.faults.accel = 1000.0;  // certain multi-bit collapse over ~10k cycles
  cfg.faults.write_fail_prob = 0.0;
  UniformHarness h(cfg);
  h.send(0x100, /*is_store=*/false);
  h.drain();
  ASSERT_EQ(h.dram().reads(), 1u);
  h.run(10000);  // let the clean line decay (still before its 18550 expiry)
  const auto id = h.send(0x100, false);
  h.drain();
  // The hit observed collapsed data, dropped the line and transparently
  // re-fetched: the request still completes, via a second DRAM read.
  EXPECT_TRUE(h.responded(id));
  EXPECT_EQ(h.bank().counters().get("fault_clean_refetch"), 1u);
  EXPECT_EQ(h.bank().counters().get("fault_data_loss"), 0u);
  EXPECT_EQ(h.dram().reads(), 2u);
}

TEST(UniformBankFaults, DirtyCollapseWithoutEccIsDataLoss) {
  UniformBankConfig cfg = volatile_stt_cfg();
  cfg.faults = enabled_cfg();
  cfg.faults.accel = 1000.0;
  cfg.faults.write_fail_prob = 0.0;
  cfg.faults.ecc = false;
  UniformHarness h(cfg);
  h.send(0x100, /*is_store=*/true);  // dirty line
  h.drain();
  h.run(10000);
  const auto id = h.send(0x100, false);
  h.drain();
  EXPECT_TRUE(h.responded(id));
  EXPECT_EQ(h.bank().counters().get("fault_data_loss"), 1u);
  EXPECT_EQ(h.bank().counters().get("fault_ecc_detected"), 0u);  // no ECC
}

TEST(UniformBankFaults, DirtyCollapseWithEccIsDetected) {
  UniformBankConfig cfg = volatile_stt_cfg();
  cfg.faults = enabled_cfg();
  cfg.faults.accel = 1000.0;
  cfg.faults.write_fail_prob = 0.0;
  UniformHarness h(cfg);
  h.send(0x100, /*is_store=*/true);
  h.drain();
  h.run(10000);
  h.send(0x100, false);
  h.drain();
  // Multi-bit (the 1000x hazard makes lambda huge): SECDED detects but
  // cannot correct, so the dirty data is still lost — and counted.
  EXPECT_EQ(h.bank().counters().get("fault_ecc_detected"), 1u);
  EXPECT_EQ(h.bank().counters().get("fault_data_loss"), 1u);
}

TEST(UniformBankFaults, EccCorrectsSingleBitCollapsesAndScrubs) {
  UniformBankConfig cfg = volatile_stt_cfg();
  cfg.faults = enabled_cfg();
  cfg.faults.accel = 30.0;  // p ~ 0.1 per 2k-cycle interval: single-bit regime
  cfg.faults.write_fail_prob = 0.0;
  UniformHarness h(cfg);
  h.send(0x100, false);
  h.drain();
  for (int i = 0; i < 200; ++i) {
    h.run(2000);
    h.send(0x100, false);
    h.drain();
  }
  const auto& c = h.bank().counters();
  EXPECT_GE(c.get("fault_ecc_corrected"), 5u);
  // The scrub write that restarts the corrected line's decay clock is
  // charged to its own energy category.
  EXPECT_GT(h.bank().energy().category_pj("l2.fault.scrub"), 0.0);
}

TEST(UniformBankFaults, RecoveryOutcomesPartitionCollapses) {
  UniformBankConfig cfg = volatile_stt_cfg();
  cfg.faults = enabled_cfg();
  cfg.faults.accel = 100.0;
  UniformHarness h(cfg);
  // Mixed loads and stores over several sets, with idle gaps so lifetimes
  // spread across the collapse-probability range.
  for (int round = 0; round < 60; ++round) {
    for (int i = 0; i < 6; ++i) {
      h.send(static_cast<Addr>(i) * 2048 + 0x100, /*is_store=*/(round + i) % 3 == 0);
    }
    h.drain();
    h.run(1500);
  }
  h.drain();
  const auto& c = h.bank().counters();
  const std::uint64_t outcomes = c.get("fault_ecc_corrected") +
                                 c.get("fault_clean_refetch") +
                                 c.get("fault_data_loss");
  EXPECT_GT(h.bank().faults().trials(), 100u);
  // Every injected collapse resolves to exactly one recovery outcome.
  EXPECT_EQ(h.bank().faults().collapses(), outcomes);
}

TEST(UniformBankFaults, WriteVerifyRetriesAreCountedPerPhysicalWrite) {
  UniformBankConfig cfg;
  cfg.capacity_bytes = 16 * 1024;
  cfg.cell = nvm::stt_cell(nvm::RetentionClass::kYears10);  // non-volatile
  cfg.faults = enabled_cfg();
  cfg.faults.accel = 0.0;         // isolate the write-failure mechanism
  cfg.faults.write_fail_prob = 1.0;  // every pulse fails -> full retry ladder
  cfg.faults.write_retry_limit = 3;
  UniformHarness h(cfg);
  const auto id = h.send(0x100, /*is_store=*/true);
  h.drain();
  EXPECT_TRUE(h.responded(id));
  const auto& c = h.bank().counters();
  // Every physical line write exhausts its 3 retries and escalates once.
  EXPECT_GE(c.get("fault_wv_escalations"), 1u);
  EXPECT_EQ(c.get("fault_wv_retries"), 3 * c.get("fault_wv_escalations"));
}

TEST(UniformBankFaults, DisabledKnobsHaveNoEffectAndInternNothing) {
  // A disabled fault config must be byte-identical to the default even when
  // every other knob is scrambled: same counters, same energy categories,
  // same response timing.
  UniformBankConfig base = volatile_stt_cfg();
  UniformBankConfig scrambled = volatile_stt_cfg();
  scrambled.faults.enabled = false;
  scrambled.faults.seed = 12345;
  scrambled.faults.accel = 9999.0;
  scrambled.faults.write_fail_prob = 1.0;

  UniformHarness a(base);
  UniformHarness b(scrambled);
  for (UniformHarness* h : {&a, &b}) {
    for (int i = 0; i < 40; ++i) {
      h->send(static_cast<Addr>(i % 10) * 2048 + 0x80, i % 2 == 0);
      if (i % 5 == 0) h->drain();
      h->run(500);
    }
    h->drain();
  }
  EXPECT_EQ(a.bank().counters().all(), b.bank().counters().all());
  EXPECT_EQ(a.bank().energy().categories(), b.bank().energy().categories());
  ASSERT_EQ(a.responses().size(), b.responses().size());
  for (std::size_t i = 0; i < a.responses().size(); ++i) {
    EXPECT_EQ(a.responses()[i].ready, b.responses()[i].ready);
  }
  for (const auto& [name, value] : a.bank().counters().all()) {
    EXPECT_EQ(name.rfind("fault_", 0), std::string::npos) << name;
  }
}

// ---- two-part bank ----

TEST(TwoPartBankFaults, InjectsOnBothPartsWithIndependentStreams) {
  TwoPartBankConfig cfg;
  cfg.hr_bytes = 14 * 1024;
  cfg.lr_bytes = 4 * 1024;
  cfg.faults = enabled_cfg();
  cfg.faults.accel = 200.0;
  sttgpu::testing::TwoPartHarness h(cfg);
  // Stores (landing in LR, refresh-scrubbed) and re-read loads (HR).
  for (int round = 0; round < 80; ++round) {
    for (int i = 0; i < 8; ++i) {
      h.send(static_cast<Addr>(i) * 4096 + 0x40, /*is_store=*/i % 2 == 0);
    }
    h.drain();
    h.run(2000);
  }
  h.drain();
  EXPECT_GT(h.bank().lr_faults().trials(), 0u);
  EXPECT_GT(h.bank().hr_faults().trials(), 0u);
  const auto& c = h.bank().counters();
  const std::uint64_t outcomes = c.get("fault_ecc_corrected") +
                                 c.get("fault_clean_refetch") +
                                 c.get("fault_data_loss");
  EXPECT_EQ(h.bank().lr_faults().collapses() + h.bank().hr_faults().collapses(),
            outcomes);
}

// ---- fingerprint separation ----

TEST(FaultFingerprint, DisabledMatchesBaselineEnabledDoesNot) {
  const std::uint64_t base = sim::config_fingerprint();
  FaultInjectionConfig off;  // default: disabled
  off.seed = 777;            // scrambled knobs are irrelevant when disabled
  off.accel = 123.0;
  EXPECT_EQ(sim::config_fingerprint(off), base);

  FaultInjectionConfig on = enabled_cfg();
  const std::uint64_t on_fp = sim::config_fingerprint(on);
  EXPECT_NE(on_fp, base);
  on.seed = 43;
  EXPECT_NE(sim::config_fingerprint(on), on_fp);  // knobs fold into the hash
  on.seed = 42;
  on.accel = 2.0;
  EXPECT_NE(sim::config_fingerprint(on), on_fp);
}

// ---- end-to-end: full GPU run, injected vs analytic within 10% ----

TEST(FaultEndToEnd, FullRunInjectionMatchesReliabilityPrediction) {
  const sim::ArchSpec spec = sim::make_arch(sim::architecture_from_string("C1"));
  FaultInjectionConfig faults = enabled_cfg();
  faults.accel = 20.0;  // effective spec margin 1.0
  // scale 0.5 yields several hundred injected collapses — enough sample for
  // the 10% bound (the relative sampling noise scales as 1/sqrt(count)).
  const workload::Workload w = workload::make_benchmark("bfs", /*scale=*/0.5);
  gpu::RunResult run;
  sim::FaultSummary s;
  sim::run_one_detailed(
      spec, w, run,
      {.faults = faults,
       .inspect = [&s](gpu::Gpu& g) { s = sim::collect_fault_summary(g); }});
  ASSERT_TRUE(s.enabled);
  ASSERT_GT(s.trials, 10000u);
  ASSERT_GT(s.predicted, 100.0);
  // The acceptance criterion: injected failures within 10% of the analytic
  // analyze_reliability prediction over the same lifetimes.
  EXPECT_LT(std::abs(static_cast<double>(s.collapses) - s.predicted) / s.predicted,
            0.10);
  // analyze_reliability's bucketed score vs the exact expectation: <= 5%.
  EXPECT_LT(std::abs(s.predicted - s.expected) / s.expected, 0.05);
  // Every collapse resolved to exactly one recovery outcome.
  EXPECT_EQ(s.collapses, s.ecc_corrected + s.clean_refetch + s.data_loss);
}

// Exact store rows of two accelerated fault runs. Which line draws which
// fault RNG value follows the order in which refresh and expiry trials pop
// and demand hits probe, so these pin that order: any change to it moves
// the fault counters and, through the recovery writes, the timing.
struct PinnedFaultRun {
  store::ResultRow row;
  std::uint64_t ecc_corrected, data_loss, wv_retries;
};

TEST(FaultEndToEnd, AcceleratedFaultRunsMatchPinnedRows) {
  const PinnedFaultRun pinned[] = {
      {{"C1", "mum", 0.56856800394838891, 28366, 0.38290537517551548, 0.049569530879999997,
        0.43247490605551547, 0.03007346189164371, 0.97187786960514233},
       4, 64, 2572},
      {{"C3", "bfs", 1.0908887019904683, 17835, 0.70622143199930076, 0.032305789440000003,
        0.73852722143930072, 0.47650808858753729, 0.63968014150421937},
       1461, 1678, 2952},
  };
  FaultInjectionConfig faults = enabled_cfg();
  faults.accel = 1000.0;
  for (const PinnedFaultRun& p : pinned) {
    SCOPED_TRACE(p.row.arch + "/" + p.row.benchmark);
    const sim::ArchSpec spec = sim::make_arch(sim::architecture_from_string(p.row.arch));
    const workload::Workload w = workload::make_benchmark(p.row.benchmark, /*scale=*/0.1);
    gpu::RunResult run;
    const store::ResultRow r =
        sim::to_store_row(sim::run_one_detailed(spec, w, run, {.faults = faults}));
    EXPECT_EQ(r.arch, p.row.arch);
    EXPECT_EQ(r.benchmark, p.row.benchmark);
    EXPECT_EQ(r.ipc, p.row.ipc);
    EXPECT_EQ(r.cycles, p.row.cycles);
    EXPECT_EQ(r.dynamic_w, p.row.dynamic_w);
    EXPECT_EQ(r.leakage_w, p.row.leakage_w);
    EXPECT_EQ(r.total_w, p.row.total_w);
    EXPECT_EQ(r.write_share, p.row.write_share);
    EXPECT_EQ(r.miss_rate, p.row.miss_rate);
    EXPECT_EQ(run.l2_counters.get("fault_ecc_corrected"), p.ecc_corrected);
    EXPECT_EQ(run.l2_counters.get("fault_data_loss"), p.data_loss);
    EXPECT_EQ(run.l2_counters.get("fault_wv_retries"), p.wv_retries);
  }
}

TEST(FaultEndToEnd, DisabledFaultsLeaveRunResultUntouched) {
  sim::ArchSpec spec = sim::make_arch(sim::architecture_from_string("C1"));
  const workload::Workload w = workload::make_benchmark("bfs", /*scale=*/0.05);

  gpu::RunResult base_run;
  const sim::Metrics base = sim::run_one_detailed(spec, w, base_run);

  // Disabled injection with scrambled knobs must not perturb anything.
  FaultInjectionConfig scrambled;
  scrambled.enabled = false;
  scrambled.seed = 999;
  scrambled.accel = 50.0;
  gpu::RunResult run;
  sim::FaultSummary s;
  const sim::Metrics m = sim::run_one_detailed(
      spec, w, run,
      {.faults = scrambled,
       .inspect = [&s](gpu::Gpu& g) { s = sim::collect_fault_summary(g); }});

  EXPECT_FALSE(s.enabled);
  EXPECT_EQ(base.cycles, m.cycles);
  EXPECT_EQ(base.ipc, m.ipc);
  EXPECT_EQ(base.total_w, m.total_w);
  EXPECT_EQ(base_run.l2_counters.all(), run.l2_counters.all());
}

}  // namespace
}  // namespace sttgpu::sttl2
