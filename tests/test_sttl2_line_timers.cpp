// Per-line retention timers: the indexed heap itself (one timer per slot,
// (when, set, way) pop order) and the banks' use of it (live timer counts
// bounded by the line count under a write-heavy stream).
#include <gtest/gtest.h>

#include <cstdint>

#include "bank_harness.hpp"
#include "common/rng.hpp"
#include "gpu/gpu.hpp"
#include "nvm/cell.hpp"
#include "sim/arch.hpp"
#include "sim/runner.hpp"
#include "sttl2/line_timers.hpp"
#include "sttl2/two_part_bank.hpp"
#include "sttl2/uniform_bank.hpp"
#include "workload/benchmarks.hpp"

namespace sttgpu::sttl2 {
namespace {

TEST(LineTimers, EmptyHasNoDeadline) {
  LineTimers t(4, 2);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.next_when(), kNoCycle);
}

TEST(LineTimers, RearmingOneSlotKeepsOneTimer) {
  LineTimers t(4, 2);
  t.arm(1, 1, 500, 7);
  t.arm(1, 1, 900, 8);  // later: sifts down
  t.arm(1, 1, 300, 9);  // earlier: sifts up
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.top().when, 300u);
  EXPECT_EQ(t.top().stamp, 9u);
  EXPECT_EQ(t.top().set, 1u);
  EXPECT_EQ(t.top().way, 1u);
  t.pop();
  EXPECT_TRUE(t.empty());
}

TEST(LineTimers, RearmReordersAgainstOtherSlots) {
  LineTimers t(2, 1);
  t.arm(0, 0, 100, 0);
  t.arm(1, 0, 200, 0);
  t.arm(0, 0, 300, 0);  // slot 0 moves behind slot 1
  EXPECT_EQ(t.top().set, 1u);
  t.pop();
  EXPECT_EQ(t.top().set, 0u);
  EXPECT_EQ(t.top().when, 300u);
}

TEST(LineTimers, EqualDeadlinesPopInSlotOrder) {
  LineTimers t(8, 4);
  // Arm every slot with one shared deadline, in a scrambled order.
  for (unsigned i = 0; i < 32; ++i) {
    const unsigned slot = (i * 13) % 32;
    t.arm(slot / 4, slot % 4, 1000, slot);
  }
  ASSERT_EQ(t.size(), 32u);
  for (unsigned slot = 0; slot < 32; ++slot) {
    ASSERT_EQ(t.top().when, 1000u);
    EXPECT_EQ(t.top().set, slot / 4);
    EXPECT_EQ(t.top().way, slot % 4);
    EXPECT_EQ(t.top().stamp, slot);
    t.pop();
  }
  EXPECT_TRUE(t.empty());
}

TEST(LineTimers, RandomRearmsStayBoundedAndPopInOrder) {
  constexpr std::uint64_t kSets = 64;
  constexpr unsigned kWays = 7;
  constexpr std::size_t kSlots = kSets * kWays;
  LineTimers t(kSets, kWays);
  Rng rng(2024);
  std::size_t high_water = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t slot = rng.next_below(kSlots);
    // Coarse deadlines so many timers tie on `when`.
    t.arm(slot / kWays, static_cast<unsigned>(slot % kWays), rng.next_below(5000), slot);
    if (t.size() > high_water) high_water = t.size();
  }
  EXPECT_LE(high_water, kSlots);
  EXPECT_EQ(t.size(), kSlots);  // 1M draws over 448 slots arm every one
  Cycle prev_when = 0;
  std::uint64_t prev_slot = 0;
  std::size_t popped = 0;
  while (!t.empty()) {
    const LineTimers::Timer e = t.top();
    const std::uint64_t slot = e.set * kWays + e.way;
    EXPECT_EQ(e.stamp, slot);
    ASSERT_GE(e.when, prev_when);
    if (popped != 0 && e.when == prev_when) {
      ASSERT_GT(slot, prev_slot);
    }
    prev_when = e.when;
    prev_slot = slot;
    t.pop();
    ++popped;
  }
  EXPECT_EQ(popped, kSlots);
}

// ---- bank level: live timers never outnumber the lines ----

TEST(LineTimersInBanks, TwoPartWriteHeavyRunKeepsOneTimerPerLine) {
  // mum rewrites HR-resident lines throughout the run; with one queue entry
  // per write, the HR expiry backlog grew several times past the HR line
  // count (HR retention outlasts the whole run, so nothing ever drained).
  const sim::ArchSpec spec = sim::make_arch(sim::architecture_from_string("C3"));
  const workload::Workload w = workload::make_benchmark("mum", /*scale=*/0.05);
  gpu::RunResult run;
  unsigned banks_seen = 0;
  std::size_t hr_timers = 0;
  sim::run_one_detailed(spec, w, run, {.inspect = [&](gpu::Gpu& g) {
    for (unsigned i = 0; i < g.num_banks(); ++i) {
      const auto* bank = dynamic_cast<const TwoPartBank*>(&g.bank(i));
      ASSERT_NE(bank, nullptr);
      const TwoPartBank::LiveTimers live = bank->live_timers();
      EXPECT_LE(live.lr_refresh, bank->lr_tags().geometry().num_lines());
      EXPECT_LE(live.hr_expiry, bank->hr_tags().geometry().num_lines());
      hr_timers += live.hr_expiry;
      ++banks_seen;
    }
  }});
  EXPECT_GT(banks_seen, 0u);
  EXPECT_GT(hr_timers, 0u);  // the guard must see armed timers to mean anything
}

TEST(LineTimersInBanks, UniformRewritesOfOneLineKeepOneTimer) {
  UniformBankConfig cfg;
  cfg.capacity_bytes = 16 * 1024;  // 8 sets x 8 ways of 256B
  cfg.cell = nvm::stt_cell(nvm::RetentionClass::kUs26);
  sttgpu::testing::UniformHarness h(cfg);
  for (int i = 0; i < 200; ++i) {
    h.send(0x100, /*is_store=*/true);
    h.drain();
  }
  EXPECT_EQ(h.bank().live_timers(), 1u);
  EXPECT_LE(h.bank().live_timers(), h.bank().tags().geometry().num_lines());
}

}  // namespace
}  // namespace sttgpu::sttl2
