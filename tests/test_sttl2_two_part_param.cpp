// Parameterized configuration sweep of the two-part bank: the structural
// invariants must hold for every combination of search policy, threshold,
// LR associativity and buffer size.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "bank_harness.hpp"
#include "common/rng.hpp"

namespace sttgpu::sttl2 {
namespace {

using Harness = sttgpu::testing::TwoPartHarness;

// gtest names each case after the raw bytes of its parameter, so the struct
// must have no padding: uninitialised padding bytes after the one-byte policy
// made the test names differ from run to run.
struct ParamCase {
  SearchPolicy search;
  std::uint8_t zero[3];
  unsigned threshold;
  unsigned lr_assoc;  // 0 = fully associative
  unsigned buffer_lines;
};
static_assert(std::has_unique_object_representations_v<ParamCase>);

ParamCase make_case(SearchPolicy search, unsigned threshold, unsigned lr_assoc,
                    unsigned buffer_lines) {
  return ParamCase{search, {}, threshold, lr_assoc, buffer_lines};
}

std::string case_name(const ::testing::TestParamInfo<ParamCase>& info) {
  const ParamCase& p = info.param;
  return std::string(to_string(p.search)) + "_th" + std::to_string(p.threshold) + "_a" +
         std::to_string(p.lr_assoc) + "_b" + std::to_string(p.buffer_lines);
}

class TwoPartSweep : public ::testing::TestWithParam<ParamCase> {
 protected:
  TwoPartBankConfig config() const {
    TwoPartBankConfig c;
    c.hr_bytes = 14 * 1024;
    c.lr_bytes = 2 * 1024;
    c.search = GetParam().search;
    c.write_threshold = GetParam().threshold;
    c.lr_assoc = GetParam().lr_assoc;
    c.buffer_lines = GetParam().buffer_lines;
    return c;
  }
};

TEST_P(TwoPartSweep, InvariantsHoldUnderRandomTraffic) {
  Harness h(config());
  Rng rng(42);
  std::uint64_t sent = 0;
  for (int burst = 0; burst < 150; ++burst) {
    for (int i = 0; i < 3; ++i) {
      h.send(rng.next_below(56) * 256, rng.chance(0.5));
      ++sent;
    }
    h.run(25);
  }
  h.drain();

  // 1. Every request got exactly one response.
  EXPECT_EQ(h.responses().size(), sent);

  // 2. Single residency: no line in both parts.
  for (Addr a = 0; a < 56 * 256; a += 256) {
    EXPECT_FALSE(h.bank().lr_tags().probe(a).has_value() &&
                 h.bank().hr_tags().probe(a).has_value())
        << "line " << std::hex << a;
  }

  // 3. Demand-store accounting balances.
  const auto& c = h.bank().counters();
  EXPECT_EQ(c.get("w_demand"), c.get("w_lr") + c.get("w_hr"));

  // 4. Stats identities.
  const auto& s = h.bank().stats();
  EXPECT_EQ(s.accesses(), sent);
  EXPECT_EQ(s.writes(), c.get("w_demand"));

  // 5. The bank quiesced cleanly.
  EXPECT_TRUE(h.bank().idle());

  // 6. Energy strictly positive and wear consistent with physical writes.
  EXPECT_GT(h.bank().energy().total_pj(), 0.0);
  EXPECT_EQ(h.bank().lr_wear().total_writes(), c.get("lr_phys_writes"));
  EXPECT_EQ(h.bank().hr_wear().total_writes(), c.get("hr_phys_writes"));
}

TEST_P(TwoPartSweep, DeterministicReplay) {
  const auto run_once = [&] {
    Harness h(config());
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
      h.send(rng.next_below(48) * 256, rng.chance(0.4));
      h.run(11);
    }
    h.drain();
    return std::tuple{h.now(), h.bank().stats().read_hits, h.bank().stats().write_hits,
                      h.bank().energy().total_pj()};
  };
  EXPECT_EQ(run_once(), run_once());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TwoPartSweep,
    ::testing::Values(make_case(SearchPolicy::kSequential, 1, 2, 10),
                      make_case(SearchPolicy::kParallel, 1, 2, 10),
                      make_case(SearchPolicy::kSequential, 3, 2, 10),
                      make_case(SearchPolicy::kSequential, 7, 2, 10),
                      make_case(SearchPolicy::kSequential, 1, 1, 10),
                      make_case(SearchPolicy::kSequential, 1, 4, 10),
                      make_case(SearchPolicy::kSequential, 1, 0, 10),
                      make_case(SearchPolicy::kSequential, 1, 2, 1),
                      make_case(SearchPolicy::kSequential, 1, 2, 2),
                      make_case(SearchPolicy::kParallel, 3, 0, 2)),
    case_name);

}  // namespace
}  // namespace sttgpu::sttl2
