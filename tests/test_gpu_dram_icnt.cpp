#include <gtest/gtest.h>

#include <vector>

#include "gpu/dram.hpp"
#include "gpu/interconnect.hpp"

namespace sttgpu::gpu {
namespace {

TEST(Dram, ReadCompletesAfterLatency) {
  GpuConfig cfg;
  cfg.dram_latency = 100;
  cfg.dram_service_gap = 4;
  std::vector<std::uint64_t> done;
  DramChannel dram(cfg, [&](std::uint64_t cookie, Cycle) { done.push_back(cookie); });

  dram.read(0x1000, 7, /*now=*/10);
  for (Cycle c = 10; c < 110; ++c) {
    dram.tick(c);
    EXPECT_TRUE(done.empty()) << "completed early at " << c;
  }
  dram.tick(110);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], 7u);
  EXPECT_TRUE(dram.idle());
}

TEST(Dram, WritesConsumeBandwidthButNoCallback) {
  GpuConfig cfg;
  cfg.dram_latency = 100;
  cfg.dram_service_gap = 10;
  std::vector<std::uint64_t> done;
  DramChannel dram(cfg, [&](std::uint64_t cookie, Cycle) { done.push_back(cookie); });

  dram.write(0x2000, 0);  // occupies the channel until cycle 10
  dram.read(0x3000, 1, 0);
  dram.tick(105);
  EXPECT_TRUE(done.empty());  // read started at 10, completes at 110
  dram.tick(110);
  EXPECT_EQ(done.size(), 1u);
  EXPECT_EQ(dram.reads(), 1u);
  EXPECT_EQ(dram.writes(), 1u);
}

TEST(Dram, CompletionsInOrder) {
  GpuConfig cfg;
  std::vector<std::uint64_t> done;
  DramChannel dram(cfg, [&](std::uint64_t cookie, Cycle) { done.push_back(cookie); });
  for (std::uint64_t i = 0; i < 10; ++i) dram.read(i * 256, i, 0);
  for (Cycle c = 0; c < 2000; c += 7) dram.tick(c);
  dram.tick(5000);
  ASSERT_EQ(done.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(done[i], i);
}

TEST(Dram, ClosedPageDeliversInAdmissionOrder) {
  // Reads from many rows admitted over time; sparse ticks find several
  // completions due at once, which must still leave in admission order.
  GpuConfig cfg;
  std::vector<std::uint64_t> done;
  DramChannel dram(cfg, [&](std::uint64_t cookie, Cycle) { done.push_back(cookie); });
  for (std::uint64_t i = 0; i < 40; ++i) dram.read((i * 7919 % 64) * 4096, i, i * 3);
  for (Cycle c = 0; c < 3000; c += 50) dram.tick(c);
  ASSERT_EQ(done.size(), 40u);
  for (std::uint64_t i = 0; i < 40; ++i) EXPECT_EQ(done[i], i);
  EXPECT_TRUE(dram.idle());
}

// Ticks only at next_event_cycle(), the way the event-driven loop does: a
// completion is delivered exactly there, and the value after every delivery
// is the earliest remaining completion, also when the callback issues a new
// read(). Each of the first 30 completions issues one follow-up read.
void expect_next_event_is_earliest_completion(bool open_page) {
  GpuConfig cfg;
  cfg.dram_open_page = open_page;
  DramChannel* self = nullptr;
  std::vector<Cycle> delivered_at;
  std::uint64_t next_cookie = 100;
  DramChannel dram(cfg, [&](std::uint64_t cookie, Cycle now) {
    delivered_at.push_back(now);
    if (cookie < 30) self->read(cookie * 2048 + 256, next_cookie++, now);
  });
  self = &dram;
  for (std::uint64_t i = 0; i < 30; ++i) dram.read(i * 2048, i, i * 2);
  Cycle last = 0;
  while (dram.next_event_cycle() != kNoCycle) {
    const Cycle next = dram.next_event_cycle();
    ASSERT_GE(next, last);
    const std::size_t before = delivered_at.size();
    dram.tick(next - 1);  // nothing is due before the reported cycle
    ASSERT_EQ(delivered_at.size(), before);
    dram.tick(next);
    ASSERT_GT(delivered_at.size(), before) << "no completion at cycle " << next;
    for (std::size_t i = before; i < delivered_at.size(); ++i) EXPECT_EQ(delivered_at[i], next);
    last = next;
  }
  EXPECT_EQ(delivered_at.size(), 60u);
  EXPECT_TRUE(dram.idle());
}

TEST(Dram, ClosedPageNextEventIsEarliestCompletion) {
  expect_next_event_is_earliest_completion(false);
}

TEST(Dram, OpenPageNextEventIsEarliestCompletion) {
  expect_next_event_is_earliest_completion(true);
}

TEST(Dram, OpenPageDeliveryOrderIsPinned) {
  // Row hits finish before earlier misses, and at cycle 342 a hit and a miss
  // are due in the same tick. The order below is the pending-window scan's,
  // which every open-page result depends on.
  GpuConfig cfg;
  cfg.dram_open_page = true;
  cfg.dram_latency = 220;
  cfg.dram_row_hit_latency = 140;
  cfg.dram_service_gap = 4;
  std::vector<std::pair<std::uint64_t, Cycle>> done;
  DramChannel dram(cfg, [&](std::uint64_t cookie, Cycle now) { done.emplace_back(cookie, now); });
  const Addr addrs[] = {0, 256, 4096, 4352, 512, 8192, 768, 8448, 1024, 12288, 12544, 1280};
  for (unsigned i = 0; i < 12; ++i) dram.read(addrs[i], i, i * 20);
  for (Cycle c = 0; c <= 1000; c += 9) dram.tick(c);
  const std::vector<std::pair<std::uint64_t, Cycle>> want = {
      {1, 162}, {3, 207}, {0, 225},  {2, 261}, {4, 306}, {5, 324},
      {10, 342}, {6, 342}, {7, 360}, {8, 387}, {9, 405}, {11, 441}};
  EXPECT_EQ(done, want);
}

TEST(Icnt, DeliversAfterLatency) {
  GpuConfig cfg;
  cfg.icnt_latency = 8;
  Interconnect icnt(cfg);

  L2Request req;
  req.addr = 0x100;
  icnt.send_request(0, req, 0);

  int delivered = 0;
  icnt.deliver_requests(0, 7, [] { return true; },
                        [&](const L2Request&) { ++delivered; });
  EXPECT_EQ(delivered, 0);  // not yet arrived
  icnt.deliver_requests(0, 8, [] { return true; },
                        [&](const L2Request&) { ++delivered; });
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(icnt.idle());
}

TEST(Icnt, BackpressureHoldsRequests) {
  GpuConfig cfg;
  Interconnect icnt(cfg);
  L2Request req;
  icnt.send_request(2, req, 0);
  int delivered = 0;
  icnt.deliver_requests(2, 100, [] { return false; },
                        [&](const L2Request&) { ++delivered; });
  EXPECT_EQ(delivered, 0);
  EXPECT_FALSE(icnt.idle());
  icnt.deliver_requests(2, 100, [] { return true; },
                        [&](const L2Request&) { ++delivered; });
  EXPECT_EQ(delivered, 1);
}

TEST(Icnt, ResponsesRoutedToOwningSm) {
  GpuConfig cfg;
  Interconnect icnt(cfg);
  L2Response resp;
  resp.addr = 0x900;
  resp.sm_id = 4;
  icnt.send_response(resp, 0);

  int wrong = 0, right = 0;
  icnt.deliver_responses(3, 100, [&](const L2Response&) { ++wrong; });
  icnt.deliver_responses(4, 100, [&](const L2Response& r) {
    ++right;
    EXPECT_EQ(r.addr, 0x900u);
  });
  EXPECT_EQ(wrong, 0);
  EXPECT_EQ(right, 1);
}

TEST(Icnt, PerPortBandwidthSerializes) {
  GpuConfig cfg;
  cfg.icnt_latency = 8;
  cfg.icnt_service_gap = 2;
  Interconnect icnt(cfg);
  L2Request req;
  for (int i = 0; i < 3; ++i) icnt.send_request(0, req, 0);

  int delivered = 0;
  const auto drain = [&](Cycle now) {
    icnt.deliver_requests(0, now, [] { return true; },
                          [&](const L2Request&) { ++delivered; });
  };
  drain(8);
  EXPECT_EQ(delivered, 1);  // arrivals at 8, 10, 12
  drain(10);
  EXPECT_EQ(delivered, 2);
  drain(12);
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(icnt.request_flits(), 3u);
}

}  // namespace
}  // namespace sttgpu::gpu
