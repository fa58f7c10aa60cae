// Shared test harness driving a single L2 bank with its private DRAM
// channel, without the rest of the GPU.
#pragma once

#include <memory>
#include <vector>

#include "gpu/dram.hpp"
#include "gpu/gpu_config.hpp"
#include "sttl2/two_part_bank.hpp"
#include "sttl2/uniform_bank.hpp"

namespace sttgpu::testing {

template <typename BankT, typename ConfigT>
class BankHarness {
 public:
  explicit BankHarness(const ConfigT& bank_cfg, gpu::GpuConfig gpu_cfg = {})
      : gpu_cfg_(gpu_cfg) {
    dram_ = std::make_unique<gpu::DramChannel>(
        gpu_cfg_, [this](std::uint64_t cookie, Cycle now) {
          bank_->on_dram_read_done(cookie, now);
        });
    bank_ = std::make_unique<BankT>(/*bank_id=*/0, bank_cfg, gpu_cfg_.clock(), *dram_);
  }

  BankT& bank() { return *bank_; }
  Cycle now() const { return now_; }

  /// Sends one request into the bank at the current cycle. Requests are
  /// numbered in sm_id, which a bank echoes into the response unread.
  unsigned send(Addr addr, bool is_store) {
    gpu::L2Request req;
    req.addr = addr;
    req.is_store = is_store;
    req.sm_id = next_id_++;
    bank_->enqueue(req, now_);
    return req.sm_id;
  }

  /// Advances @p cycles, collecting responses.
  void run(Cycle cycles) {
    for (Cycle i = 0; i < cycles; ++i) {
      dram_->tick(now_);
      bank_->tick(now_);
      bank_->drain_responses(now_, responses_);
      ++now_;
    }
  }

  /// Runs until the bank and DRAM are idle (bounded by @p limit cycles).
  void drain(Cycle limit = 100000) {
    const Cycle end = now_ + limit;
    while ((!bank_->idle() || !dram_->idle()) && now_ < end) run(1);
  }

  std::vector<gpu::L2Response>& responses() { return responses_; }

  /// True if a response for @p id has been collected.
  bool responded(unsigned id) const {
    for (const auto& r : responses_) {
      if (r.sm_id == id) return true;
    }
    return false;
  }

  gpu::DramChannel& dram() { return *dram_; }

 private:
  gpu::GpuConfig gpu_cfg_;
  std::unique_ptr<gpu::DramChannel> dram_;
  std::unique_ptr<BankT> bank_;
  Cycle now_ = 0;
  unsigned next_id_ = 1;
  std::vector<gpu::L2Response> responses_;
};

using UniformHarness = BankHarness<sttl2::UniformBank, sttl2::UniformBankConfig>;
using TwoPartHarness = BankHarness<sttl2::TwoPartBank, sttl2::TwoPartBankConfig>;

}  // namespace sttgpu::testing
