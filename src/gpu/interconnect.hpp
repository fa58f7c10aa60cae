// On-chip interconnect between the SM clusters and the L2 banks.
//
// The paper's configuration uses a butterfly network; at the abstraction
// level of this simulator what matters is per-port bandwidth and pipeline
// latency, so each direction is modelled as a ThroughputPipe per L2-bank
// port (requests) and per SM port (responses), plus FIFO delivery queues
// with backpressure toward the banks.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ring_queue.hpp"
#include "common/types.hpp"
#include "gpu/gpu_config.hpp"
#include "gpu/pipe.hpp"
#include "gpu/request.hpp"

namespace sttgpu {
class Telemetry;
}

namespace sttgpu::gpu {

class Interconnect {
 public:
  explicit Interconnect(const GpuConfig& config);

  /// SM -> bank direction. The network itself always accepts (the SM-side
  /// credit system bounds in-flight traffic); delivery to a bank is gated
  /// by the bank's accepting() via deliver_requests(). Returns the packet's
  /// arrival cycle at the bank so the caller can schedule its next event.
  Cycle send_request(unsigned bank, const L2Request& request, Cycle now);

  /// Pops requests that have arrived at @p bank by @p now, while @p accepting
  /// allows; returns them in arrival order.
  template <typename AcceptFn, typename DeliverFn>
  void deliver_requests(unsigned bank, Cycle now, AcceptFn&& accepting,
                        DeliverFn&& deliver) {
    auto& q = request_q_[bank];
    while (!q.empty() && q.front().arrival <= now && accepting()) {
      deliver(q.front().req);
      q.pop_front();
      --in_flight_;
    }
  }

  /// Bank -> SM direction. Returns the arrival cycle at the SM.
  Cycle send_response(const L2Response& response, Cycle now);

  /// Pops responses that have arrived at SM @p sm by @p now.
  template <typename DeliverFn>
  void deliver_responses(unsigned sm, Cycle now, DeliverFn&& deliver) {
    auto& q = response_q_[sm];
    while (!q.empty() && q.front().arrival <= now) {
      deliver(q.front().resp);
      q.pop_front();
      --in_flight_;
    }
  }

  /// No packet anywhere in the network. O(1): a counter maintained on
  /// send/deliver, instead of scanning every per-bank/per-SM queue on every
  /// drain cycle.
  bool idle() const noexcept { return in_flight_ == 0; }

  /// Earliest absolute arrival cycle over all queued packets; kNoCycle when
  /// the network is empty. An undelivered packet whose arrival has already
  /// passed (bank backpressure) reports that past cycle, which correctly
  /// blocks fast-forwarding over it.
  Cycle next_event_cycle() const noexcept;

  /// Earliest arrival at bank @p bank (its queue's front — arrivals are
  /// monotone per queue); kNoCycle when empty. O(1) peek for per-bank
  /// event lanes.
  Cycle next_request_arrival(unsigned bank) const noexcept {
    return request_q_[bank].empty() ? kNoCycle : request_q_[bank].front().arrival;
  }

  /// Earliest arrival at SM @p sm; kNoCycle when its queue is empty.
  Cycle next_response_arrival(unsigned sm) const noexcept {
    return response_q_[sm].empty() ? kNoCycle : response_q_[sm].front().arrival;
  }

  /// Contributes network counter tracks and the in-flight gauge to the open
  /// telemetry frame.
  void sample_telemetry(Telemetry& out) const;

  std::uint64_t request_flits() const noexcept { return request_flits_; }
  std::uint64_t response_flits() const noexcept { return response_flits_; }

  // Express-path effectiveness: a send whose port had zero backlog at admit
  // got the closed-form ("express") delivery schedule; one admitted behind
  // other traffic was queued by the bandwidth model. Pure contention
  // properties of the simulated run — identical with and without fast-forward.
  std::uint64_t request_express() const noexcept { return request_express_; }
  std::uint64_t request_queued() const noexcept {
    return request_flits_ - request_express_;
  }
  std::uint64_t response_express() const noexcept { return response_express_; }
  std::uint64_t response_queued() const noexcept {
    return response_flits_ - response_express_;
  }

 private:
  struct TimedRequest {
    Cycle arrival;
    L2Request req;
  };
  struct TimedResponse {
    Cycle arrival;
    L2Response resp;
  };

  std::vector<ThroughputPipe> to_bank_;
  std::vector<ThroughputPipe> to_sm_;
  std::vector<RingQueue<TimedRequest>> request_q_;    // per bank
  std::vector<RingQueue<TimedResponse>> response_q_;  // per SM
  std::uint64_t request_flits_ = 0;
  std::uint64_t response_flits_ = 0;
  std::uint64_t request_express_ = 0;   ///< admits that saw zero port backlog
  std::uint64_t response_express_ = 0;
  std::uint64_t in_flight_ = 0;  ///< packets sent but not yet delivered
};

}  // namespace sttgpu::gpu
