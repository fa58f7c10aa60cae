// Memory request/response types flowing between SMs, the interconnect,
// L2 banks and DRAM channels.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace sttgpu::gpu {

/// One 128-byte memory transaction headed to (or answered by) an L2 bank.
/// A response is routed by sm_id and matched by addr; `tag` carries the
/// issuing SM's per-transaction bits, which the memory side echoes back
/// unread, so the SM keeps no per-transaction table.
struct L2Request {
  Addr addr = 0;          ///< transaction address (128B aligned)
  bool is_store = false;
  std::uint8_t tag = 0;   ///< opaque to the memory side
  unsigned sm_id = 0;
};

struct L2Response {
  Addr addr = 0;
  bool is_store = false;
  std::uint8_t tag = 0;   ///< the request's tag
  unsigned sm_id = 0;
  Cycle ready = 0;        ///< cycle the bank finished the access
};

/// Aggregate statistics every L2 bank implementation reports.
struct L2BankStats {
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_hits = 0;
  std::uint64_t write_misses = 0;
  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writebacks = 0;

  std::uint64_t accesses() const noexcept {
    return read_hits + read_misses + write_hits + write_misses;
  }
  std::uint64_t writes() const noexcept { return write_hits + write_misses; }
  double miss_rate() const noexcept {
    const auto a = accesses();
    return a ? static_cast<double>(read_misses + write_misses) / static_cast<double>(a) : 0.0;
  }
  double write_share() const noexcept {
    const auto a = accesses();
    return a ? static_cast<double>(writes()) / static_cast<double>(a) : 0.0;
  }

  void merge(const L2BankStats& o) noexcept {
    read_hits += o.read_hits;
    read_misses += o.read_misses;
    write_hits += o.write_hits;
    write_misses += o.write_misses;
    dram_reads += o.dram_reads;
    dram_writebacks += o.dram_writebacks;
  }
};

}  // namespace sttgpu::gpu
