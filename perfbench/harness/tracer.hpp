// Span recorder for the traced benchmark run. The harness opens a span
// around each call it makes into a layer's public functions (the span name's
// prefix before the first '.' is the layer); spans stay in memory and are
// written out once at the end. With tracing off a Span costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  double start_s = 0.0;  ///< seconds since the tracer's epoch
  double end_s = 0.0;
  std::int64_t parent = -1;   ///< index of the enclosing span on this thread
  std::uint64_t sub_id = 0;   ///< sweep-service submission id (0 = none)
  std::uint32_t thread = 0;   ///< small per-thread ordinal
};

class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread; returns its index.
  std::size_t open(std::string name, std::uint64_t sub_id);
  void close(std::size_t index);
  /// Attaches a submission id to an open span (known only after the ack).
  void set_sub_id(std::size_t index, std::uint64_t sub_id);

  std::vector<SpanRecord> spans() const;
  void write_json(std::ostream& os) const;

 private:
  Tracer() = default;
  double now() const;

  bool enabled_ = false;
  const std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t sub_id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  void set_sub_id(std::uint64_t sub_id);

 private:
  std::int64_t index_ = -1;
};

/// Self time per layer: each span's duration minus the part of it that its
/// child spans cover, summed by layer (the name up to the first '.').
std::map<std::string, double> layer_self_seconds(const std::vector<SpanRecord>& spans);

}  // namespace perfbench
