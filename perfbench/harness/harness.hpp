// Shared declarations of the benchmark harness: run context, the outcome a
// run reports, the four workloads and the per-layer probes of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gpu/gpu.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"
#include "util.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Everything a run needs that does not change while it runs.
struct Ctx {
  std::string work;        ///< scratch directory of this run
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< length of the timed phase
  unsigned jobs = 4;       ///< matrix/worker threads: min(4, nproc)
  Golden golden;           ///< perfbench/goldens.txt
  std::string fig8_csv;    ///< bytes of the checked-in fig8_cache.csv
  std::vector<sttgpu::sim::Metrics> fig8_rows;  ///< its 80 rows
  std::uint64_t fingerprint = 0;                ///< sim::config_fingerprint()
};

/// What a run reports: operations attempted/failed, named metrics, and
/// human-readable notes printed before the machine-readable result.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> notes;
  Golden observed;  ///< every golden-checked value seen (for --emit-goldens)
  std::vector<double> samples;  ///< host seconds of each timed unit operation

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
  /// One checked operation: @p obs (keys under @p prefix) must equal the
  /// golden values; any mismatch fails the operation once.
  void check(const Golden& golden, const std::string& op, const Golden& obs,
             const std::string& prefix) {
    ++attempted;
    observed.insert(obs.begin(), obs.end());
    const std::vector<std::string> bad = compare_golden(golden, obs, prefix);
    if (!bad.empty()) fail(op + ": " + bad.front());
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

/// One detailed simulation and the host time it took.
struct GpuSample {
  sttgpu::gpu::RunResult run;
  double host_s = 0.0;
};

/// What one timed phase of a workload measured.
struct Phase {
  double wall_s = 0.0;               ///< the wall_s metric (defined per workload)
  double peak_rss_mb = 0.0;          ///< the peak_rss_mb metric (defined per workload)
  std::vector<double> op_s;          ///< host seconds of each unit operation
  std::vector<GpuSample> gpu;        ///< detailed simulations run in the phase
  double elapsed_s = 0.0;
  std::uint64_t ops = 0;
};

/// A benchmark workload: set-up (repeatable, untimed) and a timed phase.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Prepares inputs; a later call replaces what an earlier one built.
  virtual void setup(const Ctx& ctx, Outcome& out) = 0;
  /// Releases what setup() built (untimed, between repeated set-ups).
  virtual void teardown() {}
  /// Runs unit operations for at least @p seconds (and at least one),
  /// checking every output against its golden value.
  virtual Phase measure(const Ctx& ctx, double seconds, Outcome& out) = 0;
  /// Adds workload-specific notes and traced-run metrics after measuring.
  virtual void report(Outcome& out, bool traced) = 0;
  /// How many set-ups to time for setup_s, at least (the median is
  /// reported); light set-ups repeat until setup_min_s() has passed too, so
  /// the median spans more than a momentary host state.
  virtual unsigned setup_reps() const { return 3; }
  virtual double setup_min_s() const { return 0.0; }
};

std::unique_ptr<Workload> make_workload(const std::string& name);

/// Closed-loop sweep-service session shared by the serve-mixed workload and
/// the serve probe of every traced run.
struct ServeResult {
  std::vector<double> hit_ms, miss_ms;
  std::uint64_t completed = 0;
  double elapsed_s = 0.0;
  double per_submission_s = 0.0;  ///< mean seconds a client spent per completed submission
  std::vector<GpuSample> golden_sims;  ///< in-process reruns of the misses
  /// SweepServer::stats() counters added by this session's loop.
  std::uint64_t store_hits = 0, tasks_simulated = 0, shed = 0, child_crashes = 0,
                task_retries = 0;
};

class ServeSession {
 public:
  ServeSession(const Ctx& ctx, std::string dir);
  ~ServeSession();
  ServeSession(const ServeSession&) = delete;
  ServeSession& operator=(const ServeSession&) = delete;

  /// Runs two closed-loop clients for @p seconds, then verifies every
  /// result row outside the timed window.
  ServeResult run(double seconds, std::uint64_t seed, Outcome& out);
  /// serve::Client::request of a lone hit submission, @p n times (ms each).
  std::vector<double> ack_ms(unsigned n, Outcome& out);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Runs the per-layer probes of a traced run and adds their metrics.
/// @p phase is the workload's own traced phase; @p serve the serve-mixed
/// session result when the workload is serve-mixed (else the probe runs a
/// short session of its own); @p matrix_wall_s the traced cold-matrix wall
/// when the workload is fig8-cold (else the probe runs one).
void run_probes(const Ctx& ctx, const Phase& phase,
                const ServeResult* serve, double matrix_wall_s, Outcome& out);

/// The cycle-dense (C1/bfs, sram/bfs, C1/mum at scale 0.5) and drain-heavy
/// simulations and the C1 replay of a recorded sram/bfs L2 trace, each
/// checked against goldens.txt; adds their gpu.*_sim_cycles_per_s, sttl2.*
/// and sim.trace_load_ms metrics. Part of run_probes, and what
/// --emit-goldens reruns.
void probe_kernels(const Ctx& ctx, Outcome& out);

/// Adds the serve latency metrics (names prefixed by @p prefix).
void report_serve(const ServeResult& r, const std::string& prefix, Outcome& out);

/// Golden view of a detailed simulation: cycles, instructions, L1/L2/DRAM
/// counters and the implementation counters, keyed "<prefix>.<name>".
Golden observe_run(const std::string& prefix, const sttgpu::gpu::RunResult& r);

/// Golden view of a trace replay's bank statistics and counters.
Golden observe_replay(const std::string& prefix, const sttgpu::sim::ReplayResult& r);

/// The serve-mixed session result of @p w, or null for other workloads.
const ServeResult* serve_result_of(const Workload& w);

/// Peak resident memory of this process (VmHWM) in MB.
double peak_rss_mb();
/// Restarts the peak-resident-memory mark (best effort: where the kernel
/// refuses, peak_rss_mb() keeps reporting the process-lifetime peak).
void reset_peak_rss();

/// The bytes of the file at @p path; throws when it cannot be read.
std::string read_file(const std::string& path);

/// Removes and recreates @p dir.
void fresh_dir(const std::string& dir);

}  // namespace perfbench
