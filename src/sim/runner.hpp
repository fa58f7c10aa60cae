// Experiment runner: builds a GPU for an architecture, runs one workload,
// and extracts the metrics the paper's figures plot. Also provides the
// shared Fig. 8 (arch x benchmark) matrix with a persistent result cache so
// the three Fig. 8 bench binaries do not re-simulate the same 80 runs.
//
// Persistence is two-layered. The durable source of truth is the
// crash-safe WAL-backed result store (store/result_store.hpp) living at
// "<cache>.store" next to the CSV: every completed run is appended and
// fsync'd write-through, so a crash — SIGKILL included — in run 79 of 80
// keeps the first 78, and concurrent matrix processes merge through the
// store's file lock. The v2 CSV (header = format version + workload
// `scale` + config fingerprint; stale on any mismatch) remains as the
// human-diffable export, regenerated after the sweep; a pre-existing CSV
// with rows the store lacks is migrated into the store once. Runs fan out
// onto the sim::run_jobs thread pool (executor.hpp); jobs=1 reproduces the
// old strictly sequential behaviour.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gpu/gpu.hpp"
#include "sim/arch.hpp"
#include "sim/supervisor.hpp"
#include "store/record.hpp"
#include "workload/benchmarks.hpp"

namespace sttgpu {
class Telemetry;
}

namespace sttgpu::sim {

struct Metrics {
  std::string arch;
  std::string benchmark;
  double ipc = 0.0;
  std::uint64_t cycles = 0;
  double dynamic_w = 0.0;   ///< L2 dynamic power over the run
  double leakage_w = 0.0;   ///< L2 leakage
  double total_w = 0.0;
  double l2_write_share = 0.0;
  double l2_miss_rate = 0.0;
};

/// Hook type: runs with the live Gpu after simulation, before teardown —
/// used by benches that need bank internals (histograms, utilizations).
using BankInspector = std::function<void(gpu::Gpu&)>;

/// Every run-mode knob of the runner entry points in one place, with named
/// defaults — replaces the old positional (cache_path, jobs, fast_forward,
/// faults, ...) parameter accretion. RunOptions is the single source of
/// truth for these knobs: run_one/run_matrix overwrite the corresponding
/// ArchSpec fields (gpu.fast_forward, gpu.telemetry, *.faults) from it, so
/// pre-mutating a spec for run-mode settings no longer has any effect.
/// C++20 designated initializers keep call sites readable:
///   run_one(spec, w, {.fast_forward = false});
///   run_matrix(archs, {.scale = 0.1, .cache_path = "c.csv", .jobs = 4});
struct RunOptions {
  /// Workload scale in (0, 1] — used by the by-name/matrix entry points
  /// that construct their own benchmarks.
  double scale = 0.5;

  /// Matrix result cache path (CSV export, format v2); the durable
  /// WAL-backed store lives at the derived "<cache>.store" path next to
  /// it. Empty disables caching entirely.
  std::string cache_path{};

  /// Matrix worker threads: 0 = hardware concurrency, 1 = sequential.
  unsigned jobs = 1;

  /// Event-driven stepping in the simulator core (see
  /// GpuConfig::fast_forward). A pure scheduling optimization — results are
  /// identical either way (so it is not part of the cache fingerprint);
  /// `false` runs the plain reference loop the equivalence tests compare
  /// against.
  bool fast_forward = true;

  /// In-simulation fault injection on every bank (sttl2/fault_model.hpp).
  /// Unlike fast_forward it changes results, so its knobs ARE part of the
  /// cache fingerprint: a fault run can never reuse or pollute a baseline
  /// cache (and vice versa).
  sttl2::FaultInjectionConfig faults{};

  /// Interval-telemetry sink (common/telemetry.hpp); not owned, must
  /// outlive the run, one fresh Telemetry per run. Purely observational —
  /// aggregates are byte-identical with or without it. Rejected by
  /// run_matrix (parallel runs would interleave samples into one sink).
  Telemetry* telemetry = nullptr;

  /// Optional hook that sees the finished GPU before teardown.
  BankInspector inspect{};

  // --- run supervision (supervisor.hpp) ---
  // All run-mode only: none of these change simulation results or the cache
  // fingerprint; they only decide whether/when a run is allowed to finish.

  /// Cooperative cancellation token (e.g. installed from a SIGINT handler);
  /// not owned, must outlive the run. The simulator polls it at supervision
  /// points and unwinds with a Cancelled error.
  const CancelToken* cancel = nullptr;

  /// Cycle-count heartbeat published at supervision points (single runs;
  /// run_matrix wires per-job heartbeats itself and rejects this).
  std::atomic<std::uint64_t>* heartbeat = nullptr;

  /// Matrix watchdog: abort a job that makes no forward progress (heartbeat
  /// unchanged) for this many wall-clock seconds. 0 disables.
  double watchdog_s = 0.0;

  /// Matrix per-attempt wall-clock budget in seconds. 0 disables.
  double job_timeout_s = 0.0;

  /// Matrix retry budget per job (transient failures; exponential backoff
  /// with deterministic jitter). 0 = no retries.
  unsigned retries = 0;

  /// Matrix failure policy: quarantine deterministic failures and return
  /// partial results with a failure manifest instead of failing fast.
  bool keep_going = false;

  /// Optional out-param: per-job outcomes of the matrix run (not owned).
  SupervisedResult* report = nullptr;
};

/// Runs @p workload on @p spec under @p opts (opts.scale is ignored here —
/// the workload is already built).
Metrics run_one(const ArchSpec& spec, const workload::Workload& workload,
                const RunOptions& opts = {});

/// Convenience: build + run by ids; the benchmark is built at opts.scale.
Metrics run_one(Architecture arch, const std::string& benchmark,
                const RunOptions& opts = {});

/// Like run_one, but also hands back the full gpu::RunResult (counters,
/// per-category energy, SM stats) for detailed reporting.
Metrics run_one_detailed(const ArchSpec& spec, const workload::Workload& workload,
                         gpu::RunResult& out_run, const RunOptions& opts = {});

/// The Fig. 8 matrix: every benchmark on every listed architecture, run
/// under @p opts (scale, cache_path, jobs, fast_forward, faults). Results
/// are ordered by (arch, benchmark) index regardless of job count; progress
/// lines go to stderr. Throws SimError (naming the failing arch/benchmark)
/// if a run fails, if opts.cache_path is not writable, or if opts sets
/// telemetry/inspect (both are per-run hooks, meaningless across a fanned-
/// out matrix).
std::vector<Metrics> run_matrix(const std::vector<Architecture>& archs,
                                const RunOptions& opts = {});

/// Same, restricted to an explicit benchmark subset (tests, quick sweeps).
std::vector<Metrics> run_matrix(const std::vector<Architecture>& archs,
                                const std::vector<std::string>& benchmarks,
                                const RunOptions& opts = {});

/// Fingerprint of the simulator configuration that cached results depend
/// on: hashes the resolved Table-2 architecture registry (cache geometry,
/// cell parameters, GPU model) and the benchmark suite. Caches whose
/// recorded fingerprint differs are stale and must be discarded.
std::uint64_t config_fingerprint();

/// Fault-aware fingerprint: identical to config_fingerprint() when faults
/// are disabled (so existing caches stay valid) and folds every fault knob
/// in when enabled.
std::uint64_t config_fingerprint(const sttl2::FaultInjectionConfig& faults);

/// Loads a v2 result cache (CSV layer only; run_matrix reads the store).
/// Returns an empty map — with a stderr warning — if the file is not
/// format v2 (e.g. a pre-versioning v1 file) or was written at a different
/// scale / config fingerprint. A missing, empty, or whitespace-only file is
/// simply a cold cache: empty map, no warning. Malformed rows (wrong field
/// count, non-numeric cells) are skipped with a warning instead of
/// corrupting neighbouring values.
std::map<std::pair<std::string, std::string>, Metrics> load_cache(
    const std::string& path, double scale, const sttl2::FaultInjectionConfig& faults = {});

/// Saves @p rows as a v2 cache: header line first, then one CSV row per
/// Metrics, written to a temp file and atomically renamed over @p path.
/// Throws SimError if the path is not writable.
void save_cache(const std::string& path, double scale, const std::vector<Metrics>& rows,
                const sttl2::FaultInjectionConfig& faults = {});

/// Index @p rows by benchmark for one architecture.
std::map<std::string, Metrics> by_benchmark(const std::vector<Metrics>& rows,
                                            const std::string& arch);

/// Metrics <-> store-row conversion (the store schema mirrors Metrics by
/// value, not by type; see store/record.hpp). Shared by the matrix runner
/// and the sweep service so both persist identical bytes.
store::ResultRow to_store_row(const Metrics& m);
Metrics from_store_row(const store::ResultRow& r);

}  // namespace sttgpu::sim
