// sttgpu — command-line front end to the simulator.
//
//   sttgpu list
//       Print the available architectures and benchmark models.
//
//   sttgpu run arch=C1 benchmark=bfs [scale=0.5] [json=out.json]
//       Simulate one (architecture, benchmark) pair; print the metrics and
//       the bank counters; optionally dump the full result as JSON.
//
//   sttgpu matrix [scale=0.5] [cache=fig8_cache.csv] [jobs=N] [json=matrix.json]
//       Run the full Fig. 8 matrix and print/export it. Runs fan out over
//       `jobs` worker threads (default: all hardware threads; jobs=1 is
//       strictly sequential) with deterministic output ordering. Results
//       persist write-through to the cache (format v2, scale- and
//       config-fingerprinted), so an interrupted matrix resumes.
//       Supervision knobs (all run-mode only, results are unaffected):
//         watchdog=<s>     abort a job with no forward progress for s seconds
//         job_timeout=<s>  per-job wall-clock budget
//         retry=<n>        extra attempts for transiently failing jobs
//         keep_going=1     quarantine failures, print a manifest, return the
//                          partial matrix instead of failing fast
//
//   sttgpu store <fsck|compact|stats> [store=fig8_cache.store]
//       Maintain the crash-safe WAL result store that shadows the matrix
//       cache. `fsck` opens the store (recovering a torn tail, quarantining
//       corruption) and reports; it exits 5 while the quarantine sidecar is
//       non-empty — inspect and delete "<store>.quarantine" to acknowledge.
//       `compact` rewrites the log down to live records; `stats` prints the
//       index/log/quarantine summary.
//
//   sttgpu serve [socket=sttgpu.sock] [port=<tcp>] [cache=fig8_cache.csv]
//               [jobs=N] [watchdog=<s>] [job_timeout=<s>] [retry=<n>]
//               [sandbox=1] [mem_limit=<MiB>] [max_queue=N] [read_deadline=<s>]
//       Run the sweep-service daemon: submissions from the client verbs
//       below are deduplicated against the result store and against each
//       other before anything simulates, misses run on a supervised worker
//       pool, and the CSV export is kept byte-identical to a direct matrix
//       run. With sandbox=1 (default) each simulation runs in a forked child
//       — a crash, OOM (against mem_limit=) or wedge is reaped and retried/
//       reported without taking the daemon down. Submissions that would push
//       the queue past max_queue= are shed with a structured "overloaded"
//       error carrying a retry_after_ms hint; connections that send no
//       request within read_deadline= seconds are dropped. Acknowledged
//       submissions are journaled next to the store ("<cache>.journal") and
//       replayed after a crash — even SIGKILL loses no accepted work.
//       SIGINT/SIGTERM drains gracefully (in-flight work finishes and is
//       persisted) and exits 0.
//
//   sttgpu submit [socket=...] [archs=C1,C2] [benchmarks=bfs] [scale=0.5]
//                 [wait=1] [json=out.json] [<run knobs>...]
//   sttgpu status [socket=...] [id=N]
//   sttgpu watch  [socket=...] id=N
//   sttgpu cancel [socket=...] id=N
//   sttgpu result [socket=...] [id=N | arch=C1 benchmark=bfs scale=0.5]
//   sttgpu health [socket=...]
//       Clients of a running `sttgpu serve`. submit sends a matrix slice
//       (wait=1 blocks, streams progress, and prints the result table) and
//       retries with jittered backoff when the server sheds it as
//       overloaded; watch streams a submission's NDJSON events; result
//       fetches stored rows — by-key output is byte-identical to the metrics
//       block of the equivalent direct `sttgpu run`; health prints uptime,
//       queue depth, and the shed/retry/child-kill/journal counters.
//
// Exit codes (common/exit_codes.hpp):
//   0  success
//   1  simulation/setup error
//   2  usage error (unknown command or knob)
//   3  interrupted (SIGINT/SIGTERM) — completed rows are cached; rerun with
//      the same cache= to resume
//   4  a job was killed by the watchdog or per-job timeout
//   5  store fsck: quarantined data awaiting acknowledgement
//   6  serve: cannot bind/listen on the requested socket or port
//   7  client/server protocol version mismatch
//   8  submission shed by admission control (retries exhausted)
//   9  serve: the submission journal is unusable
//
//   sttgpu record arch=sram benchmark=bfs trace=bfs.trace [scale=0.5]
//       Run once and capture the L2 demand stream to a CSV trace.
//
//   sttgpu replay trace=bfs.trace arch=C1
//       Drive the chosen architecture's L2 banks from a trace (no GPU) and
//       print the resulting cache statistics — fast architecture sweeps.
//
//   sttgpu help
//       Print the full knob reference (generated from the registry) to
//       stdout and exit 0.
//
// Every knob each subcommand accepts is declared once in sim/knobs.hpp;
// parsing, typo/type rejection, defaults, and the usage text all come from
// that registry. run/record accept telemetry knobs:
//   telemetry=1        sample per-interval counters during the run
//   interval=<cycles>  sampling window (default 50000)
//   trace_out=<path>   Chrome trace-event JSON (load in ui.perfetto.dev)
//   telemetry_csv=<p>  interval series as CSV
#include <chrono>
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "common/atomic_file.hpp"
#include "common/cancel.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/exit_codes.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "common/telemetry.hpp"
#include "serve/client.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/executor.hpp"
#include "sim/knobs.hpp"
#include "sim/probe.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "sim/trace.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"

namespace {

using namespace sttgpu;

/// Process-wide cancellation source, flipped by SIGINT/SIGTERM. Every
/// command that simulates passes it down; the Gpu cycle loop observes it at
/// supervision points and unwinds with Cancelled, so sinks finalize and
/// completed matrix rows stay cached.
CancelToken g_cancel;

void on_terminate_signal(int /*sig*/) { g_cancel.request(CancelReason::kUser); }

void install_signal_handlers() {
  std::signal(SIGINT, on_terminate_signal);
  std::signal(SIGTERM, on_terminate_signal);
}

/// Builds the telemetry sink requested by the telemetry=/interval= knobs;
/// nullptr (disabled, the default) leaves every output byte-identical.
/// A trace_out=/telemetry_csv= path implies telemetry=1.
std::unique_ptr<Telemetry> telemetry_from(const Config& cfg, sim::KnobCommand cmd) {
  const bool wants_export = !sim::knob_string(cfg, cmd, "trace_out").empty() ||
                            !sim::knob_string(cfg, cmd, "telemetry_csv").empty();
  if (!sim::knob_bool(cfg, cmd, "telemetry") && !wants_export) return nullptr;
  const std::int64_t interval = sim::knob_int(cfg, cmd, "interval");
  STTGPU_REQUIRE(interval > 0, "interval= must be a positive cycle count");
  return std::make_unique<Telemetry>(static_cast<Cycle>(interval));
}

/// Writes the trace_out=/telemetry_csv= exports, if requested.
void export_telemetry(const Config& cfg, sim::KnobCommand cmd, const Telemetry& tel) {
  // atomic_write_file: an interrupt or crash racing the export never leaves
  // a torn half-written artifact — either the old file or the complete one.
  const std::string trace_out = sim::knob_string(cfg, cmd, "trace_out");
  if (!trace_out.empty()) {
    atomic_write_file(trace_out, [&tel](std::ostream& out) {
      tel.write_chrome_trace(out);
      out << "\n";
    });
    std::cout << "  trace      " << trace_out << " (" << tel.frame_count()
              << " intervals; load in ui.perfetto.dev)\n";
  }
  const std::string csv = sim::knob_string(cfg, cmd, "telemetry_csv");
  if (!csv.empty()) {
    atomic_write_file(csv, [&tel](std::ostream& out) { tel.write_csv(out); });
    std::cout << "  telemetry  " << csv << " (" << tel.track_count() << " tracks x "
              << tel.frame_count() << " intervals)\n";
  }
}

int cmd_list() {
  std::cout << "architectures:\n";
  for (const auto arch : sim::all_architectures()) {
    const sim::ArchSpec spec = sim::make_arch(arch);
    std::cout << "  " << spec.name << "  L2 " << spec.l2_total_bytes() / 1024 << "KB"
              << (spec.two_part ? " (two-part)" : " (uniform)") << ", "
              << spec.gpu.registers_per_sm << " regs/SM\n";
  }
  std::cout << "\nbenchmarks:\n";
  for (const auto& name : workload::benchmark_names()) {
    const workload::Workload w = workload::make_benchmark(name);
    std::cout << "  " << name << "  (region " << w.region << ", "
              << w.total_instructions() / 1000 << "k warp instructions)\n";
  }
  return 0;
}

int cmd_run(const Config& cfg) {
  constexpr auto kCmd = sim::kKnobRun;
  sim::validate_knobs(cfg, kCmd, "run");
  const std::string arch_name = sim::knob_string(cfg, kCmd, "arch");
  const std::string benchmark = sim::knob_string(cfg, kCmd, "benchmark");
  const double scale = sim::knob_double(cfg, kCmd, "scale");
  const std::unique_ptr<Telemetry> tel = telemetry_from(cfg, kCmd);

  sim::RunOptions opts;
  opts.fast_forward = sim::knob_bool(cfg, kCmd, "fastforward");
  opts.faults = sim::fault_knobs(cfg, kCmd);
  opts.telemetry = tel.get();
  opts.cancel = &g_cancel;
  sim::FaultSummary fault_summary;
  opts.inspect = [&fault_summary](gpu::Gpu& g) {
    fault_summary = sim::collect_fault_summary(g);
  };

  const sim::ArchSpec spec = sim::make_arch(sim::architecture_from_string(arch_name));
  const workload::Workload w = workload::make_benchmark(benchmark, scale);
  gpu::RunResult run;
  sim::Metrics m;
  try {
    m = sim::run_one_detailed(spec, w, run, opts);
  } catch (const Cancelled& c) {
    // Finalize what exists before unwinding: the partial telemetry is valid
    // (complete intervals only) and a requested JSON becomes a small valid
    // document recording the interruption instead of a missing/torn file.
    if (tel) export_telemetry(cfg, kCmd, *tel);
    if (cfg.has("json")) {
      atomic_write_file(sim::knob_string(cfg, kCmd, "json"), [&c](std::ostream& out) {
        out << "{\"interrupted\": true, \"reason\": \"" << cancel_reason_name(c.reason())
            << "\"}\n";
      });
    }
    throw;
  }

  // Shared with `sttgpu result`: a row fetched from the sweep service
  // prints byte-identically to this direct run.
  sim::print_metrics_block(std::cout, m, scale);
  if (!run.l2_counters.all().empty()) {
    std::cout << "  counters:\n";
    for (const auto& [name, value] : run.l2_counters.all()) {
      std::cout << "    " << name << " = " << value << "\n";
    }
  }
  if (fault_summary.enabled) {
    std::cout << "  faults (seed " << opts.faults.seed << ", accel " << opts.faults.accel
              << ", ecc " << (opts.faults.ecc ? "on" : "off") << "):\n"
              << "    lifetime trials     " << fault_summary.trials << "\n"
              << "    injected collapses  " << fault_summary.collapses << "\n"
              << "    expected collapses  " << fault_summary.expected << "\n";
    if (fault_summary.has_prediction()) {
      std::cout << "    predicted (analytic " << fault_summary.predicted
                << " via analyze_reliability)\n";
    } else {
      std::cout << "    predicted (analytic n/a: effective spec margin "
                << fault_summary.effective_spec_margin
                << " < 1, outside analyze_reliability's domain)\n";
    }
    std::cout << "    ecc corrected " << fault_summary.ecc_corrected << ", detected "
              << fault_summary.ecc_detected << ", clean refetch "
              << fault_summary.clean_refetch << ", data loss "
              << fault_summary.data_loss << "\n"
              << "    write-verify retries " << fault_summary.wv_retries
              << ", escalations " << fault_summary.wv_escalations << "\n";
  }
  if (tel) export_telemetry(cfg, kCmd, *tel);

  if (cfg.has("json")) {
    atomic_write_file(sim::knob_string(cfg, kCmd, "json"), [&](std::ostream& out) {
      sim::write_run_json(out, m, run, fault_summary.enabled ? &fault_summary : nullptr,
                          tel.get());
      out << "\n";
    });
  }
  return kExitOk;
}

int cmd_matrix(const Config& cfg) {
  constexpr auto kCmd = sim::kKnobMatrix;
  sim::validate_knobs(cfg, kCmd, "matrix");
  sim::RunOptions opts;
  opts.scale = sim::knob_double(cfg, kCmd, "scale");
  opts.cache_path = sim::knob_string(cfg, kCmd, "cache");
  opts.jobs = sim::resolve_jobs(sim::knob_int(cfg, kCmd, "jobs"));
  opts.fast_forward = sim::knob_bool(cfg, kCmd, "fastforward");
  opts.faults = sim::fault_knobs(cfg, kCmd);
  opts.cancel = &g_cancel;
  opts.watchdog_s = sim::knob_double(cfg, kCmd, "watchdog");
  opts.job_timeout_s = sim::knob_double(cfg, kCmd, "job_timeout");
  STTGPU_REQUIRE(opts.watchdog_s >= 0.0, "watchdog= must be >= 0 seconds");
  STTGPU_REQUIRE(opts.job_timeout_s >= 0.0, "job_timeout= must be >= 0 seconds");
  const std::int64_t retries = sim::knob_int(cfg, kCmd, "retry");
  STTGPU_REQUIRE(retries >= 0, "retry= must be >= 0");
  opts.retries = static_cast<unsigned>(retries);
  opts.keep_going = sim::knob_bool(cfg, kCmd, "keep_going");
  sim::SupervisedResult report;
  opts.report = &report;
  const auto rows = sim::run_matrix(sim::all_architectures(), opts);

  TextTable table({"arch", "benchmark", "IPC", "dyn W", "total W"});
  for (const auto& m : rows) {
    table.add_row({m.arch, m.benchmark, TextTable::fmt(m.ipc, 3),
                   TextTable::fmt(m.dynamic_w, 3), TextTable::fmt(m.total_w, 3)});
  }
  table.print(std::cout);

  if (cfg.has("json")) {
    atomic_write_file(sim::knob_string(cfg, kCmd, "json"), [&rows](std::ostream& out) {
      sim::write_matrix_json(out, rows);
      out << "\n";
    });
  }
  // keep_going quarantines failures instead of throwing: the table/JSON
  // above hold the partial matrix, the manifest already went to stderr —
  // still exit non-zero so scripts notice the sweep is incomplete.
  if (!report.all_ok()) {
    if (report.count(sim::JobStatus::kWatchdog) > 0 ||
        report.count(sim::JobStatus::kTimeout) > 0) {
      return kExitWatchdog;
    }
    return kExitError;
  }
  return kExitOk;
}

int cmd_record(const Config& cfg) {
  constexpr auto kCmd = sim::kKnobRecord;
  sim::validate_knobs(cfg, kCmd, "record");
  const sim::ArchSpec spec =
      sim::make_arch(sim::architecture_from_string(sim::knob_string(cfg, kCmd, "arch")));
  const workload::Workload w = workload::make_benchmark(
      sim::knob_string(cfg, kCmd, "benchmark"), sim::knob_double(cfg, kCmd, "scale"));
  const std::string path = sim::knob_string(cfg, kCmd, "trace");
  const std::unique_ptr<Telemetry> tel = telemetry_from(cfg, kCmd);

  sim::RunOptions opts;
  opts.fast_forward = sim::knob_bool(cfg, kCmd, "fastforward");
  opts.telemetry = tel.get();
  opts.cancel = &g_cancel;
  const sim::Metrics m = sim::record_trace(spec, w, path, opts);
  std::cout << "recorded " << path << " (ipc " << m.ipc << ", "
            << m.l2_write_share * 100 << "% writes)\n";
  if (tel) export_telemetry(cfg, kCmd, *tel);
  return kExitOk;
}

int cmd_replay(const Config& cfg) {
  constexpr auto kCmd = sim::kKnobReplay;
  sim::validate_knobs(cfg, kCmd, "replay");
  const auto records = sim::load_trace(sim::knob_string(cfg, kCmd, "trace"));
  const sim::ArchSpec spec =
      sim::make_arch(sim::architecture_from_string(sim::knob_string(cfg, kCmd, "arch")));
  const sim::ReplayResult r =
      spec.two_part ? sim::replay_trace(records, spec.two_part_cfg, spec.gpu)
                    : sim::replay_trace(records, spec.uniform, spec.gpu);
  std::cout << "replayed " << records.size() << " requests on " << spec.name << "\n"
            << "  miss rate   " << r.stats.miss_rate() * 100 << "%\n"
            << "  write share " << r.stats.write_share() * 100 << "%\n"
            << "  dram reads  " << r.stats.dram_reads << ", writebacks "
            << r.stats.dram_writebacks << "\n"
            << "  dyn energy  " << r.dynamic_energy_pj * 1e-6 << " uJ, leakage "
            << r.leakage_w << " W\n";
  for (const auto& [name, value] : r.counters.all()) {
    std::cout << "  " << name << " = " << value << "\n";
  }
  return 0;
}

/// Prints the shared stats block of `store fsck` / `store stats`.
void print_store_stats(const std::string& path, const store::StoreStats& s) {
  std::cout << path << ":\n"
            << "  live rows    " << s.live_rows << " (" << s.groups << " group"
            << (s.groups == 1 ? "" : "s") << " of fingerprint x scale)\n"
            << "  log          " << s.file_bytes << " bytes, " << s.applied_records
            << " record" << (s.applied_records == 1 ? "" : "s") << " (" << s.dead_records
            << " dead)\n";
  if (s.repaired_torn_bytes > 0) {
    std::cout << "  repaired     torn tail of " << s.repaired_torn_bytes
              << " bytes truncated (interrupted append)\n";
  }
  if (s.quarantined_new_incidents > 0) {
    std::cout << "  quarantined  " << s.quarantined_new_incidents << " new corrupt range"
              << (s.quarantined_new_incidents == 1 ? "" : "s") << " ("
              << s.quarantined_new_bytes << " bytes) this pass\n";
  }
  if (s.quarantine_incidents > 0) {
    std::cout << "  quarantine   " << s.quarantine_incidents << " incident"
              << (s.quarantine_incidents == 1 ? "" : "s") << ", " << s.quarantine_bytes
              << " bytes preserved in "
              << store::ResultStore::quarantine_path_for(path) << "\n";
  }
}

/// Exit-code mapping for fsck/stats: 5 while the quarantine sidecar holds
/// unacknowledged data, 0 otherwise.
int store_exit(const std::string& path, const store::FsckReport& r) {
  if (r.healthy()) return kExitOk;
  std::cout << "store holds quarantined data; inspect and delete "
            << store::ResultStore::quarantine_path_for(path)
            << " to acknowledge (affected rows re-simulate on the next matrix run)\n";
  return kExitQuarantine;
}

int cmd_store(const std::string& verb, const Config& cfg) {
  constexpr auto kCmd = sim::kKnobStore;
  sim::validate_knobs(cfg, kCmd, "store");
  const std::string path = sim::knob_string(cfg, kCmd, "store");
  store::StoreOptions so;
  so.log = [](const std::string& line) { sim::log_line(line); };
  so.cancel = &g_cancel;

  if (verb == "fsck" || verb == "stats") {
    // Opening the store IS the recovery pass: fsck and stats differ only in
    // how a missing file is reported.
    const store::FsckReport r = store::ResultStore::fsck(path, so);
    if (!r.present) {
      std::cout << path << ": no store file (cold — the next matrix run creates it)\n";
      return verb == "fsck" ? store_exit(path, r) : kExitOk;
    }
    print_store_stats(path, r.stats);
    if (verb == "fsck" && r.healthy()) std::cout << "  clean\n";
    return verb == "fsck" ? store_exit(path, r) : kExitOk;
  }
  if (verb == "compact") {
    std::ifstream probe(path);
    STTGPU_REQUIRE(static_cast<bool>(probe),
                   "store: no store file at " + path + " — nothing to compact");
    store::ResultStore db(path, so);
    db.compact();
    print_store_stats(path, db.stats());
    return kExitOk;
  }
  std::cerr << "unknown store verb '" << verb << "' (expected fsck, compact or stats)\n";
  return kExitUsage;
}

// --- sweep-service verbs ---------------------------------------------------

int cmd_serve(const Config& cfg) {
  constexpr auto kCmd = sim::kKnobServe;
  sim::validate_knobs(cfg, kCmd, "serve");
  serve::ServerOptions so;
  so.socket_path = sim::knob_string(cfg, kCmd, "socket");
  so.tcp_port = static_cast<int>(sim::knob_int(cfg, kCmd, "port"));
  so.cache_path = sim::knob_string(cfg, kCmd, "cache");
  so.jobs = sim::resolve_jobs(sim::knob_int(cfg, kCmd, "jobs"));
  so.watchdog_s = sim::knob_double(cfg, kCmd, "watchdog");
  so.job_timeout_s = sim::knob_double(cfg, kCmd, "job_timeout");
  STTGPU_REQUIRE(so.watchdog_s >= 0.0, "watchdog= must be >= 0 seconds");
  STTGPU_REQUIRE(so.job_timeout_s >= 0.0, "job_timeout= must be >= 0 seconds");
  const std::int64_t retries = sim::knob_int(cfg, kCmd, "retry");
  STTGPU_REQUIRE(retries >= 0, "retry= must be >= 0");
  so.retries = static_cast<unsigned>(retries);
  so.sandbox = sim::knob_bool(cfg, kCmd, "sandbox");
  const std::int64_t mem_limit = sim::knob_int(cfg, kCmd, "mem_limit");
  STTGPU_REQUIRE(mem_limit >= 0, "mem_limit= must be >= 0 MiB");
  so.mem_limit_bytes = static_cast<std::uint64_t>(mem_limit) << 20;
  const std::int64_t max_queue = sim::knob_int(cfg, kCmd, "max_queue");
  STTGPU_REQUIRE(max_queue >= 0, "max_queue= must be >= 0");
  so.max_queue = static_cast<std::size_t>(max_queue);
  so.read_deadline_s = sim::knob_double(cfg, kCmd, "read_deadline");
  STTGPU_REQUIRE(so.read_deadline_s >= 0.0, "read_deadline= must be >= 0 seconds");
  so.log = [](const std::string& line) { sim::log_line(line); };

  serve::SweepServer server(std::move(so));
  server.start();
  // Serve until SIGINT/SIGTERM, then drain gracefully: in-flight and queued
  // work finishes and persists, the final CSV export is published, and the
  // store is left fsck-clean — so the signal exit is a success (0), not the
  // resumable-interrupt code a torn matrix run reports.
  while (!g_cancel.requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  sim::log_line("[serve] " + std::string(cancel_reason_name(g_cancel.reason())) +
                " interrupt — draining");
  server.stop();
  return kExitOk;
}

/// Builds the {"protocol_version":..,"verb":..,"id":..,"options":{...}}
/// request envelope. Transport/client-only knobs never go on the wire.
std::string client_request(const std::string& verb, const Config& cfg,
                           std::int64_t id = 0) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.key("protocol_version").value(serve::kProtocolVersion);
  w.key("verb").value(verb);
  if (id > 0) w.key("id").value(static_cast<std::int64_t>(id));
  w.key("options").begin_object();
  for (const auto& [key, value] : cfg.all()) {
    if (key == "socket" || key == "port" || key == "wait" || key == "json" ||
        key == "id") {
      continue;
    }
    // Values travel as the raw key=value text the user typed; the server
    // re-parses them through the same knob registry as argv.
    w.key(key).value(value);
  }
  w.end_object();
  w.end_object();
  return os.str();
}

serve::Client client_connect(const Config& cfg, sim::KnobCommand cmd) {
  return serve::Client::connect(sim::knob_string(cfg, cmd, "socket"),
                                static_cast<int>(sim::knob_int(cfg, cmd, "port")));
}

/// Decodes the "rows" array of a result/submit response (store "put ..."
/// payload lines) back into Metrics, exactly as the store itself would.
std::vector<sim::Metrics> rows_from_response(const JsonValue& response) {
  std::vector<sim::Metrics> rows;
  const JsonValue* arr = response.find("rows");
  if (arr == nullptr) return rows;
  for (std::size_t i = 0; i < arr->size(); ++i) {
    const auto rec = store::decode_put(arr->at(i).as_string());
    STTGPU_REQUIRE(rec.has_value(), "server sent an undecodable result row");
    rows.push_back(sim::from_store_row(rec->row));
  }
  return rows;
}

void print_rows_table(const std::vector<sim::Metrics>& rows) {
  TextTable table({"arch", "benchmark", "IPC", "dyn W", "total W"});
  for (const auto& m : rows) {
    table.add_row({m.arch, m.benchmark, TextTable::fmt(m.ipc, 3),
                   TextTable::fmt(m.dynamic_w, 3), TextTable::fmt(m.total_w, 3)});
  }
  table.print(std::cout);
}

/// Follows a submission's event stream, narrating progress to stderr.
/// Returns the terminal "complete" event.
JsonValue follow(const Config& cfg, sim::KnobCommand cmd, std::int64_t id) {
  serve::Client watcher = client_connect(cfg, cmd);
  Config watch_cfg;  // watch carries no options, just the id
  return watcher.stream(client_request("watch", watch_cfg, id),
                        [](const std::string&, const JsonValue& ev) {
    const std::string kind = ev.at("event").as_string();
    if (kind == "start" || kind == "done" || kind == "failed") {
      std::string line = "[serve] " + kind + " " + ev.at("arch").as_string() + "/" +
                         ev.at("benchmark").as_string();
      const JsonValue* status = ev.find("status");
      if (status != nullptr && status->as_string() != "ok") {
        line += " (" + status->as_string() + ")";
      }
      sim::log_line(line);
    }
  });
}

/// Sends the submit request, honoring the server's admission control: an
/// "overloaded" refusal is retried with the server's retry_after_ms hint
/// plus client-side jitter (so a herd of shed clients doesn't re-arrive in
/// lockstep). Throws the final Overloaded when the retry budget runs out.
JsonValue submit_with_backoff(const Config& cfg, sim::KnobCommand cmd) {
  constexpr int kMaxOverloadRetries = 8;
  std::mt19937 rng{std::random_device{}()};
  std::uniform_real_distribution<double> jitter(0.0, 0.5);
  for (int attempt = 0;; ++attempt) {
    serve::Client client = client_connect(cfg, cmd);
    try {
      return client.request(client_request("submit", cfg));
    } catch (const serve::Overloaded& e) {
      if (attempt >= kMaxOverloadRetries) throw;
      const double ms = static_cast<double>(e.retry_after_ms()) * (1.0 + jitter(rng));
      std::cerr << "server overloaded; retrying in " << static_cast<std::int64_t>(ms)
                << "ms (attempt " << attempt + 1 << "/" << kMaxOverloadRetries << ")\n";
      std::this_thread::sleep_for(
          std::chrono::milliseconds(static_cast<std::int64_t>(ms)));
    }
  }
}

int cmd_submit(const Config& cfg) {
  constexpr auto kCmd = sim::kKnobSubmit;
  sim::validate_knobs(cfg, kCmd, "submit");
  const JsonValue response = submit_with_backoff(cfg, kCmd);
  const std::int64_t id = response.at("id").as_int();
  std::cout << "submitted " << id << ": " << response.at("total").as_int()
            << " configs, " << response.at("hits").as_int() << " store hits, "
            << response.at("scheduled").as_int() << " scheduled, "
            << response.at("attached").as_int() << " attached\n";
  if (!sim::knob_bool(cfg, kCmd, "wait")) return kExitOk;

  const JsonValue final_event = follow(cfg, kCmd, id);
  serve::Client fetcher = client_connect(cfg, kCmd);
  Config result_cfg;
  const JsonValue result = fetcher.request(client_request("result", result_cfg, id));
  const std::vector<sim::Metrics> rows = rows_from_response(result);
  print_rows_table(rows);
  if (cfg.has("json")) {
    atomic_write_file(sim::knob_string(cfg, kCmd, "json"), [&rows](std::ostream& out) {
      sim::write_matrix_json(out, rows);
      out << "\n";
    });
  }
  const std::string state = final_event.at("state").as_string();
  if (state == "complete") return kExitOk;
  std::cerr << "submission " << id << " " << state << " ("
            << final_event.at("failed").as_int() << " of "
            << final_event.at("total").as_int() << " configs failed)\n";
  return state == "cancelled" ? kExitInterrupted : kExitError;
}

int cmd_status(const Config& cfg) {
  constexpr auto kCmd = sim::kKnobStatus;
  sim::validate_knobs(cfg, kCmd, "status");
  const std::int64_t id = sim::knob_int(cfg, kCmd, "id");
  serve::Client client = client_connect(cfg, kCmd);
  Config empty;
  const JsonValue response = client.request(client_request("status", empty, id));
  if (id == 0) {
    const JsonValue& s = response.at("server");
    std::cout << "server:\n"
              << "  submissions     " << s.at("submissions").as_int() << "\n"
              << "  simulated       " << s.at("tasks_simulated").as_int() << " task"
              << (s.at("tasks_simulated").as_int() == 1 ? "" : "s") << " ("
              << s.at("tasks_failed").as_int() << " failed)\n"
              << "  store hits      " << s.at("store_hits").as_int() << " (+"
              << s.at("attached").as_int() << " attached to in-flight tasks)\n"
              << "  store rows      " << s.at("store_rows").as_int() << " ("
              << s.at("merged_rows").as_int() << " merged from other writers)\n"
              << "  queue           " << s.at("queued").as_int() << " waiting, "
              << s.at("workers").as_int() << " worker"
              << (s.at("workers").as_int() == 1 ? "" : "s") << "\n";
    return kExitOk;
  }
  std::cout << "submission " << response.at("id").as_int() << ": "
            << response.at("state").as_string() << " ("
            << response.at("hits").as_int() << " hits, "
            << response.at("simulated").as_int() << " simulated, "
            << response.at("failed").as_int() << " failed, "
            << response.at("pending").as_int() << " pending of "
            << response.at("total").as_int() << ")\n";
  return kExitOk;
}

int cmd_watch(const Config& cfg) {
  constexpr auto kCmd = sim::kKnobWatch;
  sim::validate_knobs(cfg, kCmd, "watch");
  const std::int64_t id = sim::knob_int(cfg, kCmd, "id");
  STTGPU_REQUIRE(id > 0, "watch needs id=<submission>");
  serve::Client client = client_connect(cfg, kCmd);
  Config empty;
  // Events pass through verbatim: `sttgpu watch` IS the NDJSON stream.
  client.stream(client_request("watch", empty, id),
                [](const std::string& line, const JsonValue&) {
                  std::cout << line << "\n" << std::flush;
                });
  return kExitOk;
}

int cmd_cancel(const Config& cfg) {
  constexpr auto kCmd = sim::kKnobCancel;
  sim::validate_knobs(cfg, kCmd, "cancel");
  const std::int64_t id = sim::knob_int(cfg, kCmd, "id");
  STTGPU_REQUIRE(id > 0, "cancel needs id=<submission>");
  serve::Client client = client_connect(cfg, kCmd);
  Config empty;
  const JsonValue response = client.request(client_request("cancel", empty, id));
  std::cout << "submission " << response.at("id").as_int() << ": "
            << response.at("state").as_string() << "\n";
  return kExitOk;
}

int cmd_result(const Config& cfg) {
  constexpr auto kCmd = sim::kKnobResult;
  sim::validate_knobs(cfg, kCmd, "result");
  const std::int64_t id = sim::knob_int(cfg, kCmd, "id");
  serve::Client client = client_connect(cfg, kCmd);
  const JsonValue response = client.request(client_request("result", cfg, id));
  const std::vector<sim::Metrics> rows = rows_from_response(response);
  if (id > 0) {
    print_rows_table(rows);
    const JsonValue& missing = response.at("missing");
    if (missing.size() > 0) {
      std::cerr << missing.size() << " of " << rows.size() + missing.size()
                << " rows are not in the store (failed or still pending)\n";
      return kExitError;
    }
    return kExitOk;
  }
  // By-key lookup prints the exact metrics block a direct `sttgpu run` of
  // the same config prints: the row round-trips the store's max_digits10
  // encoding, so every double is bit-identical.
  STTGPU_REQUIRE(!rows.empty(), "no stored result");
  sim::print_metrics_block(std::cout, rows.front(), sim::knob_double(cfg, kCmd, "scale"));
  return kExitOk;
}

int cmd_health(const Config& cfg) {
  constexpr auto kCmd = sim::kKnobHealth;
  sim::validate_knobs(cfg, kCmd, "health");
  serve::Client client = client_connect(cfg, kCmd);
  Config empty;
  const JsonValue response = client.request(client_request("health", empty));
  const JsonValue& h = response.at("health");
  std::ostringstream up;
  up.setf(std::ios::fixed);
  up.precision(1);
  up << h.at("uptime_s").as_double();
  std::cout << "server: up " << up.str() << "s, " << h.at("workers").as_int()
            << " worker" << (h.at("workers").as_int() == 1 ? "" : "s") << ", sandbox "
            << (h.at("sandbox").as_bool() ? "on" : "off") << "\n"
            << "  queue        " << h.at("queued").as_int() << " waiting, "
            << h.at("inflight").as_int() << " in flight ("
            << h.at("connections").as_int() << " connection"
            << (h.at("connections").as_int() == 1 ? "" : "s") << ")\n"
            << "  journal      " << h.at("journal_pending").as_int() << " pending of "
            << h.at("journal_records").as_int() << " recorded ("
            << h.at("replayed").as_int() << " replayed at startup)\n"
            << "  admission    " << h.at("shed").as_int() << " shed, "
            << h.at("read_deadline_drops").as_int() << " silent-client drops\n"
            << "  children     " << h.at("child_kills").as_int() << " kills, "
            << h.at("child_crashes").as_int() << " crashes, "
            << h.at("task_retries").as_int() << " retries\n"
            << "  tasks        " << h.at("tasks_simulated").as_int() << " simulated, "
            << h.at("tasks_failed").as_int() << " failed, "
            << h.at("submissions").as_int() << " submissions\n";
  return kExitOk;
}

int usage() {
  std::cerr << sim::knob_usage();
  return kExitUsage;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  install_signal_handlers();
  const std::string command = argv[1];
  try {
    if (command == "help") {
      std::cout << sim::knob_usage();
      return kExitOk;
    }
    if (command == "store") {
      // The verb rides as argv[2] (not key=value), so the knob Config
      // parses from the arguments after it.
      if (argc < 3) return usage();
      const Config cfg = Config::from_args(argc - 2, argv + 2);
      return cmd_store(argv[2], cfg);
    }
    const Config cfg = Config::from_args(argc - 1, argv + 1);
    if (command == "list") return cmd_list();
    if (command == "run") return cmd_run(cfg);
    if (command == "matrix") return cmd_matrix(cfg);
    if (command == "record") return cmd_record(cfg);
    if (command == "replay") return cmd_replay(cfg);
    if (command == "serve") return cmd_serve(cfg);
    if (command == "submit") return cmd_submit(cfg);
    if (command == "status") return cmd_status(cfg);
    if (command == "watch") return cmd_watch(cfg);
    if (command == "cancel") return cmd_cancel(cfg);
    if (command == "result") return cmd_result(cfg);
    if (command == "health") return cmd_health(cfg);
    return usage();
  } catch (const serve::BindError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitBind;
  } catch (const serve::Overloaded& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitOverloaded;
  } catch (const serve::JournalError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitJournal;
  } catch (const serve::ProtocolMismatch& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitProtocol;
  } catch (const Cancelled& c) {
    // Artifacts (cache, telemetry, JSON) were finalized before the unwind;
    // the exit code tells scripts whether this is resumable (3 = user
    // interrupt; rerun to resume) or a supervision kill (4).
    std::cerr << "interrupted: " << c.what() << "\n";
    return c.reason() == CancelReason::kUser ? kExitInterrupted : kExitWatchdog;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitError;
  }
}
