// Per-layer probes of the traced run. Each probe calls one layer's public
// functions from outside, under a span, and reports its time and counts.
#include <algorithm>
#include <filesystem>
#include <numeric>
#include <sstream>

#include "harness.hpp"
#include "serve/journal.hpp"
#include "serve/sandbox.hpp"
#include "sim/arch.hpp"
#include "sim/trace.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"
#include "tracer.hpp"
#include "workload/benchmarks.hpp"

namespace perfbench {
namespace {

namespace sim = sttgpu::sim;
namespace wl = sttgpu::workload;
namespace store = sttgpu::store;
namespace serve = sttgpu::serve;

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// gpu.*: host cost per simulated cycle and instruction, and exact counts,
/// over the detailed simulations @p runs.
void report_gpu(const std::vector<GpuSample>& runs, Outcome& out) {
  double host_s = 0.0, all_cycles = 0.0, all_instrs = 0.0;
  for (const GpuSample& g : runs) {
    host_s += g.host_s;
    all_cycles += static_cast<double>(g.run.cycles);
    all_instrs += static_cast<double>(g.run.instructions);
  }
  out.metric("gpu.host_ns_per_cycle", ratio(host_s * 1e9, all_cycles), "ns");
  out.metric("gpu.host_ns_per_warp_instr", ratio(host_s * 1e9, all_instrs), "ns");

  std::uint64_t cycles = 0, instrs = 0, l1_hits = 0, l1_misses = 0, stall = 0, idle = 0,
                icnt_q = 0, icnt_all = 0, dram_reads = 0, writebacks = 0, express = 0,
                dram_all = 0, far_hw = 0;
  for (const GpuSample& g : runs) {
    const auto& r = g.run;
    cycles += r.cycles;
    instrs += r.instructions;
    l1_hits += r.l1d_hits;
    l1_misses += r.l1d_misses;
    stall += r.sm.stall_cycles;
    idle += r.sm.idle_cycles;
    icnt_q += r.sched.icnt_request_queued + r.sched.icnt_response_queued;
    icnt_all += r.sched.icnt_request_queued + r.sched.icnt_response_queued +
                r.sched.icnt_request_express + r.sched.icnt_response_express;
    dram_reads += r.dram_reads;
    writebacks += r.l2.dram_writebacks;
    express += r.sched.dram_express_reads;
    dram_all += r.sched.dram_express_reads + r.sched.dram_queued_reads;
    far_hw = std::max(far_hw, r.sched.wheel_far_high_water);
  }
  out.metric("gpu.cycles", static_cast<double>(cycles), "count");
  out.metric("gpu.warp_instrs", static_cast<double>(instrs), "count");
  out.metric("gpu.l1d_miss_rate",
             ratio(static_cast<double>(l1_misses), static_cast<double>(l1_hits + l1_misses)),
             "ratio");
  out.metric("gpu.sm_stall_cycles", static_cast<double>(stall), "count");
  out.metric("gpu.sm_idle_cycles", static_cast<double>(idle), "count");
  out.metric("gpu.icnt_queued_share",
             ratio(static_cast<double>(icnt_q), static_cast<double>(icnt_all)), "ratio");
  out.metric("gpu.dram_reads", static_cast<double>(dram_reads), "count");
  out.metric("gpu.dram_writebacks", static_cast<double>(writebacks), "count");
  out.metric("gpu.dram_express_share",
             ratio(static_cast<double>(express), static_cast<double>(dram_all)), "ratio");
  out.metric("gpu.wheel_far_high_water", static_cast<double>(far_hw), "count");
}

/// sim.job_s.*: every (arch, benchmark) pair of the matrix run alone, which
/// bounds what any executor could achieve on ctx.jobs threads.
std::vector<GpuSample> probe_jobs(const Ctx& ctx, const std::vector<wl::Workload>& benches,
                                  double matrix_wall_s, Outcome& out) {
  std::vector<GpuSample> runs;
  std::vector<double> job_s;
  for (const sim::Architecture a : sim::all_architectures()) {
    const sim::ArchSpec spec = sim::make_arch(a);
    for (const wl::Workload& w : benches) {
      GpuSample g;
      const auto t0 = Clock::now();
      {
        Span span("sim.job");
        Span inner("gpu.run_one_detailed");
        sim::run_one_detailed(spec, w, g.run);
      }
      g.host_s = seconds_since(t0);
      job_s.push_back(g.host_s);
      ++out.attempted;
      const auto row = std::find_if(ctx.fig8_rows.begin(), ctx.fig8_rows.end(),
                                    [&](const sim::Metrics& m) {
                                      return m.arch == spec.name && m.benchmark == w.name;
                                    });
      if (row == ctx.fig8_rows.end() || row->cycles != g.run.cycles) {
        out.fail("sim.job " + spec.name + "/" + w.name + ": cycles differ from fig8_cache.csv");
      }
      runs.push_back(std::move(g));
    }
  }
  const double sum = std::accumulate(job_s.begin(), job_s.end(), 0.0);
  const double max = *std::max_element(job_s.begin(), job_s.end());
  const double lower = std::max(max, sum / ctx.jobs);
  out.metric("sim.job_s.p50", median(job_s), "s");
  out.metric("sim.job_s.max", max, "s");
  out.metric("sim.job_s.sum", sum, "s");
  out.metric("sim.matrix_lower_bound_s", lower, "s");
  out.metric("sim.matrix_wall_s", matrix_wall_s, "s");
  out.metric("sim.executor_efficiency", ratio(lower, matrix_wall_s), "ratio");
  std::ostringstream os;
  os << "sim.executor_efficiency = max(job_s.max " << max << ", job_s.sum " << sum << " / jobs "
     << ctx.jobs << ") / matrix wall " << matrix_wall_s << " s";
  out.notes.push_back(os.str());
  return runs;
}

double probe_matrix(const Ctx& ctx, Outcome& out) {
  const std::string dir = ctx.work + "/probe-matrix";
  fresh_dir(dir);
  const auto t0 = Clock::now();
  {
    Span span("sim.run_matrix");
    sim::run_matrix(sim::all_architectures(),
                    {.scale = 0.5, .cache_path = dir + "/fig8_cache.csv", .jobs = ctx.jobs});
  }
  const double wall = seconds_since(t0);
  ++out.attempted;
  if (read_file(dir + "/fig8_cache.csv") != ctx.fig8_csv) {
    out.fail("probe matrix: CSV differs from fig8_cache.csv");
  }
  std::filesystem::remove_all(dir);
  return wall;
}

/// Few warps, a uniform-random DRAM-missing stream and slow DRAM: almost
/// every cycle is a quiescent memory wait, so the stepping loop, fast-forward
/// and event wheel dominate host time (bench/micro_sim_throughput.cpp's
/// kernel, sized to about a second of host time).
wl::Workload drain_heavy_workload() {
  wl::KernelSpec k;
  k.name = "drain";
  k.grid_blocks = 4;
  k.threads_per_block = 64;  // 2 warps per block
  k.instructions_per_warp = 180000;
  k.mem_fraction = 0.5;
  k.store_fraction = 0.1;
  k.const_fraction = 0.0;
  k.pattern.kind = wl::PatternKind::kRandom;
  k.pattern.footprint_bytes = 256ull << 20;  // misses everywhere
  k.pattern.reuse_fraction = 0.0;
  k.pattern.wws_lines = 0;
  wl::Workload w;
  w.name = "drain-heavy";
  w.region = "synthetic";
  w.kernels.push_back(k);
  return w;
}

/// One checked detailed simulation; returns its host seconds.
double checked_run(const Ctx& ctx, const sim::ArchSpec& spec, const wl::Workload& w,
                   const std::string& key, std::uint64_t& cycles, Outcome& out) {
  GpuSample g;
  const auto t0 = Clock::now();
  {
    Span span("gpu.run_one_detailed");
    sim::run_one_detailed(spec, w, g.run);
  }
  const double s = seconds_since(t0);
  out.check(ctx.golden, key, observe_run(key, g.run), key + ".");
  cycles += g.run.cycles;
  return s;
}

/// store.*: durable puts, a batched put, index reads, and the CSV export.
void probe_store(const Ctx& ctx, Outcome& out) {
  const std::string dir = ctx.work + "/probe-store";
  fresh_dir(dir);
  std::vector<store::ResultRow> rows;
  for (const sim::Metrics& m : ctx.fig8_rows) rows.push_back(sim::to_store_row(m));

  std::vector<double> put_ms, get_us;
  {
    store::ResultStore st(dir + "/one.store");
    for (const store::ResultRow& row : rows) {
      const auto t0 = Clock::now();
      Span span("store.put");
      st.put(ctx.fingerprint, 0.5, row);
      put_ms.push_back(ms_since(t0));
    }
    Span span("store.get");
    for (int rep = 0; rep < 10; ++rep) {
      for (const store::ResultRow& row : rows) {
        const auto t0 = Clock::now();
        const auto got = st.get(ctx.fingerprint, 0.5, row.arch, row.benchmark);
        get_us.push_back(seconds_since(t0) * 1e6);
        if (!got || store::encode_put(ctx.fingerprint, 0.5, *got) !=
                        store::encode_put(ctx.fingerprint, 0.5, row)) {
          out.fail("store.get: " + row.arch + "/" + row.benchmark + " does not read back");
        }
      }
    }
  }
  auto t0 = Clock::now();
  {
    Span span("store.put_many");
    store::ResultStore st(dir + "/many.store");
    st.put_many(ctx.fingerprint, 0.5, rows);
  }
  out.metric("store.put_many_ms", ms_since(t0), "ms");
  t0 = Clock::now();
  {
    Span span("sim.save_cache");
    sim::save_cache(dir + "/export.csv", 0.5, ctx.fig8_rows);
  }
  out.metric("store.export_ms", ms_since(t0), "ms");
  ++out.attempted;
  if (read_file(dir + "/export.csv") != ctx.fig8_csv) {
    out.fail("store export: CSV differs from fig8_cache.csv");
  }
  out.metric("store.put_ms.p50", median(put_ms), "ms");
  out.metric("store.get_us.p50", median(get_us), "us");
  std::filesystem::remove_all(dir);
}

/// serve.journal_append_ms.p50: a durable submission record plus its retire.
void probe_journal(const Ctx& ctx, Outcome& out) {
  const std::string dir = ctx.work + "/probe-journal";
  fresh_dir(dir);
  std::vector<double> ms;
  {
    serve::Journal j(dir + "/j.journal");
    const std::string opts = R"({"archs":"C1","benchmarks":"bfs","scale":"0.5"})";
    for (std::uint64_t id = 1; id <= 100; ++id) {
      const auto t0 = Clock::now();
      Span span("serve.journal_append");
      j.record_submission(id, opts);
      j.record_done(id);
      ms.push_back(ms_since(t0));
    }
  }
  out.metric("serve.journal_append_ms.p50", median(ms), "ms");
  std::filesystem::remove_all(dir);
}

/// serve.sandbox_overhead_ms: one short fixed config in a forked sandbox
/// child versus in-process, median of each.
void probe_sandbox(const Ctx& ctx, Outcome& out) {
  constexpr double kScale = 0.02;
  serve::SandboxJob job;
  job.arch_id = sim::Architecture::kC1;
  job.arch = sim::make_arch(job.arch_id).name;
  job.bench = "bfs";
  job.fp = ctx.fingerprint;
  job.scale17 = store::scale_text(kScale);
  job.base.scale = kScale;
  std::vector<double> sandboxed, in_process;
  std::string want;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = Clock::now();
    sim::Metrics m;
    {
      Span span("sim.run_one");
      m = sim::run_one(job.arch_id, job.bench, job.base);
    }
    in_process.push_back(ms_since(t0));
    want = store::encode_put(ctx.fingerprint, job.scale17, sim::to_store_row(m));
    t0 = Clock::now();
    serve::SandboxResult r;
    {
      Span span("serve.run_sandboxed");
      r = serve::run_sandboxed(job, {});
    }
    sandboxed.push_back(ms_since(t0));
    ++out.attempted;
    if (r.status != serve::SandboxStatus::kOk || r.row_line != want) {
      out.fail(std::string("sandbox probe: ") + serve::sandbox_status_name(r.status) + " " +
               r.error);
    }
  }
  out.metric("serve.sandbox_overhead_ms", median(sandboxed) - median(in_process), "ms");
}

}  // namespace

void probe_kernels(const Ctx& ctx, Outcome& out) {
  const sim::ArchSpec c1 = sim::make_arch(sim::Architecture::kC1);
  const sim::ArchSpec sram = sim::make_arch(sim::Architecture::kSramBaseline);
  const wl::Workload bfs = wl::make_benchmark("bfs", 0.5);
  const wl::Workload mum = wl::make_benchmark("mum", 0.5);

  // Cycle-dense: SM issue, L1, interconnect and both bank types. C1/bfs and
  // sram/bfs are also rows of the checked-in Fig. 8 export.
  std::uint64_t cycles = 0;
  double host_s = 0.0;
  for (const auto& [spec, w] : {std::pair{&c1, &bfs}, std::pair{&sram, &bfs}, std::pair{&c1, &mum}}) {
    const std::uint64_t before = cycles;
    host_s += checked_run(ctx, *spec, *w, "busy." + spec->name + "/" + w->name, cycles, out);
    for (const sim::Metrics& m : ctx.fig8_rows) {
      if (m.arch == spec->name && m.benchmark == w->name && m.cycles != cycles - before) {
        out.fail("busy." + spec->name + "/" + w->name + ": cycles differ from fig8_cache.csv");
      }
    }
  }
  out.metric("gpu.busy_sim_cycles_per_s", static_cast<double>(cycles) / host_s, "cycles/s");

  sim::ArchSpec slow_dram = c1;
  slow_dram.gpu.dram_latency = 2000;  // stretch the quiescent gaps
  cycles = 0;
  host_s = checked_run(ctx, slow_dram, drain_heavy_workload(), "drain", cycles, out);
  out.metric("gpu.drain_sim_cycles_per_s", static_cast<double>(cycles) / host_s, "cycles/s");

  // sttl2 in isolation: the sram/bfs L2 demand stream replayed on C1 banks.
  const std::string dir = ctx.work + "/probe-replay";
  fresh_dir(dir);
  const std::string path = dir + "/sram_bfs.trace";
  {
    Span span("sim.record_trace");
    sim::record_trace(sram, bfs, path);
  }
  auto t0 = Clock::now();
  std::vector<sim::TraceRecord> records;
  {
    Span span("sim.load_trace");
    records = sim::load_trace(path);
  }
  out.metric("sim.trace_load_ms", ms_since(t0), "ms");
  t0 = Clock::now();
  sim::ReplayResult r;
  {
    Span span("sttl2.replay_trace");
    r = sim::replay_trace(records, c1.two_part_cfg, c1.gpu);
  }
  const double s = seconds_since(t0);
  out.check(ctx.golden, "busy.replay", observe_replay("busy.replay", r), "busy.replay.");

  const double n = static_cast<double>(records.size());
  const double accesses = static_cast<double>(r.stats.accesses());
  out.metric("sttl2.replay_ns_per_request", ratio(s * 1e9, n), "ns");
  out.metric("sttl2.replay_requests_per_s", ratio(n, s), "1/s");
  out.metric("sttl2.accesses", accesses, "count");
  out.metric("sttl2.miss_rate", r.stats.miss_rate(), "ratio");
  out.metric("sttl2.lr_write_share",
             ratio(static_cast<double>(r.counters.get("w_lr")),
                   static_cast<double>(r.counters.get("w_demand"))),
             "ratio");
  out.metric("sttl2.migrations", static_cast<double>(r.counters.get("migrations")), "count");
  out.metric("sttl2.forced_writebacks",
             static_cast<double>(r.counters.get("lr_forced_wb") +
                                 r.counters.get("refresh_forced_wb")),
             "count");
  out.metric("sttl2.tag_probes_per_access",
             ratio(static_cast<double>(r.counters.get("tag_probes_lr") +
                                       r.counters.get("tag_probes_hr")),
                   accesses),
             "ratio");
  std::filesystem::remove_all(dir);
}

void run_probes(const Ctx& ctx, const Phase& phase,
                const ServeResult* serve_r, double matrix_wall_s, Outcome& out) {
  std::vector<wl::Workload> benches;
  const auto t0 = Clock::now();
  for (const std::string& name : wl::benchmark_names()) {
    Span span("workload.make_benchmark");
    benches.push_back(wl::make_benchmark(name, 0.5));
  }
  out.metric("workload.build_ms", ms_since(t0), "ms");

  if (matrix_wall_s <= 0.0) matrix_wall_s = probe_matrix(ctx, out);
  std::vector<GpuSample> jobs = probe_jobs(ctx, benches, matrix_wall_s, out);
  // gpu.* describe the workload's own simulations; fig8-cold's run inside
  // run_matrix, so the per-job reruns stand in for them.
  report_gpu(phase.gpu.empty() ? jobs : phase.gpu, out);

  probe_kernels(ctx, out);
  probe_store(ctx, out);
  probe_journal(ctx, out);
  probe_sandbox(ctx, out);

  // serve.*: a fresh session for the lone-submit ack, and a short mixed
  // session unless the workload itself was the serve-mixed loop.
  ServeResult own;
  {
    ServeSession session(ctx, ctx.work + "/probe-serve");
    const std::vector<double> ack = session.ack_ms(100, out);
    if (!ack.empty()) out.metric("serve.ack_ms.p50", median(ack), "ms");
    if (serve_r == nullptr) {
      own = session.run(3.0, ctx.seed, out);
      serve_r = &own;
    }
  }
  report_serve(*serve_r, "serve.", out);
  out.metric("serve.store_hits", static_cast<double>(serve_r->store_hits), "count");
  out.metric("serve.tasks_simulated", static_cast<double>(serve_r->tasks_simulated), "count");
  out.metric("serve.shed", static_cast<double>(serve_r->shed), "count");
  out.metric("serve.child_crashes", static_cast<double>(serve_r->child_crashes), "count");
  out.metric("serve.task_retries", static_cast<double>(serve_r->task_retries), "count");
}

}  // namespace perfbench
