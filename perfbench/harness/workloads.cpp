// The benchmark workloads. Each set-up builds its inputs untimed; each timed
// phase runs whole unit operations until its time is up and checks every
// output against a golden value.
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/stats.hpp"
#include "harness.hpp"
#include "sim/arch.hpp"
#include "tracer.hpp"
#include "workload/benchmarks.hpp"

namespace perfbench {
namespace {

namespace sim = sttgpu::sim;

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

std::string fmt(double v, int digits) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(digits);
  os << v;
  return os.str();
}

// --- fig8-cold ---------------------------------------------------------------

/// The full Fig. 8 matrix (5 archs x 16 benchmarks, scale 0.5) from a cold,
/// empty cache directory on min(4, nproc) executor threads.
class Fig8Cold final : public Workload {
 public:
  double setup_min_s() const override { return 2.0; }

  /// What a cold matrix prepares before its first simulation: the empty
  /// cache directory, the config fingerprint its cache is keyed by, and the
  /// 16 kernel models at scale 0.5. run_matrix does the same preparation
  /// again inside each timed pass; this times it apart.
  void setup(const Ctx& ctx, Outcome& out) override {
    fresh_dir(ctx.work + "/fig8");
    archs_ = sim::all_architectures();
    benches_.clear();
    {
      Span span("sim.config_fingerprint");
      if (sim::config_fingerprint() != ctx.fingerprint) {
        out.fail("fig8-cold: config fingerprint changed between set-ups");
      }
    }
    for (const std::string& name : sttgpu::workload::benchmark_names()) {
      Span span("workload.make_benchmark");
      benches_.push_back(sttgpu::workload::make_benchmark(name, 0.5));
    }
  }

  Phase measure(const Ctx& ctx, double seconds, Outcome& out) override {
    Phase p;
    std::vector<double> rss_mb;  // per matrix: its peak depends on which rows overlap
    const auto t_start = Clock::now();
    const std::vector<std::string> golden = lines_of(ctx.fig8_csv);
    while (p.ops == 0 || seconds_since(t_start) < seconds) {
      const std::string dir = ctx.work + "/fig8/pass" + std::to_string(passes_++);
      fresh_dir(dir);
      const std::string csv = dir + "/fig8_cache.csv";
      std::vector<sim::Metrics> rows;
      reset_peak_rss();
      const auto t0 = Clock::now();
      {
        Span span("sim.run_matrix");
        rows = sim::run_matrix(archs_, {.scale = 0.5, .cache_path = csv, .jobs = ctx.jobs});
      }
      const double dt = seconds_since(t0);
      rss_mb.push_back(peak_rss_mb());
      p.op_s.push_back(dt);
      ++p.ops;

      // Each exported row is one operation; a row that differs from the
      // checked-in export is one failed operation.
      const std::vector<std::string> got = lines_of(read_file(csv));
      const std::size_t n_rows = golden.size() > 2 ? golden.size() - 2 : 0;
      out.attempted += n_rows;
      if (got.size() != golden.size() || got[0] != golden[0] || got[1] != golden[1]) {
        out.fail("fig8-cold: exported CSV header or row count differs from fig8_cache.csv");
      }
      for (std::size_t i = 2; i < golden.size(); ++i) {
        if (i >= got.size() || got[i] != golden[i]) {
          out.fail("fig8-cold: row " + std::to_string(i - 1) + " differs: " +
                   (i < got.size() ? got[i] : "<missing>"));
        }
      }
      last_rows_ = std::move(rows);
      std::filesystem::remove_all(dir);
    }
    p.elapsed_s = seconds_since(t_start);
    p.wall_s = median(p.op_s);
    p.peak_rss_mb = median(rss_mb);
    return p;
  }

  void report(Outcome& out, bool) override {
    // Informational only: the paper's headline ratios beside the model's.
    const auto sram = sim::by_benchmark(last_rows_, "sram");
    auto gmean_ratio = [&](const std::string& arch, bool power) {
      std::vector<double> r;
      for (const auto& [bench, m] : sim::by_benchmark(last_rows_, arch)) {
        const sim::Metrics& base = sram.at(bench);
        r.push_back(power ? m.total_w / base.total_w : m.ipc / base.ipc);
      }
      return sttgpu::geometric_mean(r);
    };
    out.notes.push_back(
        "paper reference (model unvalidated, not gated): C1 Gmean IPC speedup over SRAM " +
        fmt(gmean_ratio("C1", false), 3) + " (paper 1.16); total power vs SRAM C1 " +
        fmt(gmean_ratio("C1", true), 3) + " (paper 0.80), C2 " + fmt(gmean_ratio("C2", true), 3) +
        " (paper 0.365), C3 " + fmt(gmean_ratio("C3", true), 3) + " (paper 0.58)");
  }

 private:
  std::vector<sim::Architecture> archs_;
  std::vector<sttgpu::workload::Workload> benches_;
  std::vector<sim::Metrics> last_rows_;
  unsigned passes_ = 0;
};

// --- serve-mixed -------------------------------------------------------------

/// An in-process sweep service (jobs=2, sandbox on) over a store seeded from
/// fig8_cache.csv, driven by two closed-loop clients: ~90% store hits and
/// ~10% unique misses that fork a sandboxed simulation.
class ServeMixed final : public Workload {
 public:
  unsigned setup_reps() const override { return 10; }
  double setup_min_s() const override { return 2.0; }

  void setup(const Ctx& ctx, Outcome&) override {
    session_ = std::make_unique<ServeSession>(ctx, ctx.work + "/serve");
  }

  void teardown() override { session_.reset(); }

  Phase measure(const Ctx& ctx, double seconds, Outcome& out) override {
    result_ = session_->run(seconds, ctx.seed, out);
    Phase p;
    for (const double ms : result_.hit_ms) p.op_s.push_back(ms / 1000.0);
    for (const double ms : result_.miss_ms) p.op_s.push_back(ms / 1000.0);
    // A client's mean time per submission: the closed loop's pace, set by the
    // ~10% misses as much as by the hits. The hit and miss medians alone
    // follow the host's fsync and wake-up latency, which swings run to run
    // by up to 3x here; they are reported in the notes and as serve.*.
    p.wall_s = result_.per_submission_s;
    p.peak_rss_mb = peak_rss_mb();
    p.gpu = result_.golden_sims;
    p.elapsed_s = result_.elapsed_s;
    p.ops = result_.completed;
    return p;
  }

  void report(Outcome& out, bool traced) override {
    if (traced) return;  // the traced run reports these as serve.* metrics
    Outcome tmp;
    report_serve(result_, "", tmp);
    for (const auto& [name, vu] : tmp.metrics) {
      out.notes.push_back(name + " " + exact(vu.first) + " " + vu.second);
    }
    out.notes.insert(out.notes.end(), tmp.notes.begin(), tmp.notes.end());
  }

  const ServeResult& result() const { return result_; }

 private:
  std::unique_ptr<ServeSession> session_;
  ServeResult result_;
};

}  // namespace

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void fresh_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

Golden observe_run(const std::string& prefix, const sttgpu::gpu::RunResult& r) {
  Golden g;
  const std::string p = prefix + ".";
  g[p + "cycles"] = std::to_string(r.cycles);
  g[p + "instructions"] = std::to_string(r.instructions);
  g[p + "l1d_hits"] = std::to_string(r.l1d_hits);
  g[p + "l1d_misses"] = std::to_string(r.l1d_misses);
  g[p + "dram_reads"] = std::to_string(r.dram_reads);
  g[p + "dram_writes"] = std::to_string(r.dram_writes);
  g[p + "l2.read_hits"] = std::to_string(r.l2.read_hits);
  g[p + "l2.read_misses"] = std::to_string(r.l2.read_misses);
  g[p + "l2.write_hits"] = std::to_string(r.l2.write_hits);
  g[p + "l2.write_misses"] = std::to_string(r.l2.write_misses);
  g[p + "l2.dram_writebacks"] = std::to_string(r.l2.dram_writebacks);
  for (const auto& [name, v] : r.l2_counters.all()) g[p + "counter." + name] = std::to_string(v);
  return g;
}

Golden observe_replay(const std::string& prefix, const sttgpu::sim::ReplayResult& r) {
  Golden g;
  const std::string p = prefix + ".";
  g[p + "cycles"] = std::to_string(r.cycles);
  g[p + "read_hits"] = std::to_string(r.stats.read_hits);
  g[p + "read_misses"] = std::to_string(r.stats.read_misses);
  g[p + "write_hits"] = std::to_string(r.stats.write_hits);
  g[p + "write_misses"] = std::to_string(r.stats.write_misses);
  g[p + "dram_reads"] = std::to_string(r.stats.dram_reads);
  g[p + "dram_writebacks"] = std::to_string(r.stats.dram_writebacks);
  for (const auto& [name, v] : r.counters.all()) g[p + "counter." + name] = std::to_string(v);
  return g;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "fig8-cold") return std::make_unique<Fig8Cold>();
  if (name == "serve-mixed") return std::make_unique<ServeMixed>();
  return nullptr;
}

const ServeResult* serve_result_of(const Workload& w) {
  const auto* s = dynamic_cast<const ServeMixed*>(&w);
  return s != nullptr ? &s->result() : nullptr;
}

}  // namespace perfbench
