// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --root <checkout> --goldens <file> --work <dir> --out <record.json>
//             [--spans <spans.json>]
//   perfbench --emit-goldens <file> --root <checkout> --goldens <file> --work <dir>
//
// --trace 0 times the workload's set-up and timed phase with tracing off and
// reports the end-to-end metrics. --trace 1 runs the timed phase twice, half
// the time each, untraced then traced (their ratio is the tracing overhead),
// then the per-layer probes, and reports the per-layer metrics and each
// layer's self time. Human-readable lines go to stdout; the full result
// record, with provenance, goes to --out. --emit-goldens reruns every
// golden-checked operation once and writes the values it observed, for
// regenerating perfbench/goldens.txt after a deliberate model change.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/json.hpp"
#include "harness.hpp"
#include "sim/runner.hpp"
#include "store/record.hpp"
#include "tracer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

struct Args {
  std::string workload, root = ".", goldens, work, out, spans, emit_goldens;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--root") a.root = v;
    else if (k == "--goldens") a.goldens = v;
    else if (k == "--work") a.work = v;
    else if (k == "--out") a.out = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--emit-goldens") a.emit_goldens = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.goldens.empty() || a.work.empty() ||
      (a.emit_goldens.empty() && (a.workload.empty() || a.out.empty()))) {
    throw std::invalid_argument("--workload, --goldens, --work and --out are required");
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
  return a;
}

Ctx make_ctx(const Args& a, Outcome& out) {
  Ctx ctx;
  ctx.work = a.work;
  ctx.seed = a.seed;
  ctx.seconds = a.seconds;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  ctx.jobs = std::min(4u, hw);
  std::ifstream g(a.goldens);
  if (!g) throw std::runtime_error("cannot read goldens " + a.goldens);
  ctx.golden = parse_golden(g);
  const std::string csv = a.root + "/fig8_cache.csv";
  ctx.fig8_csv = read_file(csv);
  ctx.fingerprint = sttgpu::sim::config_fingerprint();
  // The checked-in export is itself a golden: it must be the exact bytes
  // this benchmark was defined against, or no comparison means anything.
  ++out.attempted;
  const std::string want = ctx.golden.count("fig8.csv_fnv1a64") ? ctx.golden.at("fig8.csv_fnv1a64") : "";
  if (sttgpu::store::fingerprint_hex(fnv1a64(ctx.fig8_csv)) != want) {
    out.fail("fig8_cache.csv is not the golden export (fnv1a64 " +
             sttgpu::store::fingerprint_hex(fnv1a64(ctx.fig8_csv)) + ")");
  }
  if (sttgpu::store::fingerprint_hex(ctx.fingerprint) != ctx.golden["config.fingerprint"]) {
    out.fail("config fingerprint " + sttgpu::store::fingerprint_hex(ctx.fingerprint) +
             " differs from golden " + ctx.golden["config.fingerprint"]);
  }
  auto rows = sttgpu::sim::load_cache(csv, 0.5);
  for (auto& [key, m] : rows) ctx.fig8_rows.push_back(m);
  return ctx;
}

void write_record(const Args& a, const Ctx& ctx, const Outcome& out) {
  std::ofstream f(a.out);
  f.precision(17);  // every digit as measured
  sttgpu::JsonWriter w(f);
  w.begin_object();
  w.key("workload").value(a.workload);
  w.key("seed").value(a.seed);
  w.key("seconds").value(a.seconds);
  w.key("trace").value(a.trace);
  w.key("correct").value(out.failed == 0);
  w.key("attempted").value(out.attempted);
  w.key("failed").value(out.failed);
  w.key("errors").begin_array();
  for (const std::string& e : out.errors) w.value(e);
  w.end_array();
  w.key("metrics").begin_object();
  for (const auto& [name, vu] : out.metrics) {
    w.key(name).begin_object();
    w.key("value").value(vu.first);
    w.key("unit").value(vu.second);
    w.end_object();
  }
  w.end_object();
  w.key("operation_samples").begin_array();
  for (const double v : out.samples) w.value(v);
  w.end_array();
  w.key("notes").begin_array();
  for (const std::string& n : out.notes) w.value(n);
  w.end_array();
  w.key("provenance").begin_object();
  w.key("nproc").value(std::thread::hardware_concurrency());
  w.key("jobs").value(ctx.jobs);
  w.key("compiler").value(PERFBENCH_COMPILER);
  w.key("build_type").value(PERFBENCH_BUILD_TYPE);
  w.key("config_fingerprint").value(sttgpu::store::fingerprint_hex(ctx.fingerprint));
  w.key("seed").value(a.seed);
  w.key("scale").value(a.workload == "serve-mixed" ? "0.5 hits, 0.0100-0.0300 misses" : "0.5");
  w.end_object();
  w.end_object();
  f << "\n";
}

int emit_goldens(const Args& a) {
  Outcome out;
  const Ctx ctx = make_ctx(a, out);
  fresh_dir(ctx.work);
  probe_kernels(ctx, out);
  std::ofstream f(a.emit_goldens);
  f << "# Golden outputs of the benchmark's simulations; regenerate with\n"
    << "# perfbench --emit-goldens only after a deliberate model change.\n";
  f << "config.fingerprint=" << sttgpu::store::fingerprint_hex(ctx.fingerprint) << "\n";
  f << "fig8.csv_fnv1a64=" << sttgpu::store::fingerprint_hex(fnv1a64(ctx.fig8_csv)) << "\n";
  for (const auto& [key, value] : out.observed) f << key << "=" << value << "\n";
  return 0;
}

int run(const Args& a) {
  if (!a.emit_goldens.empty()) return emit_goldens(a);
  std::unique_ptr<Workload> w = make_workload(a.workload);
  if (!w) throw std::invalid_argument("unknown workload " + a.workload);
  // The goldens and the checked-in export are the harness's own inputs: read
  // and checked once, untimed. setup_s times the workload's set-up alone.
  Outcome out;
  const Ctx ctx = make_ctx(a, out);
  fresh_dir(ctx.work);
  std::vector<double> setup_s;
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(a.trace);  // a traced run records its set-up spans too
  const auto t_setups = Clock::now();
  for (unsigned i = 0; i == 0 || (!a.trace && (i < w->setup_reps() ||
                                               seconds_since(t_setups) < w->setup_min_s()));
       ++i) {
    w->teardown();
    const auto t0 = Clock::now();
    w->setup(ctx, out);
    setup_s.push_back(seconds_since(t0));
  }

  if (!a.trace) {
    const Phase p = w->measure(ctx, ctx.seconds, out);
    out.samples = p.op_s;
    out.metric("setup_s", median(setup_s), "s");
    out.metric("wall_s", p.wall_s, "s");
    out.metric("peak_rss_mb", p.peak_rss_mb, "MB");
    std::ostringstream os;
    std::vector<double> ops = p.op_s;
    std::sort(ops.begin(), ops.end());
    os << a.workload << ": " << p.ops << " operations in " << p.elapsed_s << " s; operation samples min "
       << ops.front() << " median " << median(ops) << " max " << ops.back()
       << "; setup_s is the median of " << setup_s.size() << " set-ups (min "
       << *std::min_element(setup_s.begin(), setup_s.end()) << " max "
       << *std::max_element(setup_s.begin(), setup_s.end()) << ")";
    out.notes.push_back(os.str());
    w->report(out, false);
  } else {
    tracer.set_enabled(false);
    const Phase base = w->measure(ctx, ctx.seconds / 2, out);
    tracer.set_enabled(true);
    const Phase traced = w->measure(ctx, ctx.seconds / 2, out);
    // wall_s, traced against untraced.
    out.metric("trace.overhead_ratio", traced.wall_s / base.wall_s, "ratio");
    w->report(out, true);
    run_probes(ctx, traced, serve_result_of(*w),
               a.workload == "fig8-cold" ? traced.wall_s : 0.0, out);
    tracer.set_enabled(false);
    const std::vector<SpanRecord> spans = tracer.spans();
    out.metric("trace.spans", static_cast<double>(spans.size()), "count");
    std::map<std::string, double> self = layer_self_seconds(spans);
    for (const char* layer : {"workload", "gpu", "sttl2", "sim", "store", "serve"}) {
      out.metric(std::string(layer) + ".self_s", self[layer], "s");
    }
    if (!a.spans.empty()) {
      std::ofstream f(a.spans);
      f.precision(17);
      tracer.write_json(f);
    }
  }
  w.reset();  // stops a running server before the record is written

  for (const std::string& n : out.notes) std::cout << n << "\n";
  for (const auto& [name, vu] : out.metrics) {
    std::cout << "  " << name << " = " << exact(vu.first) << " " << vu.second << "\n";
  }
  for (const std::string& e : out.errors) std::cout << "FAILED: " << e << "\n";
  write_record(a, ctx, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
