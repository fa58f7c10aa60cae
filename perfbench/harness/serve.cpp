// Closed-loop sweep-service session: an in-process serve::SweepServer over a
// store seeded from fig8_cache.csv, two client threads, and the checks that
// every row a client received equals its golden value.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>

#include "common/json.hpp"
#include "harness.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/arch.hpp"
#include "sim/executor.hpp"
#include "store/record.hpp"
#include "store/result_store.hpp"
#include "tracer.hpp"
#include "workload/benchmarks.hpp"

namespace perfbench {
namespace {

namespace sim = sttgpu::sim;
namespace serve = sttgpu::serve;
namespace store = sttgpu::store;

constexpr unsigned kClients = 2;
constexpr double kMissShare = 0.10;
/// Miss configs run at scales 0.0100..0.0300 (step 0.0005), below the Fig. 8
/// scale: 3280 unique store misses whose simulations are short next to the
/// matrix rows, enough that two clients never run out.
constexpr int kMissScaleMin = 100, kMissScaleMax = 300, kMissScaleStep = 5;  // 1e-4 units

struct Config {
  std::string arch, bench, scale;
};

std::string submit_request(const Config& c) {
  std::ostringstream os;
  sttgpu::JsonWriter w(os);
  w.begin_object();
  w.key("protocol_version").value(serve::kProtocolVersion);
  w.key("verb").value("submit");
  w.key("options").begin_object();
  w.key("archs").value(c.arch);
  w.key("benchmarks").value(c.bench);
  w.key("scale").value(c.scale);
  w.end_object();
  w.end_object();
  return os.str();
}

std::string id_request(const char* verb, std::int64_t id) {
  std::ostringstream os;
  sttgpu::JsonWriter w(os);
  w.begin_object();
  w.key("protocol_version").value(serve::kProtocolVersion);
  w.key("verb").value(verb);
  w.key("id").value(id);
  w.end_object();
  return os.str();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One finished submission as its client saw it.
struct Done {
  Config cfg;
  bool miss = false;
  std::int64_t id = 0;
  double latency_ms = 0.0;
  std::string row;  ///< put line from the "done" event (misses)
};

}  // namespace

struct ServeSession::Impl {
  const Ctx& ctx;
  std::string dir;
  std::unique_ptr<serve::SweepServer> server;
  std::vector<Config> hits;                     ///< the 80 seeded (arch, bench) pairs
  std::map<std::string, std::string> hit_rows;  ///< "arch/bench" -> golden put line
  std::vector<Config> misses;                   ///< shuffled unique miss configs
  std::size_t next_miss[kClients] = {};         ///< client c takes c, c+2, ...
  std::uint64_t plan_seed = 0;
  std::uint64_t round = 0;

  Impl(const Ctx& c, std::string d) : ctx(c), dir(std::move(d)) {}

  void plan(std::uint64_t seed) {
    if (!misses.empty() && plan_seed == seed) return;
    plan_seed = seed;
    misses.clear();
    for (const sim::Architecture a : sim::all_architectures()) {
      for (const std::string& b : sttgpu::workload::benchmark_names()) {
        for (int k = kMissScaleMin; k <= kMissScaleMax; k += kMissScaleStep) {
          char scale[16];
          std::snprintf(scale, sizeof scale, "%.4f", k / 1e4);
          misses.push_back({sim::make_arch(a).name, b, scale});
        }
      }
    }
    std::mt19937_64 rng(seed);
    std::shuffle(misses.begin(), misses.end(), rng);
    for (std::size_t c = 0; c < kClients; ++c) next_miss[c] = c;
  }

  void client_loop(unsigned c, Clock::time_point deadline, std::vector<Done>& done,
                   Outcome& out, std::mutex& out_mu) {
    std::mt19937_64 rng(plan_seed * 0x9E3779B97F4A7C15ull + round * kClients + c + 1);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    std::uniform_int_distribution<std::size_t> pick(0, hits.size() - 1);
    const std::string sock = server->socket_path();
    while (Clock::now() < deadline) {
      Done d;
      d.miss = coin(rng) < kMissShare && next_miss[c] < misses.size();
      if (d.miss) {
        d.cfg = misses[next_miss[c]];
        next_miss[c] += kClients;
      } else {
        d.cfg = hits[pick(rng)];
      }
      try {
        const auto t0 = Clock::now();
        Span span("serve.submission");
        sttgpu::JsonValue ack;
        {
          Span s("serve.submit");
          ack = serve::Client::connect(sock).request(submit_request(d.cfg));
        }
        d.id = ack.at("id").as_int();
        span.set_sub_id(static_cast<std::uint64_t>(d.id));
        const bool was_hit = ack.at("hits").as_int() == ack.at("total").as_int();
        sttgpu::JsonValue fin;
        {
          Span s("serve.watch", static_cast<std::uint64_t>(d.id));
          fin = serve::Client::connect(sock).stream(
              id_request("watch", d.id), [&](const std::string&, const sttgpu::JsonValue& ev) {
                if (ev.at("event").as_string() == "done") d.row = ev.at("row").as_string();
              });
        }
        d.latency_ms = ms_between(t0, Clock::now());
        std::lock_guard<std::mutex> lk(out_mu);
        ++out.attempted;
        if (fin.at("state").as_string() != "complete" || fin.at("failed").as_int() != 0) {
          out.fail("serve: submission " + std::to_string(d.id) + " ended " +
                   fin.at("state").as_string());
        } else if (was_hit == d.miss) {
          out.fail("serve: " + d.cfg.arch + "/" + d.cfg.bench + " scale " + d.cfg.scale +
                   (d.miss ? " was a store hit, expected a miss" : " missed the seeded store"));
        } else {
          done.push_back(std::move(d));
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(out_mu);
        ++out.attempted;
        out.fail(std::string("serve: submission threw: ") + e.what());
      }
    }
  }
};

ServeSession::ServeSession(const Ctx& ctx, std::string dir)
    : impl_(std::make_unique<Impl>(ctx, std::move(dir))) {
  Impl& s = *impl_;
  fresh_dir(s.dir);
  const std::string csv = s.dir + "/fig8_cache.csv";
  std::vector<store::ResultRow> rows;
  for (const sim::Metrics& m : ctx.fig8_rows) {
    rows.push_back(sim::to_store_row(m));
    s.hits.push_back({m.arch, m.benchmark, "0.5"});
    s.hit_rows[m.arch + "/" + m.benchmark] = store::encode_put(ctx.fingerprint, 0.5, rows.back());
  }
  {
    Span span("store.put_many");
    store::ResultStore seeded(store::ResultStore::derive_path(csv));
    seeded.put_many(ctx.fingerprint, 0.5, rows);
  }
  serve::ServerOptions so;
  so.socket_path = s.dir + "/s.sock";
  so.cache_path = csv;
  so.jobs = 2;
  so.sandbox = true;
  Span span("serve.start");
  s.server = std::make_unique<serve::SweepServer>(std::move(so));
  s.server->start();
}

ServeSession::~ServeSession() {
  // stop() joins the accept loop, which sees the stop only when its 200 ms
  // poll returns. Whether that poll was already entered depends on thread
  // scheduling, so repeated set-ups would run either back to back or 200 ms
  // apart, run by run. Connection attempts wake the poll at once.
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    impl_->server->stop();
    stopped = true;
  });
  while (!stopped) {
    try {
      serve::Client::connect(impl_->server->socket_path());
    } catch (const std::exception&) {
      // the listener is already closed
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stopper.join();
  impl_->server.reset();
  std::error_code ec;
  std::filesystem::remove_all(impl_->dir, ec);
}

ServeResult ServeSession::run(double seconds, std::uint64_t seed, Outcome& out) {
  Impl& s = *impl_;
  s.plan(seed);
  std::vector<Done> done;
  std::mutex out_mu;
  // The server's counters are cumulative; report only what this loop added.
  const serve::ServerStats before = s.server->stats();
  const auto t0 = Clock::now();
  const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] { s.client_loop(c, deadline, done, out, out_mu); });
    }
    for (std::thread& t : clients) t.join();
  }
  const serve::ServerStats after = s.server->stats();
  ++s.round;
  ServeResult r;
  r.store_hits = after.store_hits - before.store_hits;
  r.tasks_simulated = after.tasks_simulated - before.tasks_simulated;
  r.shed = after.shed - before.shed;
  r.child_crashes = after.child_crashes - before.child_crashes;
  r.task_retries = after.task_retries - before.task_retries;
  r.elapsed_s = seconds_since(t0);
  r.completed = done.size();
  if (r.completed > 0) r.per_submission_s = kClients * r.elapsed_s / static_cast<double>(r.completed);

  // Verification, outside the timed window: a hit must return its seeded
  // row; a miss must equal an in-process run of the same config.
  std::vector<const Done*> miss_list;
  for (const Done& d : done) {
    if (d.miss) {
      miss_list.push_back(&d);
      r.miss_ms.push_back(d.latency_ms);
      continue;
    }
    r.hit_ms.push_back(d.latency_ms);
    try {
      const sttgpu::JsonValue res =
          serve::Client::connect(s.server->socket_path()).request(id_request("result", d.id));
      const sttgpu::JsonValue& rows = res.at("rows");
      const std::string& want = s.hit_rows.at(d.cfg.arch + "/" + d.cfg.bench);
      if (rows.size() != 1 || rows.at(0).as_string() != want) {
        out.fail("serve: hit row of " + d.cfg.arch + "/" + d.cfg.bench + " differs from fig8_cache.csv");
      }
    } catch (const std::exception& e) {
      out.fail(std::string("serve: result request threw: ") + e.what());
    }
  }
  r.golden_sims.resize(miss_list.size());
  std::vector<std::string> golden_rows(miss_list.size());
  std::vector<sim::Job> jobs;
  for (std::size_t i = 0; i < miss_list.size(); ++i) {
    jobs.push_back({miss_list[i]->cfg.arch + "/" + miss_list[i]->cfg.bench, [&, i] {
                      const Config& c = miss_list[i]->cfg;
                      const double scale = std::stod(c.scale);
                      const sim::ArchSpec spec =
                          sim::make_arch(sim::architecture_from_string(c.arch));
                      const auto w = sttgpu::workload::make_benchmark(c.bench, scale);
                      GpuSample& g = r.golden_sims[i];
                      const auto t = Clock::now();
                      const sim::Metrics m = sim::run_one_detailed(spec, w, g.run);
                      g.host_s = seconds_since(t);
                      golden_rows[i] = store::encode_put(s.ctx.fingerprint, scale, sim::to_store_row(m));
                    }, {}});
  }
  try {
    sim::run_jobs(std::move(jobs), s.ctx.jobs);
  } catch (const std::exception& e) {
    out.fail(std::string("serve: in-process rerun of a miss threw: ") + e.what());
  }
  for (std::size_t i = 0; i < miss_list.size(); ++i) {
    if (miss_list[i]->row != golden_rows[i]) {
      const Config& c = miss_list[i]->cfg;
      out.fail("serve: miss row of " + c.arch + "/" + c.bench + " scale " + c.scale +
               " differs from the in-process run");
    }
  }

  return r;
}

std::vector<double> ServeSession::ack_ms(unsigned n, Outcome& out) {
  Impl& s = *impl_;
  std::vector<double> ms;
  for (unsigned i = 0; i < n; ++i) {
    const Config& c = s.hits[i % s.hits.size()];
    try {
      const auto t0 = Clock::now();
      {
        Span span("serve.submit");
        serve::Client::connect(s.server->socket_path()).request(submit_request(c));
      }
      ms.push_back(ms_between(t0, Clock::now()));
    } catch (const std::exception& e) {
      out.fail(std::string("serve: ack probe threw: ") + e.what());
    }
  }
  return ms;
}

void report_serve(const ServeResult& r, const std::string& prefix, Outcome& out) {
  auto latency = [&](const std::string& name, const std::vector<double>& ms) {
    if (ms.empty()) return;
    out.metric(prefix + name + "_p50_ms", median(ms), "ms");
    if (const auto t = tail(ms)) {
      out.metric(prefix + name + "_tail_ms", t->value, "ms");
      std::ostringstream os;
      os.precision(4);
      os << prefix << name << "_tail_ms is p" << t->percentile << " of n=" << t->samples;
      out.notes.push_back(os.str());
    } else {
      out.notes.push_back(prefix + name + "_tail_ms: n=" + std::to_string(ms.size()) +
                          " has no percentile with ten samples beyond it");
    }
  };
  latency("hit", r.hit_ms);
  latency("miss", r.miss_ms);
  if (r.elapsed_s > 0.0) {
    out.metric(prefix + "submits_per_s", static_cast<double>(r.completed) / r.elapsed_s, "1/s");
  }
}

}  // namespace perfbench
