#include "sim/report.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace sttgpu::sim {
namespace {

Metrics sample_metrics() {
  Metrics m;
  m.arch = "C1";
  m.benchmark = "bfs";
  m.ipc = 2.5;
  m.cycles = 1000;
  m.dynamic_w = 0.4;
  m.leakage_w = 0.1;
  m.total_w = 0.5;
  m.l2_write_share = 0.3;
  m.l2_miss_rate = 0.2;
  return m;
}

TEST(Report, MetricsJsonHasAllFields) {
  std::ostringstream os;
  write_metrics_json(os, sample_metrics());
  const std::string out = os.str();
  for (const char* field : {"\"arch\":\"C1\"", "\"benchmark\":\"bfs\"", "\"ipc\":2.5",
                            "\"cycles\":1000", "\"total_w\":0.5"}) {
    EXPECT_NE(out.find(field), std::string::npos) << out;
  }
}

TEST(Report, MatrixJsonWrapsRuns) {
  std::ostringstream os;
  write_matrix_json(os, {sample_metrics(), sample_metrics()});
  const std::string out = os.str();
  EXPECT_EQ(out.find("{\"runs\":["), 0u);
  EXPECT_EQ(out.rfind("]}"), out.size() - 2);
}

TEST(Report, RunJsonIncludesCountersAndEnergy) {
  const ArchSpec spec = make_arch(Architecture::kC1);
  const workload::Workload w = workload::make_benchmark("hotspot", 0.04);
  gpu::RunResult run;
  const Metrics m = run_one_detailed(spec, w, run);

  std::ostringstream os;
  write_run_json(os, m, run);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"counters\""), std::string::npos);
  EXPECT_NE(out.find("\"w_demand\""), std::string::npos);
  EXPECT_NE(out.find("\"energy_pj\""), std::string::npos);
  EXPECT_NE(out.find("l2.hr.data_write"), std::string::npos);
  EXPECT_NE(out.find("\"sm\""), std::string::npos);
}

TEST(Report, DetailedRunMatchesPlainRun) {
  const ArchSpec spec = make_arch(Architecture::kSramBaseline);
  const workload::Workload w = workload::make_benchmark("nw", 0.04);
  gpu::RunResult run;
  const Metrics detailed = run_one_detailed(spec, w, run);
  const Metrics plain = run_one(spec, w);
  EXPECT_EQ(detailed.cycles, plain.cycles);
  EXPECT_DOUBLE_EQ(detailed.ipc, plain.ipc);
  EXPECT_EQ(run.cycles, detailed.cycles);
}

TEST(Report, FaultRunAboveSpecMarginOmitsPrediction) {
  // fault_accel above the spec margin (20) takes the effective margin below
  // analyze_reliability's minimum of 1: the run must still report its
  // injected counts, without an analytic prediction.
  const ArchSpec spec = make_arch(Architecture::kC1);
  const workload::Workload w = workload::make_benchmark("bfs", 0.05);
  for (const double accel : {20.0, 21.0}) {
    RunOptions opts;
    opts.faults.enabled = true;
    opts.faults.accel = accel;
    FaultSummary s;
    opts.inspect = [&s](gpu::Gpu& g) { s = collect_fault_summary(g); };
    gpu::RunResult run;
    Metrics m;
    ASSERT_NO_THROW(m = run_one_detailed(spec, w, run, opts)) << "accel " << accel;
    ASSERT_TRUE(s.enabled);
    EXPECT_GT(s.trials, 0u);
    EXPECT_EQ(s.has_prediction(), accel <= 20.0) << "accel " << accel;

    std::ostringstream os;
    write_run_json(os, m, run, &s);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"injected_collapses\""), std::string::npos);
    EXPECT_EQ(out.find("\"predicted_collapses\"") != std::string::npos, accel <= 20.0)
        << "accel " << accel;
  }
}

}  // namespace
}  // namespace sttgpu::sim
