// Unit tests of the benchmark harness helpers: median and tail percentile,
// the golden-file parser and comparison, and per-layer self time.
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>

#include "tracer.hpp"
#include "util.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_median() {
  using perfbench::median;
  expect(near(median({3.0}), 3.0), "median of one sample");
  expect(near(median({5.0, 1.0, 3.0}), 3.0), "median of an odd count sorts first");
  expect(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "median of an even count is the midpoint");
  bool threw = false;
  try {
    median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "median of no samples throws");
}

void test_tail() {
  using perfbench::tail;
  std::vector<double> ten(10, 1.0);
  expect(!tail(ten).has_value(), "ten samples have no percentile with ten beyond it");

  std::vector<double> eleven;
  for (int i = 11; i >= 1; --i) eleven.push_back(i);
  const auto t11 = tail(eleven);
  expect(t11 && near(t11->value, 1.0), "eleven samples: the tail is the minimum");
  expect(t11 && t11->samples == 11, "tail reports the sample count");

  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  const auto t = tail(thousand);
  expect(t && near(t->value, 990.0), "n=1000: the tail is the 990th value");
  expect(t && near(t->percentile, 99.0), "n=1000: the tail is p99");
}

void test_golden() {
  std::istringstream in("# comment\na.x=1\na.y=2.5\nb.z=7\n");
  const perfbench::Golden g = perfbench::parse_golden(in);
  expect(g.size() == 3 && g.at("a.y") == "2.5", "parse keeps key=value lines, skips comments");

  perfbench::Golden same{{"a.x", "1"}, {"a.y", "2.5"}};
  expect(perfbench::compare_golden(g, same, "a.").empty(), "equal values compare clean");

  perfbench::Golden differs{{"a.x", "1"}, {"a.y", "2.6"}};
  const auto bad = perfbench::compare_golden(g, differs, "a.");
  expect(bad.size() == 1 && bad[0].rfind("a.y:", 0) == 0, "a differing value is reported");

  perfbench::Golden missing{{"a.x", "1"}};
  expect(perfbench::compare_golden(g, missing, "a.").size() == 1, "a missing key is reported");

  perfbench::Golden extra{{"a.x", "1"}, {"a.y", "2.5"}, {"a.w", "0"}};
  expect(perfbench::compare_golden(g, extra, "a.").size() == 1,
         "an observed key without a golden value is reported");

  bool threw = false;
  std::istringstream dup("k=1\nk=2\n");
  try {
    perfbench::parse_golden(dup);
  } catch (const std::runtime_error&) {
    threw = true;
  }
  expect(threw, "a repeated golden key is rejected");

  expect(perfbench::exact(0.1) == "0.10000000000000001", "exact() round-trips a double");
  expect(perfbench::fnv1a64("") == 0xcbf29ce484222325ull, "fnv1a64 of nothing is the offset basis");
}

void test_self_time() {
  using perfbench::SpanRecord;
  // parent [0,10) with children [1,3) and [2,5) (overlapping) and [8,12)
  // (clipped to the parent): covered = [1,5) + [8,10) = 6, so self = 4.
  std::vector<SpanRecord> spans = {
      {"sim.matrix", 0.0, 10.0, -1, 0, 0},
      {"gpu.run", 1.0, 3.0, 0, 0, 0},
      {"gpu.run", 2.0, 5.0, 0, 0, 0},
      {"store.put", 8.0, 12.0, 0, 0, 0},
  };
  const auto self = perfbench::layer_self_seconds(spans);
  expect(near(self.at("sim"), 4.0), "self time subtracts the union of child spans");
  expect(near(self.at("gpu"), 5.0), "leaf spans are all self time");
  expect(near(self.at("store"), 4.0), "a child's own self time is its full duration");
}

}  // namespace

int main() {
  test_median();
  test_tail();
  test_golden();
  test_self_time();
  if (g_failures == 0) std::cout << "perfbench_tests: all passed\n";
  return g_failures == 0 ? 0 : 1;
}
