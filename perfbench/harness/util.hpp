// Small pure helpers of the benchmark harness: order statistics over timing
// samples, and the golden-value file format the correctness checks read.
// Header-only so the unit tests in perfbench/tests link nothing else.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Median with the midpoint rule for an even count. Throws on no samples.
inline double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The tail statistic the benchmark reports next to every median: the
/// highest sample that still has at least ten samples above it, together
/// with its percentile rank (the share of samples at or below it, in %)
/// and the sample count. Empty when there are fewer than eleven samples.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

inline std::optional<Tail> tail(std::vector<double> v) {
  constexpr std::size_t kBeyond = 10;
  if (v.size() <= kBeyond) return std::nullopt;
  std::sort(v.begin(), v.end());
  const std::size_t i = v.size() - kBeyond - 1;
  return Tail{v[i], 100.0 * static_cast<double>(i + 1) / static_cast<double>(v.size()),
              v.size()};
}

/// FNV-1a 64-bit over a byte string (the simulator's own config hash).
inline std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Golden values are "key=value" lines; '#' starts a comment line. Values
/// are compared as exact strings, so counters and %.17g doubles round-trip.
using Golden = std::map<std::string, std::string>;

inline Golden parse_golden(std::istream& in) {
  Golden g;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::runtime_error("golden line " + std::to_string(lineno) + " is not key=value");
    }
    if (!g.emplace(line.substr(0, eq), line.substr(eq + 1)).second) {
      throw std::runtime_error("golden key '" + line.substr(0, eq) + "' repeated");
    }
  }
  return g;
}

/// Compares @p observed against the golden entries whose key starts with
/// @p prefix. Returns one message per mismatch: a golden key the run did not
/// produce, a value that differs, or an observed key with no golden value.
inline std::vector<std::string> compare_golden(const Golden& golden, const Golden& observed,
                                               const std::string& prefix) {
  std::vector<std::string> bad;
  for (auto it = golden.lower_bound(prefix);
       it != golden.end() && it->first.compare(0, prefix.size(), prefix) == 0; ++it) {
    const auto o = observed.find(it->first);
    if (o == observed.end()) {
      bad.push_back(it->first + ": missing (golden " + it->second + ")");
    } else if (o->second != it->second) {
      bad.push_back(it->first + ": " + o->second + " != golden " + it->second);
    }
  }
  for (const auto& [key, value] : observed) {
    if (golden.find(key) == golden.end()) bad.push_back(key + ": no golden value (" + value + ")");
  }
  return bad;
}

/// Shortest text that reads back as the same double.
inline std::string exact(double d) {
  std::ostringstream os;
  os.precision(17);
  os << d;
  return os.str();
}

}  // namespace perfbench
