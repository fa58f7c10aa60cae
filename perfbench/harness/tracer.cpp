#include "tracer.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/json.hpp"

namespace perfbench {
namespace {

thread_local std::vector<std::size_t> t_open;  // this thread's open span indices

std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

std::size_t Tracer::open(std::string name, std::uint64_t sub_id) {
  SpanRecord r;
  r.name = std::move(name);
  r.parent = t_open.empty() ? -1 : static_cast<std::int64_t>(t_open.back());
  r.sub_id = sub_id;
  r.thread = thread_ordinal();
  std::size_t index = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    r.start_s = now();
    index = spans_.size();
    spans_.push_back(std::move(r));
  }
  t_open.push_back(index);
  return index;
}

void Tracer::close(std::size_t index) {
  const double t = now();
  {
    std::lock_guard<std::mutex> lk(mu_);
    spans_[index].end_s = t;
  }
  const auto it = std::find(t_open.rbegin(), t_open.rend(), index);
  if (it != t_open.rend()) t_open.erase(std::next(it).base());
}

void Tracer::set_sub_id(std::size_t index, std::uint64_t sub_id) {
  std::lock_guard<std::mutex> lk(mu_);
  spans_[index].sub_id = sub_id;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

void Tracer::write_json(std::ostream& os) const {
  const std::vector<SpanRecord> all = spans();
  sttgpu::JsonWriter w(os);
  w.begin_array();
  for (const SpanRecord& s : all) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("start_s").value(s.start_s);
    w.key("end_s").value(s.end_s);
    w.key("parent").value(s.parent);
    if (s.sub_id != 0) w.key("submission").value(s.sub_id);
    w.key("thread").value(s.thread);
    w.end_object();
  }
  w.end_array();
  os << "\n";
}

Span::Span(const char* name, std::uint64_t sub_id) {
  Tracer& t = Tracer::instance();
  if (t.enabled()) index_ = static_cast<std::int64_t>(t.open(name, sub_id));
}

Span::~Span() {
  if (index_ >= 0) Tracer::instance().close(static_cast<std::size_t>(index_));
}

void Span::set_sub_id(std::uint64_t sub_id) {
  if (index_ >= 0) Tracer::instance().set_sub_id(static_cast<std::size_t>(index_), sub_id);
}

std::map<std::string, double> layer_self_seconds(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    // Union of the children's intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo0, hi0] : kids) {
      const double lo = std::max(lo0, s.start_s), hi = std::min(hi0, s.end_s);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return self;
}

}  // namespace perfbench
