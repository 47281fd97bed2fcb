#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace perfbench {

void Result::set(const std::string& name, const std::string& unit, double value) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.unit = unit;
      m.value = value;
      return;
    }
  }
  metrics.push_back({name, unit, value});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  problems.push_back(what);
}

std::string Result::json() const {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double wall_now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double thread_cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::int64_t peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return 1024 * std::stoll(line.substr(6));  // reported in kB
    }
  }
  return 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Spans::Scope::Scope(Spans& spans, const char* name, std::int64_t id)
    : spans_(&spans), index_(-1) {
  if (!spans.enabled_) return;
  index_ = static_cast<int>(spans.spans_.size());
  spans.spans_.push_back({name, 0.0, 0.0, spans.open_, id});
  spans.open_ = index_;
  spans.spans_.back().start = wall_now();  // last, so bookkeeping stays outside
}

Spans::Scope::~Scope() {
  if (index_ < 0) return;
  const double end = wall_now();
  Span& s = spans_->spans_[static_cast<std::size_t>(index_)];
  s.end = end;
  spans_->open_ = s.parent;
}

std::vector<Spans::Row> Spans::self_times(const std::string& residual_name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::vector<Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string name = s.parent < 0 ? residual_name : s.name;
    auto it = std::find_if(rows.begin(), rows.end(), [&](const Row& r) { return r.name == name; });
    if (it == rows.end()) {
      rows.push_back({name, 0, 0.0});
      it = rows.end() - 1;
    }
    it->count += 1;
    it->self_s += (s.end - s.start) - child[i];
  }
  return rows;
}

double Spans::root_total_s() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end - s.start;
  }
  return total;
}

double Spans::share(const std::string& name, const std::string& residual_name) const {
  const double total = root_total_s();
  if (total <= 0.0) return 0.0;
  for (const Row& r : self_times(residual_name)) {
    if (r.name == name) return r.self_s / total;
  }
  return 0.0;
}

void Spans::append(const Spans& other) {
  const int offset = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(std::move(s));
  }
}

void Spans::print(std::ostream& os, const std::string& residual_name) const {
  const double total = root_total_s();
  char line[160];
  std::snprintf(line, sizeof line, "%-28s %8s %14s %8s\n", "layer (self time)", "count",
                "self_s", "share");
  os << line;
  double sum = 0.0;
  for (const Row& r : self_times(residual_name)) {
    sum += r.self_s;
    std::snprintf(line, sizeof line, "%-28s %8lld %14.6f %7.2f%%\n", r.name.c_str(),
                  static_cast<long long>(r.count), r.self_s,
                  total > 0.0 ? 100.0 * r.self_s / total : 0.0);
    os << line;
  }
  std::snprintf(line, sizeof line, "%-28s %8s %14.6f %7.2f%%  (root wall %.6f s)\n", "sum", "",
                sum, total > 0.0 ? 100.0 * sum / total : 0.0, total);
  os << line;
}

}  // namespace perfbench
