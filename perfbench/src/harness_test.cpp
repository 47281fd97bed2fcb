// Self-test of the benchmark's own math: medians, the result line
// and the span table's self-time partition. run.py runs it before every
// benchmark run; it exits non-zero on the first failed expectation.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cerr << "perfbench_selftest: FAILED " << what << "\n";
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b)); }

void medians() {
  using perfbench::median;
  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd median");
  expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median averages the middle pair");
}

void result_line() {
  perfbench::Result r;
  r.attempted = 2;
  r.set("x", "s", 0.1234567890123);
  r.set("x", "s", 1.0 / 3.0);  // replaces, keeps one entry
  r.set("y", "bytes", 1e300 * 1e300);
  expect(r.metrics.size() == 2, "set() replaces by name");
  expect(!r.correct && r.metrics[1].value == 0.0, "a non-finite metric fails the run");
  const std::string json = r.json();
  expect(json.find("\"x\": {\"value\": 0.33333333333333331, \"unit\": \"s\"}") !=
             std::string::npos,
         "values print with all their digits: " + json);
  expect(json.rfind("{\"correct\": false, \"attempted\": 2, \"failed\": 0, \"metrics\": {", 0) == 0,
         "result keys and order: " + json);
}

void busy(double seconds) {
  const double end = perfbench::wall_now() + seconds;
  while (perfbench::wall_now() < end) {
  }
}

void span_partition() {
  perfbench::Spans off(false);
  {
    perfbench::Spans::Scope s(off, "step", 0);
  }
  expect(off.root_total_s() == 0.0 && off.self_times("r").empty(), "disabled spans record nothing");

  perfbench::Spans spans(true);
  for (int step = 0; step < 3; ++step) {
    perfbench::Spans::Scope root(spans, "step", step);
    busy(1e-4);
    {
      perfbench::Spans::Scope a(spans, "layer.a", step);
      busy(2e-4);
      perfbench::Spans::Scope nested(spans, "layer.b", step);
      busy(1e-4);
    }
    perfbench::Spans::Scope b(spans, "layer.b", step);
    busy(1e-4);
  }
  double sum = 0.0, shares = 0.0;
  for (const perfbench::Spans::Row& row : spans.self_times("residual")) {
    expect(row.self_s > 0.0, "positive self time for " + row.name);
    sum += row.self_s;
    shares += spans.share(row.name, "residual");
  }
  const auto rows = spans.self_times("residual");
  expect(rows.size() == 3 && rows[0].name == "residual" && rows[0].count == 3 &&
             rows[2].name == "layer.b" && rows[2].count == 6,
         "rows by name with counts, root spans as the residual");
  expect(near(sum, spans.root_total_s()), "self times partition the root wall");
  expect(near(shares, 1.0), "shares sum to 1");
  expect(spans.share("absent", "residual") == 0.0, "absent layer has share 0");
}

}  // namespace

int main() {
  medians();
  result_line();
  span_partition();
  if (failures == 0) std::cerr << "perfbench_selftest: ok\n";
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
