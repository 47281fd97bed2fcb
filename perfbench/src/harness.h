// Shared plumbing of the benchmark driver: options, the result record that
// becomes the final JSON line, host clocks, order statistics and the span
// recorder of traced runs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// What one run reports. Operations that throw or produce a wrong value
// count in `failed`; a failed correctness check clears `correct` and names
// itself in `problems`.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void set(const std::string& name, const std::string& unit, double value);
  void check(bool ok, const std::string& what);
  std::string json() const;
};

// Host clocks: steady wall seconds, process CPU seconds (all threads) and
// CPU seconds of the calling thread.
double wall_now();
double cpu_now();
double thread_cpu_now();

// Process high-water resident set (VmHWM), bytes.
std::int64_t peak_rss_bytes();

// Median of a copy of the samples; 0 for an empty sample.
double median(std::vector<double> v);

// Runs `setup` `n` times, returning the median of the durations it reports
// (main-thread CPU seconds, for the reason HostTimes gives). Each call builds
// the workload afresh, so the last one is what the timed loop uses.
template <typename F>
double median_setup(int n, F&& setup) {
  std::vector<double> s;
  for (int i = 0; i < n; ++i) s.push_back(setup());
  return median(s);
}

// The timed loop: op(traced) at least three times and until opt.seconds
// have passed. A traced run alternates untraced and traced operations, so
// the tracing overhead is measured in one process.
template <typename Op>
void timed_loop(const Options& opt, Op&& op) {
  const double start = wall_now();
  for (int n = 0; n < 3 || wall_now() - start < opt.seconds; ++n) op(opt.trace && n % 2 == 1);
}

// Host times of a set of operations: wall, process CPU, CPU of the thread
// that drives them (`main`), and the parallel efficiency CPU / (wall x
// workers) of each.
//
// The main thread runs an operation's serial parts and claims its share of
// every fork-join. Its CPU clock stops while it waits in a join and, on a
// virtual machine that accounts steal time, while the hypervisor has taken
// its virtual CPU away. So main-thread CPU tracks what the operation's wall
// time would be on an unshared host, while the wall itself stretches with
// the host's steal time.
struct HostTimes {
  std::vector<double> wall, cpu, main, efficiency;
};

template <typename Record>
HostTimes host_times(const std::vector<Record>& records, int workers) {
  HostTimes t;
  for (const Record& r : records) {
    t.wall.push_back(r.wall_s);
    t.cpu.push_back(r.cpu_s);
    t.main.push_back(r.main_s);
    t.efficiency.push_back(r.cpu_s / (r.wall_s * workers));
  }
  return t;
}

// Spans recorded around the benchmark's own calls into each layer: name,
// start, end, parent and a step/session id, kept in memory until the run
// ends. Disabled recorders record nothing. Self time of a span = its
// duration minus its direct children's; the self time of a root span is the
// harness residual between layer calls.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope(Spans& spans, const char* name, std::int64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    int index_;
  };

  struct Row {
    std::string name;
    std::int64_t count = 0;
    double self_s = 0.0;
  };
  // Per-name self time, in first-seen order. Root spans appear under
  // `residual_name`.
  std::vector<Row> self_times(const std::string& residual_name) const;
  // Sum of root span durations (the wall the table partitions).
  double root_total_s() const;
  // Self time of `name` as a share of root_total_s(); 0 when absent.
  double share(const std::string& name, const std::string& residual_name) const;
  // Per-layer table: self time, count and share of the root wall.
  void print(std::ostream& os, const std::string& residual_name) const;
  // Adds another recorder's spans (one per worker thread) as further roots.
  void append(const Spans& other);

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::int64_t id = 0;
  };
  bool enabled_;
  std::vector<Span> spans_;
  int open_ = -1;  // innermost open span
};

}  // namespace perfbench
