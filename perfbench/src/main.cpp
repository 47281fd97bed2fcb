// fpdt_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload in this process and prints, as the last line of stdout,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
// metrics.h for --trace 0, the per-layer ones for --trace 1. Diagnostics and
// the traced run's per-layer table go to stderr.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "kernels/backend.h"
#include "metrics.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Result;

int usage(const std::string& why) {
  std::cerr << "fpdt_perfbench: " << why
            << "\nusage: fpdt_perfbench --workload train-longctx|train-wide|serve-paged|"
               "paper-sweep --seed N --seconds S --trace 0|1\n";
  return 2;
}

// Keeps exactly the metrics of the run's kind, in declaration order. An
// end-to-end metric the workload did not produce is a defect; a layer it
// does not exercise reads 0.
template <std::size_t N>
void select_metrics(Result& res, const perfbench::MetricDef (&defs)[N], bool required) {
  std::vector<perfbench::Metric> kept;
  for (const perfbench::MetricDef& d : defs) {
    auto it = std::find_if(res.metrics.begin(), res.metrics.end(),
                           [&](const perfbench::Metric& m) { return m.name == d.name; });
    if (it == res.metrics.end()) {
      if (required) res.check(false, std::string("workload did not report ") + d.name);
      kept.push_back({d.name, d.unit, 0.0});
    } else {
      res.check(it->unit == d.unit, std::string("unit mismatch for ") + d.name);
      kept.push_back(*it);
    }
  }
  res.metrics = std::move(kept);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && opt.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) return usage("bad or missing flag value");

  Result (*run)(const Options&) = nullptr;
  if (opt.workload == "train-longctx" || opt.workload == "train-wide") {
    run = perfbench::run_train;
  } else if (opt.workload == "serve-paged") {
    run = perfbench::run_serve;
  } else if (opt.workload == "paper-sweep") {
    run = perfbench::run_sweep;
  } else {
    return usage("unknown workload '" + opt.workload + "'");
  }

  // At most four host threads, all kernels on the simd backend.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  fpdt::set_parallel_workers(static_cast<int>(std::min(4u, hw)));
  fpdt::kernels::set_active("simd");
  std::cerr << "perfbench: workload " << opt.workload << " seed " << opt.seed << " seconds "
            << opt.seconds << " trace " << opt.trace << " | nproc " << hw << " threads "
            << fpdt::parallel_workers() << " backend " << fpdt::kernels::active_name()
            << " avx2 " << fpdt::kernels::simd_uses_avx2() << " build "
            << FPDT_PERFBENCH_BUILD_TYPE << "\n";

  Result res;
  try {
    res = run(opt);
  } catch (const std::exception& e) {
    std::cerr << "fpdt_perfbench: " << e.what() << "\n";
    return 1;
  }
  if (opt.trace) {
    select_metrics(res, perfbench::kPerLayer, /*required=*/false);
  } else {
    select_metrics(res, perfbench::kEndToEnd, /*required=*/true);
  }
  for (const std::string& p : res.problems) std::cerr << "perfbench: CHECK FAILED: " << p << "\n";
  std::cout << res.json() << std::endl;
  return 0;
}
