// paper-sweep: closed-loop pricing of the paper grid through perfmodel
// (max_sequence + evaluate), the canonical paper point and a topo
// weak-scaling sweep. The only workload that exercises sim/perfmodel/topo.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "nn/model_config.h"
#include "perfmodel/evaluate.h"
#include "perfmodel/memory_model.h"
#include "perfmodel/strategy.h"
#include "sim/hardware.h"
#include "topo/topo_model.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace fpdt;
using perfmodel::Strategy;

struct Point {
  nn::ModelConfig model;
  Strategy strategy;
  int gpus = 0;
};

// The six paper models x the `fpdt plan` strategies x 4-32 GPUs. The grid is
// the paper's; the seed only shuffles the order it is priced in.
std::vector<Point> paper_grid(std::uint64_t seed) {
  std::vector<Point> grid;
  for (const char* name :
       {"gpt-2.7b", "gpt-6.7b", "gpt-13b", "gpt-30b", "llama-8b", "llama-70b"}) {
    const nn::ModelConfig cfg = nn::model_by_name(name);
    for (const Strategy& st :
         {Strategy::megatron_tp(true, true), Strategy::megatron_sp(), Strategy::ulysses(3, true, true),
          Strategy::mst(), Strategy::fpdt_chunking_only(), Strategy::fpdt()}) {
      for (const int gpus : {4, 8, 16, 32}) grid.push_back({cfg, st, gpus});
    }
  }
  Rng rng(seed);
  for (std::size_t i = grid.size(); i > 1; --i) {
    std::swap(grid[i - 1], grid[rng.next_below(i)]);
  }
  return grid;
}

struct Sweep {
  std::int64_t points = 0;
  std::int64_t bad = 0;                // points that fail sane()
  std::vector<std::int64_t> max_ctx;   // per grid point, in grid order
  std::vector<double> mfu;             // per grid point at max_ctx; 0 when none fits
  std::vector<char> bad_point;         // per grid point
  perfmodel::Evaluation canonical;     // llama-8b, 8 GPUs, 1M, 64K chunk
  std::int64_t canonical_max_ctx = 0;  // llama-8b FPDT at 8 GPUs
  bool weak_scaling_ok = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double main_s = 0.0;
};

// A priced point is sane when its step time is finite and positive and its
// MFU lies in (0, 1].
bool sane(const perfmodel::Evaluation& ev) {
  return std::isfinite(ev.step_s) && ev.step_s > 0.0 && std::isfinite(ev.mfu) && ev.mfu > 0.0 &&
         ev.mfu <= 1.0;
}

// One closed-loop operation: the grid, the paper point and the weak-scaling
// sweep as tasks that the worker threads claim one at a time, so the
// points' unequal costs balance. Each worker records into its own spans.
Sweep price(const std::vector<Point>& grid, const sim::HardwareSpec& hw,
            std::vector<Spans>& spans, std::int64_t id) {
  const std::size_t n = grid.size();
  const nn::ModelConfig llama = nn::llama_8b();
  Strategy fpdt = Strategy::fpdt();
  fpdt.fpdt_chunk_tokens = 64 * 1024;
  topo::TopoModelOptions topt;
  topt.model = nn::gpt_6p7b();
  Sweep sw;
  sw.max_ctx.assign(n, 0);
  sw.mfu.assign(n, 0.0);
  sw.bad_point.assign(n, 0);
  std::vector<topo::ScalingRow> rows;
  std::atomic<std::size_t> next{0};
  const double w0 = wall_now();
  const double c0 = cpu_now();
  const double m0 = thread_cpu_now();
  parallel_for_ranks(static_cast<int>(spans.size()), [&](int worker) {
    Spans& sp = spans[static_cast<std::size_t>(worker)];
    Spans::Scope root(sp, "op", id);
    for (std::size_t t = next++; t < n + 2; t = next++) {
      if (t == n) {
        {
          Spans::Scope s(sp, "perfmodel.evaluate", id);
          sw.canonical = perfmodel::evaluate(llama, fpdt, 8, 1 << 20, hw);
        }
        Spans::Scope s(sp, "perfmodel.max_sequence", id);
        sw.canonical_max_ctx = perfmodel::max_sequence(llama, fpdt, 8, hw);
        continue;
      }
      if (t == n + 1) {
        Spans::Scope s(sp, "topo.weak_scaling", id);
        rows = topo::weak_scaling(hw, 64, 1024, topt);
        continue;
      }
      const Point& p = grid[t];
      std::int64_t len = 0;
      {
        Spans::Scope s(sp, "perfmodel.max_sequence", id);
        len = perfmodel::max_sequence(p.model, p.strategy, p.gpus, hw);
      }
      sw.max_ctx[t] = len;
      if (len == 0) continue;  // OOM at any length is a verdict, not a failure
      Spans::Scope s(sp, "perfmodel.evaluate", id);
      const perfmodel::Evaluation ev = perfmodel::evaluate(p.model, p.strategy, p.gpus, len, hw);
      sw.mfu[t] = ev.mfu;
      sw.bad_point[t] = !sane(ev);
    }
  });
  sw.wall_s = wall_now() - w0;
  sw.cpu_s = cpu_now() - c0;
  sw.main_s = thread_cpu_now() - m0;

  sw.points = static_cast<std::int64_t>(n + 2 + rows.size());
  for (const char b : sw.bad_point) sw.bad += b;
  if (!sane(sw.canonical)) sw.bad += 1;
  if (sw.canonical_max_ctx <= 0) sw.bad += 1;
  for (const topo::ScalingRow& r : rows) {
    const bool ok = std::isfinite(r.hier_step_s) && r.hier_step_s > 0.0 && r.hier_mfu > 0.0 &&
                    r.hier_mfu <= 1.0 && r.flat_mfu > 0.0 && r.flat_mfu <= 1.0;
    if (!ok) sw.bad += 1;
  }
  std::string why;
  sw.weak_scaling_ok = topo::check_weak_scaling(rows, hw, topt.ctx_per_gpu, &why);
  if (!sw.weak_scaling_ok) std::cerr << "perfbench: weak scaling: " << why << "\n";
  return sw;
}

// Calls of `name` per second of its own self time in the traced sweeps.
double calls_per_s(const Spans& spans, const std::string& name) {
  for (const Spans::Row& r : spans.self_times("trace.residual")) {
    if (r.name == name && r.self_s > 0.0) return static_cast<double>(r.count) / r.self_s;
  }
  return 0.0;
}

}  // namespace

Result run_sweep(const Options& opt) {
  Result res;
  const auto workers = static_cast<std::size_t>(parallel_workers());
  std::vector<Spans> off(workers, Spans(false));
  std::vector<Spans> on(workers, Spans(opt.trace));
  const sim::HardwareSpec hw = sim::a100_80g_node();
  std::int64_t next_id = 0;

  // One sweep; its priced points are the counted operations, and a point
  // that fails sane() fails. A sweep that throws fails all of them.
  auto attempt = [&](const std::vector<Point>& grid, std::vector<Spans>& sp, Sweep* out) {
    try {
      *out = price(grid, hw, sp, next_id++);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: sweep failed: " << e.what() << "\n";
      res.attempted += static_cast<std::int64_t>(grid.size());
      res.failed += static_cast<std::int64_t>(grid.size());
      return false;
    }
    res.attempted += out->points;
    res.failed += out->bad;
    return true;
  };

  std::vector<Point> grid;
  const double setup_s = median_setup(5, [&] {
    const double t0 = thread_cpu_now();
    grid = paper_grid(opt.seed);
    Sweep warm;
    attempt(grid, off, &warm);
    return thread_cpu_now() - t0;
  });

  std::vector<Sweep> plain, traced;
  timed_loop(opt, [&](bool tracing) {
    Sweep sw;
    if (attempt(grid, tracing ? on : off, &sw)) {
      (tracing ? traced : plain).push_back(std::move(sw));
    }
  });
  const std::int64_t rss = peak_rss_bytes();

  res.check(!plain.empty(), "no sweep completed");
  if (plain.empty()) return res;
  const Sweep& first = plain.front();
  bool repeat = true;
  for (const auto* set : {&plain, &traced}) {
    for (const Sweep& s : *set) {
      repeat = repeat && s.max_ctx == first.max_ctx && s.mfu == first.mfu &&
               s.canonical.step_s == first.canonical.step_s;
    }
  }
  res.check(repeat, "repeated sweeps priced the grid differently");
  res.check(first.weak_scaling_ok, "weak-scaling sweep breaks its shape contract");
  for (std::size_t t = 0; t < grid.size(); ++t) {
    if (!first.bad_point[t]) continue;
    std::cerr << "perfbench: failed point " << grid[t].model.name << " "
              << grid[t].strategy.label() << " " << grid[t].gpus << " GPUs at "
              << first.max_ctx[t] << " tokens: mfu " << first.mfu[t] << "\n";
  }

  const HostTimes host = host_times(plain, parallel_workers());
  const double wall = median(host.wall);
  const auto points = static_cast<double>(first.points);
  std::cerr << "perfbench: " << plain.size() << " sweeps of " << first.points << " points ("
            << first.bad << " failed), wall min "
            << *std::min_element(host.wall.begin(), host.wall.end()) << " median " << wall
            << " s, main-thread CPU median " << median(host.main) << " s; paper point mfu "
            << first.canonical.mfu << ", llama-8b max context " << first.canonical_max_ctx
            << "\n";

  res.set("setup_s", "s", setup_s);
  res.set("main_thread_throughput", "1/s", points / median(host.main));
  res.set("cpu_s_per_kunit", "s", median(host.cpu) / points * 1000.0);
  res.set("peak_rss_bytes", "bytes", static_cast<double>(rss));
  res.set("hbm_peak_bytes", "bytes", static_cast<double>(first.canonical.memory.device_total()));
  if (!opt.trace) return res;

  res.check(!traced.empty(), "no traced sweep completed");
  if (traced.empty()) return res;
  // The workers' spans together partition the worker-seconds of the traced
  // sweeps.
  Spans spans(true);
  for (const Spans& w : on) spans.append(w);
  res.set("perfmodel.evaluate_per_s", "1/s", calls_per_s(spans, "perfmodel.evaluate"));
  res.set("perfmodel.max_sequence_per_s", "1/s", calls_per_s(spans, "perfmodel.max_sequence"));
  res.set("topo.weak_scaling_per_s", "1/s", calls_per_s(spans, "topo.weak_scaling"));
  res.set("perfmodel.paper_mfu", "fraction", first.canonical.mfu);
  res.set("perfmodel.paper_max_ctx_tokens", "tokens",
          static_cast<double>(first.canonical_max_ctx));
  const sim::LayerTiming& layer = first.canonical.layer;
  res.set("sim.layer.compute_s", "virtual_s", layer.compute_busy_s);
  res.set("sim.layer.h2d_s", "virtual_s", layer.h2d_busy_s);
  res.set("sim.layer.d2h_s", "virtual_s", layer.d2h_busy_s);
  res.set("sim.layer.comm_s", "virtual_s", layer.comm_busy_s);
  res.set("trace.residual_share", "fraction", spans.share("trace.residual", "trace.residual"));
  res.set("common.parallel_efficiency", "fraction", median(host.efficiency));
  res.set("host.wall_throughput", "1/s", points / wall);
  res.set("trace.overhead", "fraction",
          median(host_times(traced, parallel_workers()).wall) / wall - 1.0);
  std::cerr << "perfbench: traced sweeps, per-layer self time\n";
  spans.print(std::cerr, "trace.residual");
  return res;
}

}  // namespace perfbench
