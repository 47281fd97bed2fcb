// serve-paged: open-loop Poisson traffic on the virtual clock through the
// serving engine in execute mode, with HBM small enough that the paged KV
// cache evicts to host.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "common/thread_pool.h"
#include "nn/model_config.h"
#include "obs/metrics.h"
#include "obs/workmeter.h"
#include "replay.h"
#include "serve/engine.h"
#include "sim/hardware.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace fpdt;

// 128 sessions of log-uniform 32-512 token prompts arriving every 2 ms on
// average; 32-token pages, a 128-token prefill quantum. The largest
// possible session (512 prompt + 32 decode tokens, plus two pages of
// gather scratch) needs 152 KiB of HBM, so admission never has to reject
// one, while 192 KiB keeps the LRU evicting to the host tier and fetching
// pages back. One execute-mode engine run takes ~0.8 s on a 4-core x86
// host, so a 20 s window holds ~20 of them.
serve::ServeOptions serve_options(std::uint64_t seed) {
  serve::ServeOptions o;
  o.model = nn::tiny_gpt();
  o.model_seed = seed;
  o.traffic.sessions = 128;
  o.traffic.seed = seed;
  o.traffic.min_prompt_tokens = 32;
  o.traffic.max_prompt_tokens = 512;
  o.traffic.mean_interarrival_s = 2e-3;
  o.page_tokens = 32;
  o.chunk_tokens = 128;
  o.hbm_bytes = 192 << 10;
  o.execute = true;
  return o;
}

// The untimed warm-up run: the same engine on a fixed-size traffic, so the
// set-up time does not depend on which prompt lengths the seed draws.
serve::ServeOptions warmup_options(std::uint64_t seed) {
  serve::ServeOptions o = serve_options(seed);
  o.traffic.sessions = 32;
  o.traffic.min_prompt_tokens = o.traffic.max_prompt_tokens = 256;
  o.traffic.min_decode_tokens = o.traffic.max_decode_tokens = 16;
  return o;
}

struct OpRecord {
  serve::ServeReport report;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double main_s = 0.0;
};

OpRecord serve_once(const serve::ServeOptions& o, Spans& spans, std::int64_t id) {
  OpRecord rec;
  Spans::Scope root(spans, "op", id);
  const double w0 = wall_now();
  const double c0 = cpu_now();
  const double m0 = thread_cpu_now();
  {
    // run() draws the traffic with serve::generate_traffic and serves it.
    Spans::Scope s(spans, "serve.run", id);
    serve::ServingEngine engine(o);
    rec.report = engine.run();
  }
  rec.wall_s = wall_now() - w0;
  rec.cpu_s = cpu_now() - c0;
  rec.main_s = thread_cpu_now() - m0;
  return rec;
}

std::vector<std::vector<std::int32_t>> streams(const serve::ServeReport& r) {
  std::vector<std::vector<std::int32_t>> out;
  for (const serve::SessionOutcome& s : r.outcomes) out.push_back(s.generated);
  return out;
}

}  // namespace

Result run_serve(const Options& opt) {
  Result res;
  Spans off(false);
  Spans spans(opt.trace);
  const serve::ServeOptions options = serve_options(opt.seed);
  std::int64_t next_id = 0;

  // One engine run; its sessions are the counted operations. A rejected
  // session, or a run that throws or fails ServeReport::ok(), fails them.
  auto attempt = [&](const serve::ServeOptions& o, Spans& sp, OpRecord* out) {
    res.attempted += o.traffic.sessions;
    try {
      *out = serve_once(o, sp, next_id++);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: engine run failed: " << e.what() << "\n";
      res.failed += o.traffic.sessions;
      return false;
    }
    if (!out->report.ok()) {
      res.failed += o.traffic.sessions - out->report.completed;
      return false;
    }
    res.failed += out->report.rejected;
    return out->report.rejected == 0;
  };

  const double setup_s = median_setup(5, [&] {
    const double t0 = thread_cpu_now();
    OpRecord warm;
    attempt(warmup_options(opt.seed), off, &warm);
    return thread_cpu_now() - t0;
  });

  std::vector<OpRecord> plain, traced;
  obs::WorkSnapshot run_work;
  timed_loop(opt, [&](bool tracing) {
    const MeterWindow window(tracing);
    OpRecord rec;
    const bool ok = attempt(options, tracing ? spans : off, &rec);
    if (tracing) run_work = window.work();
    if (ok) (tracing ? traced : plain).push_back(std::move(rec));
  });
  const std::int64_t rss = peak_rss_bytes();

  // ---- Checks, outside the timed region. ----
  res.check(!plain.empty(), "no engine run completed");
  if (plain.empty()) return res;
  const serve::ServeReport& first = plain.front().report;
  bool repeat = true;
  for (const auto* set : {&plain, &traced}) {
    for (const OpRecord& r : *set) {
      repeat = repeat && r.report.transcript == first.transcript &&
               streams(r.report) == streams(first);
    }
  }
  res.check(repeat, "same-seed engine runs gave different transcripts");

  // A verifying run replays every session against nn::InferenceSession.
  serve::ServeOptions verify = options;
  verify.verify = true;
  OpRecord checked;
  const bool verified = attempt(verify, off, &checked);
  res.check(verified && checked.report.verify_ok &&
                checked.report.verified_sessions == checked.report.completed &&
                streams(checked.report) == streams(first),
            "sessions differ from the monolithic nn::InferenceSession replay");

  const HostTimes host = host_times(plain, parallel_workers());
  const double wall = median(host.wall);
  obs::Histogram ttft;
  for (const serve::SessionOutcome& s : first.outcomes) {
    if (!s.rejected) ttft.observe(s.ttft_s);
  }
  const double tokens = static_cast<double>(first.prefill_tokens + first.decoded_tokens);
  std::cerr << first.summary() << "\nperfbench: " << plain.size()
            << " engine runs without observers, wall min "
            << *std::min_element(host.wall.begin(), host.wall.end()) << " median " << wall
            << " s, main-thread CPU median " << median(host.main) << " s\n";

  res.set("setup_s", "s", setup_s);
  res.set("main_thread_throughput", "1/s", tokens / median(host.main));
  res.set("cpu_s_per_kunit", "s", median(host.cpu) / tokens * 1000.0);
  res.set("peak_rss_bytes", "bytes", static_cast<double>(rss));
  res.set("hbm_peak_bytes", "bytes", static_cast<double>(first.hbm_peak_bytes));
  if (!opt.trace) return res;

  // ---- Per-layer metrics of the traced run. ----
  res.check(!traced.empty(), "no traced engine run completed");
  if (traced.empty()) return res;
  record_kernel_work(res, run_work);
  const serve::ServeOptions& o = options;
  AttnCall attn;  // the last prefill quantum of the longest prompt
  attn.dm.sq = o.chunk_tokens;
  attn.dm.sk = o.traffic.max_prompt_tokens;
  attn.dm.h = o.model.n_head;
  attn.dm.hk = o.model.n_kv_head;
  attn.dm.d = o.model.head_dim();
  attn.dm.group = attn.dm.h / attn.dm.hk;
  attn.q_pos0 = o.traffic.max_prompt_tokens - o.chunk_tokens;
  attn.k_pos0 = 0;
  res.set("kernels.online_attn_step_gflops", "GFLOP/s", online_attn_step_gflops(attn));
  res.set("kernels.gemm_nt_gflops", "GFLOP/s",
          gemm_nt_gflops(o.chunk_tokens, o.model.d_model, o.model.ffn_hidden));
  res.set("runtime.h2d_bytes", "bytes", static_cast<double>(first.h2d_bytes));
  res.set("runtime.d2h_bytes", "bytes", static_cast<double>(first.d2h_bytes));
  res.set("runtime.host_peak_bytes", "bytes", static_cast<double>(first.host_peak_bytes));
  res.set("runtime.virtual_step_s", "virtual_s", first.makespan_s);
  res.set("runtime.compute_busy_s", "virtual_s", first.timeline.compute_busy_s);
  res.set("runtime.h2d_busy_s", "virtual_s", first.timeline.h2d_busy_s);
  res.set("runtime.d2h_busy_s", "virtual_s", first.timeline.d2h_busy_s);
  res.set("runtime.exposed_transfer_s", "virtual_s", first.timeline.exposed_transfer_s);
  res.set("runtime.overlap_ratio", "fraction", first.timeline.overlap_ratio());
  const sim::RooflinePoint roof =
      sim::roofline_eval(sim::a100_80g_node(), static_cast<double>(run_work.total_flops()),
                         static_cast<double>(run_work.total_bytes()), first.makespan_s);
  res.set("runtime.virtual_mfu", "fraction", roof.mfu);
  res.set("serve.run_share", "fraction", spans.share("serve.run", "trace.residual"));
  res.set("serve.kv.evictions", "count", static_cast<double>(first.cache.evictions));
  res.set("serve.kv.fetches", "count", static_cast<double>(first.cache.fetches));
  res.set("serve.kv.fetch_bytes", "bytes", static_cast<double>(first.cache.fetch_bytes));
  res.set("serve.kv.oom_events", "count", static_cast<double>(first.cache.oom_events));
  res.set("serve.ttft_p50_s", "virtual_s", first.ttft_p50_s);
  res.set("serve.ttft_p90_s", "virtual_s", ttft.percentile(0.9));
  res.set("serve.token_p99_s", "virtual_s", first.token_p99_s);
  res.set("common.parallel_efficiency", "fraction", median(host.efficiency));
  res.set("host.wall_throughput", "1/s", tokens / wall);
  res.set("trace.residual_share", "fraction", spans.share("trace.residual", "trace.residual"));
  res.set("trace.overhead", "fraction",
          median(host_times(traced, parallel_workers()).wall) / wall - 1.0);
  std::cerr << "perfbench: traced engine runs, per-layer self time\n";
  spans.print(std::cerr, "trace.residual");
  return res;
}

}  // namespace perfbench
