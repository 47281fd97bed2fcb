// train-longctx and train-wide: closed-loop FPDT training, one sequence per
// step, driven through FpdtTrainer::train_step_grads and the optimizer.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "core/fpdt_trainer.h"
#include "data/synthetic_corpus.h"
#include "nn/adam.h"
#include "nn/model.h"
#include "obs/profiler.h"
#include "parallel/zero/sharded_optimizer.h"
#include "replay.h"
#include "sim/cost_model.h"
#include "sim/hardware.h"
#include "sim/runtime_bridge.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace fpdt;

struct TrainSpec {
  nn::ModelConfig model;
  int world = 4;
  int ranks_per_node = 0;
  int zero_stage = -1;
  std::int64_t chunks_per_rank = 1;
  std::int64_t chunk_tokens = 1;  // per rank and chunk
  std::int64_t ffn_chunk_multiplier = 2;

  std::int64_t tokens() const { return world * chunks_per_rank * chunk_tokens; }
  std::int64_t chunk_global() const { return world * chunk_tokens; }
};

// train-longctx is the paper's regime: attention dominates the FLOPs and the
// virtual step is fetch-bound. train-wide is its control: GEMM dominates,
// and ZeRO-3 collectives over a 2-node hierarchical group plus the
// optimizer take the rest.
TrainSpec train_spec(const std::string& workload) {
  TrainSpec s;
  if (workload == "train-longctx") {
    s.model = nn::tiny_gpt(64, 2, 4, 96);
    s.chunks_per_rank = 8;
    s.chunk_tokens = 128;
  } else {
    s.model = nn::tiny_gpt(256, 4, 8, 512);
    s.ranks_per_node = 2;
    s.zero_stage = 3;
    s.chunks_per_rank = 2;
    s.chunk_tokens = 64;
  }
  return s;
}

struct StepRecord {
  double loss = 0.0;
  double wall_s = 0.0;  // data + step + optimizer
  double cpu_s = 0.0;
  double main_s = 0.0;  // CPU of the thread that drives the step
  obs::StepStats stats;
  comm::CommStats comm;  // bytes the group charged during the step
};

class TrainRig {
 public:
  TrainRig(const TrainSpec& spec, std::uint64_t seed)
      : spec_(spec), model_(spec.model, seed), corpus_(spec.model.vocab, seed ^ 0x5eedULL) {
    core::FpdtConfig cfg;
    cfg.chunks_per_rank = spec.chunks_per_rank;
    cfg.offload = true;
    cfg.double_buffer = true;
    cfg.stream_prefetch = true;
    cfg.ffn_chunk_multiplier = spec.ffn_chunk_multiplier;
    cfg.zero_stage = spec.zero_stage;
    cfg.ranks_per_node = spec.ranks_per_node;
    cfg.kernel_backend = "simd";
    trainer_ = std::make_unique<core::FpdtTrainer>(model_, spec.world, cfg);
    env().set_stream_rates(sim::stream_rates(sim::CostModel(hw_, spec.world)));
    if (spec.zero_stage >= 0) {
      zopt_ = std::make_unique<zero::ShardedOptimizer>(env(), zero::ZeroConfig{spec.zero_stage});
    }
    profiler_ = std::make_unique<obs::StepProfiler>(env(), hw_);
    model_.visit_params([&](nn::Param& p) { n_params_ += p.value.numel(); });
  }

  core::FpdtEnv& env() { return trainer_->env(); }
  const sim::HardwareSpec& hw() const { return hw_; }
  const std::vector<std::int32_t>& first_tokens() const { return first_tokens_; }

  StepRecord step(Spans& spans, std::int64_t id) {
    StepRecord rec;
    profiler_->begin_step();
    const comm::CommStats comm0 = env().pg().stats();
    std::vector<std::int32_t> tokens;
    {
      Spans::Scope root(spans, "step", id);
      const double w0 = wall_now();
      const double c0 = cpu_now();
      const double m0 = thread_cpu_now();
      {
        Spans::Scope s(spans, "data.sample", id);
        tokens = corpus_.sample(spec_.tokens() + 1);
      }
      {
        Spans::Scope s(spans, "core.train_step", id);
        rec.loss = trainer_->train_step_grads(tokens);
      }
      const auto walk = [&](const nn::ParamVisitor& v) { model_.visit_params(v); };
      if (zopt_) {
        Spans::Scope s(spans, "parallel.zero_optimizer", id);
        zopt_->step(walk);
      } else {
        Spans::Scope s(spans, "nn.optimizer", id);
        adam_.step(walk);
      }
      rec.wall_s = wall_now() - w0;
      rec.cpu_s = cpu_now() - c0;
      rec.main_s = thread_cpu_now() - m0;
    }
    if (first_tokens_.empty()) first_tokens_ = std::move(tokens);
    // The optimizer sweep (~10 FLOPs per parameter) on every rank's compute
    // stream, as `fpdt profile` prices it, so virtual steps compare.
    for (int r = 0; r < env().world(); ++r) {
      runtime::Device& dev = env().device(r);
      dev.compute_stream().enqueue("optimizer",
                                   dev.rates().gemm_time(10.0 * static_cast<double>(n_params_)));
    }
    rec.stats = profiler_->end_step(static_cast<int>(id), spec_.tokens(), rec.loss);
    const comm::CommStats comm1 = env().pg().stats();
    rec.comm.all_to_all_bytes = comm1.all_to_all_bytes - comm0.all_to_all_bytes;
    rec.comm.all_gather_bytes = comm1.all_gather_bytes - comm0.all_gather_bytes;
    rec.comm.reduce_scatter_bytes = comm1.reduce_scatter_bytes - comm0.reduce_scatter_bytes;
    return rec;
  }

 private:
  TrainSpec spec_;
  sim::HardwareSpec hw_ = sim::a100_80g_node();
  nn::Model model_;
  data::SyntheticCorpus corpus_;
  std::unique_ptr<core::FpdtTrainer> trainer_;
  nn::Adam adam_{1e-3};
  std::unique_ptr<zero::ShardedOptimizer> zopt_;  // after trainer_: holds its env
  std::unique_ptr<obs::StepProfiler> profiler_;
  std::int64_t n_params_ = 0;
  std::vector<std::int32_t> first_tokens_;
};

std::uint64_t fnv1a(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const double v : values) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void replay_layers(Result& res, const TrainSpec& spec, TrainRig& rig, const StepRecord& rec) {
  const nn::ModelConfig& m = spec.model;
  const std::int64_t c = spec.chunk_global();
  // An off-diagonal (q chunk i, kv chunk j < i) pair: every key unmasked,
  // the shape that carries most of the step's attention work.
  AttnCall attn;
  attn.dm.sq = c;
  attn.dm.sk = c;
  attn.dm.h = m.n_head / spec.world;
  attn.dm.hk = m.n_kv_head / spec.world;
  attn.dm.d = m.head_dim();
  attn.dm.group = attn.dm.h / attn.dm.hk;
  attn.q_pos0 = c;
  attn.k_pos0 = 0;
  res.set("kernels.online_attn_step_gflops", "GFLOP/s", online_attn_step_gflops(attn));
  res.set("kernels.online_attn_bwd_gflops", "GFLOP/s", online_attn_bwd_gflops(attn));
  // The FFN up-projection of one FFN chunk, forward and weight gradient.
  const std::int64_t rows = spec.chunk_tokens / spec.ffn_chunk_multiplier;
  res.set("kernels.gemm_nt_gflops", "GFLOP/s", gemm_nt_gflops(rows, m.d_model, m.ffn_hidden));
  res.set("kernels.gemm_tn_acc_gflops", "GFLOP/s",
          gemm_tn_acc_gflops(rows, m.ffn_hidden, m.d_model));

  comm::ProcessGroup& pg = rig.env().pg();
  if (rec.comm.all_to_all_bytes > 0) {
    // One projection's chunked All2All: [chunk, heads, head_dim] per rank.
    res.set("comm.all_to_all_gbps", "GB/s",
            collective_gbps(pg, Collective::kAllToAll,
                            {spec.chunk_tokens, m.n_head, m.head_dim()}));
  }
  // ZeRO-3 moves each parameter as rank shards; the FFN weight is the
  // largest per layer.
  const std::int64_t ffn_rows = m.ffn_hidden / spec.world;
  if (rec.comm.all_gather_bytes > 0) {
    res.set("comm.all_gather_gbps", "GB/s",
            collective_gbps(pg, Collective::kAllGather, {ffn_rows, m.d_model}));
  }
  if (rec.comm.reduce_scatter_bytes > 0) {
    res.set("comm.reduce_scatter_gbps", "GB/s",
            collective_gbps(pg, Collective::kReduceScatter, {m.ffn_hidden, m.d_model}));
  }
  res.set("core.chunk_store_gbps", "GB/s",
          chunk_store_gbps(rig.env().device(0), rig.env().host(),
                           {c, m.n_head / spec.world, m.head_dim()}));
}

}  // namespace

Result run_train(const Options& opt) {
  const TrainSpec spec = train_spec(opt.workload);
  const auto tokens = static_cast<double>(spec.tokens());
  Result res;
  Spans off(false);
  Spans spans(opt.trace);
  std::int64_t next_id = 0;

  // One training step as a counted operation: a throw or a non-finite loss
  // fails it.
  auto attempt = [&](TrainRig& rig, Spans& sp, StepRecord* out) {
    res.attempted += 1;
    try {
      *out = rig.step(sp, next_id++);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: step failed: " << e.what() << "\n";
      res.failed += 1;
      return false;
    }
    if (!std::isfinite(out->loss)) {
      res.failed += 1;
      return false;
    }
    return true;
  };

  constexpr int kSetups = 3;
  std::unique_ptr<TrainRig> rig;
  std::vector<double> warm_losses;
  const double setup_s = median_setup(kSetups, [&] {
    rig.reset();
    const double t0 = thread_cpu_now();
    rig = std::make_unique<TrainRig>(spec, opt.seed);
    StepRecord warm;
    if (attempt(*rig, off, &warm)) warm_losses.push_back(warm.loss);
    return thread_cpu_now() - t0;
  });

  std::vector<double> losses{warm_losses.empty() ? 0.0 : warm_losses.back()};
  std::vector<StepRecord> plain, traced;
  obs::WorkSnapshot step_work;
  timed_loop(opt, [&](bool tracing) {
    const MeterWindow window(tracing);
    StepRecord rec;
    const bool ok = attempt(*rig, tracing ? spans : off, &rec);
    if (tracing) step_work = window.work();
    losses.push_back(ok ? rec.loss : 0.0);
    if (ok) (tracing ? traced : plain).push_back(rec);
  });
  const std::int64_t rss = peak_rss_bytes();

  // ---- Checks, outside the timed region. ----
  res.check(!plain.empty(), "no step completed");
  if (plain.empty()) return res;
  const StepRecord& first = plain.front();
  bool repeat = warm_losses.size() == kSetups;
  for (const double l : warm_losses) repeat = repeat && same_bits(l, warm_losses.front());
  res.check(repeat, "same-seed setups gave different warm-up losses");
  bool same_virtual = true;
  for (const auto* set : {&plain, &traced}) {
    for (const StepRecord& r : *set) {
      same_virtual = same_virtual &&
                     same_bits(r.stats.virtual_step_s, first.stats.virtual_step_s) &&
                     r.stats.hbm_peak_bytes == first.stats.hbm_peak_bytes;
    }
  }
  res.check(same_virtual, "virtual step time or HBM peak differs between steps");

  // Twin: a fresh same-seed rig replays the first two steps with the work
  // meter on (FLOPs for MFU) and must reproduce their losses bit for bit;
  // the reference model checks the first loss.
  obs::WorkSnapshot twin_work;
  {
    TrainRig twin(spec, opt.seed);
    StepRecord a, b;
    const bool ok_a = attempt(twin, off, &a);
    bool ok_b = false;
    {
      const MeterWindow window(true);
      ok_b = attempt(twin, off, &b);
      twin_work = window.work();
    }
    res.check(ok_a && ok_b && same_bits(a.loss, losses[0]) && same_bits(b.loss, losses[1]),
              "same-seed twin did not reproduce the first two losses");
    std::cerr << "perfbench: loss digest of the first two steps " << std::hex
              << fnv1a({a.loss, b.loss}) << std::dec << "\n";
    if (ok_a) {
      // The tolerance of the repository's FPDT-vs-reference trainer tests.
      nn::Model ref(spec.model, opt.seed);
      const double ref_loss = ref.train_step_grads(twin.first_tokens());
      std::cerr << "perfbench: first-step loss fpdt " << a.loss << " reference " << ref_loss
                << "\n";
      res.check(std::abs(ref_loss - a.loss) <= 1e-4,
                "first-step FPDT loss differs from nn::Model::train_step_grads");
    }
  }

  const HostTimes host = host_times(plain, parallel_workers());
  const double wall = median(host.wall);
  const double world = static_cast<double>(spec.world);
  const obs::StepStats& st = first.stats;
  const sim::RooflinePoint roof = sim::roofline_eval(
      rig->hw(), static_cast<double>(twin_work.total_flops()) / world,
      static_cast<double>(twin_work.total_bytes()) / world, st.virtual_step_s);
  std::cerr << "perfbench: " << plain.size() << " steps without observers, wall min "
            << *std::min_element(host.wall.begin(), host.wall.end()) << " median " << wall
            << " max " << *std::max_element(host.wall.begin(), host.wall.end())
            << " s, main-thread CPU median " << median(host.main)
            << " s; virtual step " << st.virtual_step_s << " s, mfu " << roof.mfu
            << ", overlap " << st.overlap_ratio << "\n";

  res.set("setup_s", "s", setup_s);
  res.set("main_thread_throughput", "1/s", tokens / median(host.main));
  res.set("cpu_s_per_kunit", "s", median(host.cpu) / tokens * 1000.0);
  res.set("peak_rss_bytes", "bytes", static_cast<double>(rss));
  res.set("hbm_peak_bytes", "bytes", static_cast<double>(st.hbm_peak_bytes));
  if (!opt.trace) return res;

  // ---- Per-layer metrics of the traced run. ----
  res.check(!traced.empty(), "no traced step completed");
  if (traced.empty()) return res;
  record_kernel_work(res, step_work);
  res.set("comm.all_to_all_bytes", "bytes", static_cast<double>(first.comm.all_to_all_bytes));
  res.set("comm.all_gather_bytes", "bytes", static_cast<double>(first.comm.all_gather_bytes));
  res.set("comm.reduce_scatter_bytes", "bytes",
          static_cast<double>(first.comm.reduce_scatter_bytes));
  res.set("comm.intra_link_bytes", "bytes", static_cast<double>(st.intra_link_bytes));
  res.set("comm.inter_link_bytes", "bytes", static_cast<double>(st.inter_link_bytes));
  res.set("runtime.h2d_bytes", "bytes", static_cast<double>(st.h2d_bytes));
  res.set("runtime.d2h_bytes", "bytes", static_cast<double>(st.d2h_bytes));
  res.set("runtime.host_peak_bytes", "bytes",
          static_cast<double>(rig->env().host().pool().peak()));
  res.set("runtime.virtual_step_s", "virtual_s", st.virtual_step_s);
  res.set("runtime.compute_busy_s", "virtual_s", st.compute_busy_s);
  res.set("runtime.h2d_busy_s", "virtual_s", st.h2d_busy_s);
  res.set("runtime.d2h_busy_s", "virtual_s", st.d2h_busy_s);
  res.set("runtime.exposed_transfer_s", "virtual_s", st.exposed_transfer_s);
  res.set("runtime.overlap_ratio", "fraction", st.overlap_ratio);
  res.set("runtime.virtual_mfu", "fraction", roof.mfu);
  for (const char* layer : {"data.sample", "core.train_step", "nn.optimizer",
                            "parallel.zero_optimizer"}) {
    res.set(std::string(layer) + "_share", "fraction", spans.share(layer, "trace.residual"));
  }
  res.set("trace.residual_share", "fraction", spans.share("trace.residual", "trace.residual"));
  res.set("common.parallel_efficiency", "fraction", median(host.efficiency));
  res.set("host.wall_throughput", "1/s", tokens / wall);
  res.set("trace.overhead", "fraction",
          median(host_times(traced, parallel_workers()).wall) / wall - 1.0);
  replay_layers(res, spec, *rig, first);
  std::cerr << "perfbench: traced steps, per-layer self time\n";
  spans.print(std::cerr, "trace.residual");
  return res;
}

}  // namespace perfbench
