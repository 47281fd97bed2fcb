// Every metric the benchmark reports, with its unit. BENCHMARK.json lists
// the same names; run.py refuses a result whose names or units differ.
//
// Units: `s`, `1/s`, `bytes`, `fraction` are host-measured or exact;
// `virtual_s` is the emulated accelerator's clock (deterministic for a
// given seed); `GFLOP`/`GFLOP/s` use the analytic work of kernels/op_cost.h.
#pragma once

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Printed by every untraced run, on every workload; never 0.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"main_thread_throughput", "1/s"},
    {"cpu_s_per_kunit", "s"},
    {"peak_rss_bytes", "bytes"},
    {"hbm_peak_bytes", "bytes"},
};

// Printed by every traced run. A layer a workload does not exercise reads 0.
inline constexpr MetricDef kPerLayer[] = {
    // kernels: analytic work per step (training) or per engine run (serving)
    {"kernels.gemm.calls", "count"},
    {"kernels.gemm.gflop", "GFLOP"},
    {"kernels.attention.calls", "count"},
    {"kernels.attention.gflop", "GFLOP"},
    {"kernels.norm.calls", "count"},
    {"kernels.norm.gflop", "GFLOP"},
    {"kernels.activation.calls", "count"},
    {"kernels.activation.gflop", "GFLOP"},
    {"kernels.attention_flop_share", "fraction"},
    {"kernels.gemm_flop_share", "fraction"},
    // kernels: replays at the workload's own shapes
    {"kernels.online_attn_step_gflops", "GFLOP/s"},
    {"kernels.online_attn_bwd_gflops", "GFLOP/s"},
    {"kernels.gemm_nt_gflops", "GFLOP/s"},
    {"kernels.gemm_tn_acc_gflops", "GFLOP/s"},
    // comm: bytes per step and replays at the step's payloads
    {"comm.all_to_all_bytes", "bytes"},
    {"comm.all_gather_bytes", "bytes"},
    {"comm.reduce_scatter_bytes", "bytes"},
    {"comm.intra_link_bytes", "bytes"},
    {"comm.inter_link_bytes", "bytes"},
    {"comm.all_to_all_gbps", "GB/s"},
    {"comm.all_gather_gbps", "GB/s"},
    {"comm.reduce_scatter_gbps", "GB/s"},
    // core / runtime
    {"core.train_step_share", "fraction"},
    {"core.chunk_store_gbps", "GB/s"},
    {"runtime.h2d_bytes", "bytes"},
    {"runtime.d2h_bytes", "bytes"},
    {"runtime.host_peak_bytes", "bytes"},
    {"runtime.virtual_step_s", "virtual_s"},
    {"runtime.compute_busy_s", "virtual_s"},
    {"runtime.h2d_busy_s", "virtual_s"},
    {"runtime.d2h_busy_s", "virtual_s"},
    {"runtime.exposed_transfer_s", "virtual_s"},
    {"runtime.overlap_ratio", "fraction"},
    {"runtime.virtual_mfu", "fraction"},
    // nn / parallel / data / common
    {"nn.optimizer_share", "fraction"},
    {"parallel.zero_optimizer_share", "fraction"},
    {"data.sample_share", "fraction"},
    {"common.parallel_efficiency", "fraction"},
    // host: the wall-clock rate, which stretches with the host's steal time
    {"host.wall_throughput", "1/s"},
    // serve
    {"serve.run_share", "fraction"},
    {"serve.kv.evictions", "count"},
    {"serve.kv.fetches", "count"},
    {"serve.kv.fetch_bytes", "bytes"},
    {"serve.kv.oom_events", "count"},
    {"serve.ttft_p50_s", "virtual_s"},
    {"serve.ttft_p90_s", "virtual_s"},
    {"serve.token_p99_s", "virtual_s"},
    // perfmodel / topo / sim
    {"perfmodel.evaluate_per_s", "1/s"},
    {"perfmodel.max_sequence_per_s", "1/s"},
    {"topo.weak_scaling_per_s", "1/s"},
    {"perfmodel.paper_mfu", "fraction"},
    {"perfmodel.paper_max_ctx_tokens", "tokens"},
    {"sim.layer.compute_s", "virtual_s"},
    {"sim.layer.h2d_s", "virtual_s"},
    {"sim.layer.d2h_s", "virtual_s"},
    {"sim.layer.comm_s", "virtual_s"},
    // the traced run itself
    {"trace.residual_share", "fraction"},
    {"trace.overhead", "fraction"},
};

}  // namespace perfbench
