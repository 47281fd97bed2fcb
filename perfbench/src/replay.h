// Layer replays: single calls into the kernel backend, the process group
// and the chunk store on inputs shaped like a workload's own calls, timed
// on the host. Rates use the analytic work of kernels/op_cost.h (FLOPs) or
// the bytes the layer itself accounts (collectives, chunk store).
#pragma once

#include <cstdint>

#include "comm/process_group.h"
#include "kernels/backend.h"
#include "runtime/device.h"

namespace perfbench {

// One attention call: dims plus the causal placement of the q and kv chunks.
struct AttnCall {
  fpdt::kernels::AttnDims dm;
  std::int64_t q_pos0 = 0;
  std::int64_t k_pos0 = 0;
};

double online_attn_step_gflops(const AttnCall& call);
double online_attn_bwd_gflops(const AttnCall& call);
// C[m,n] = A[m,k] · B[n,k]ᵀ, the forward Linear shape.
double gemm_nt_gflops(std::int64_t m, std::int64_t k, std::int64_t n);
// C[m,n] += A[k,m]ᵀ · B[k,n], the weight-gradient shape.
double gemm_tn_acc_gflops(std::int64_t k, std::int64_t m, std::int64_t n);

// Collective replays on the workload's own group; GB/s over the bytes the
// group's CommStats charge for the call.
enum class Collective { kAllToAll, kAllGather, kReduceScatter };
double collective_gbps(fpdt::comm::ProcessGroup& pg, Collective kind,
                       const std::vector<std::int64_t>& per_rank_shape);

// ChunkStore put (offload) + fetch_copy (prefetch) of one chunk of the given
// shape through an offloading store; GB/s over the logical bytes moved
// (one d2h plus one h2d).
double chunk_store_gbps(fpdt::runtime::Device& device, fpdt::runtime::Host& host,
                        const std::vector<std::int64_t>& chunk_shape);

}  // namespace perfbench
