#include "replay.h"

#include <vector>

#include "common/rng.h"
#include "core/chunk_store.h"
#include "harness.h"
#include "kernels/op_cost.h"
#include "nn/attention.h"
#include "tensor/tensor.h"

namespace perfbench {

namespace fk = fpdt::kernels;
using fpdt::Tensor;

namespace {

// Median seconds of `call`, repeated until at least 5 calls and 0.1 s of
// timed work (at most 2000 calls). `prepare` runs untimed before each call.
template <typename Prepare, typename Call>
double seconds_per_call(Prepare&& prepare, Call&& call) {
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < 2000 && (samples.size() < 5 || total < 0.1)) {
    prepare();
    const double t0 = wall_now();
    call();
    const double dt = wall_now() - t0;
    samples.push_back(dt);
    total += dt;
  }
  return median(samples);
}

double rate(double work, double seconds) { return seconds > 0.0 ? work / seconds : 0.0; }

Tensor randn(std::vector<std::int64_t> shape, std::uint64_t seed) {
  fpdt::Rng rng(seed);
  return Tensor::randn(std::move(shape), rng);
}

struct AttnInputs {
  Tensor q, k, v;
  explicit AttnInputs(const fk::AttnDims& dm)
      : q(randn({dm.sq, dm.h, dm.d}, 11)),
        k(randn({dm.sk, dm.hk, dm.d}, 12)),
        v(randn({dm.sk, dm.hk, dm.d}, 13)) {}
};

}  // namespace

double online_attn_step_gflops(const AttnCall& c) {
  const AttnInputs in(c.dm);
  fpdt::nn::OnlineAttnState state;
  const double s = seconds_per_call(
      [&] { state = fpdt::nn::OnlineAttnState::create(c.dm.sq, c.dm.h, c.dm.d); },
      [&] {
        fk::active().online_attn_step(state.acc.data(), state.m.data(), state.l.data(),
                                      in.q.data(), in.k.data(), in.v.data(), c.dm,
                                      /*causal=*/true, c.q_pos0, c.k_pos0);
      });
  const double flops = static_cast<double>(
      fk::online_attn_step_cost(c.dm, /*causal=*/true, c.q_pos0, c.k_pos0).flops);
  return rate(flops, s) / 1e9;
}

double online_attn_bwd_gflops(const AttnCall& c) {
  const AttnInputs in(c.dm);
  // A consistent (out, lse) pair from the forward kernel keeps the
  // recomputed probabilities in range, as in the real backward.
  Tensor out = Tensor::zeros({c.dm.sq, c.dm.h, c.dm.d});
  Tensor lse = Tensor::zeros({c.dm.sq, c.dm.h});
  fk::active().attn_forward(in.q.data(), in.k.data(), in.v.data(), out.data(), lse.data(), c.dm,
                            /*causal=*/true, c.q_pos0, c.k_pos0);
  const Tensor dout = randn({c.dm.sq, c.dm.h, c.dm.d}, 14);
  const Tensor D = Tensor::zeros({c.dm.sq, c.dm.h});
  Tensor dq, dk, dv;
  const double s = seconds_per_call(
      [&] {
        dq = Tensor::zeros({c.dm.sq, c.dm.h, c.dm.d});
        dk = Tensor::zeros({c.dm.sk, c.dm.hk, c.dm.d});
        dv = Tensor::zeros({c.dm.sk, c.dm.hk, c.dm.d});
      },
      [&] {
        fk::active().online_attn_backward_step(in.q.data(), in.k.data(), in.v.data(),
                                               dout.data(), lse.data(), D.data(), c.dm,
                                               /*causal=*/true, c.q_pos0, c.k_pos0, dq.data(),
                                               dk.data(), dv.data());
      });
  const double flops = static_cast<double>(
      fk::online_attn_backward_step_cost(c.dm, /*causal=*/true, c.q_pos0, c.k_pos0).flops);
  return rate(flops, s) / 1e9;
}

double gemm_nt_gflops(std::int64_t m, std::int64_t k, std::int64_t n) {
  const Tensor a = randn({m, k}, 21);
  const Tensor b = randn({n, k}, 22);
  Tensor c = Tensor::zeros({m, n});
  const double s = seconds_per_call(
      [] {}, [&] { fk::active().gemm_nt(a.data(), b.data(), c.data(), m, k, n); });
  return rate(static_cast<double>(fk::gemm_nt_cost(m, k, n).flops), s) / 1e9;
}

double gemm_tn_acc_gflops(std::int64_t k, std::int64_t m, std::int64_t n) {
  const Tensor a = randn({k, m}, 23);
  const Tensor b = randn({k, n}, 24);
  Tensor c = Tensor::zeros({m, n});
  const double s = seconds_per_call(
      [&] { c.zero_(); }, [&] { fk::active().gemm_tn_acc(a.data(), b.data(), c.data(), k, m, n); });
  return rate(static_cast<double>(fk::gemm_tn_acc_cost(k, m, n).flops), s) / 1e9;
}

double collective_gbps(fpdt::comm::ProcessGroup& pg, Collective kind,
                       const std::vector<std::int64_t>& per_rank_shape) {
  std::vector<Tensor> inputs;
  for (int r = 0; r < pg.world_size(); ++r) {
    inputs.push_back(randn(per_rank_shape, 31 + static_cast<std::uint64_t>(r)));
  }
  auto charged = [&] {
    const fpdt::comm::CommStats st = pg.stats();
    switch (kind) {
      case Collective::kAllToAll: return st.all_to_all_bytes;
      case Collective::kAllGather: return st.all_gather_bytes;
      case Collective::kReduceScatter: return st.reduce_scatter_bytes;
    }
    return std::int64_t{0};
  };
  const std::int64_t before = charged();
  std::int64_t calls = 0;
  const double s = seconds_per_call([] {}, [&] {
    ++calls;
    switch (kind) {
      case Collective::kAllToAll: (void)pg.all_to_all_heads_to_seq(inputs); break;
      case Collective::kAllGather: (void)pg.all_gather(inputs); break;
      case Collective::kReduceScatter: (void)pg.reduce_scatter(inputs); break;
    }
  });
  const double bytes_per_call =
      static_cast<double>(charged() - before) / static_cast<double>(calls);
  return rate(bytes_per_call, s) / 1e9;
}

double chunk_store_gbps(fpdt::runtime::Device& device, fpdt::runtime::Host& host,
                        const std::vector<std::int64_t>& chunk_shape) {
  fpdt::core::ChunkStore store(device, host, /*offload=*/true);
  const Tensor chunk = randn(chunk_shape, 41);
  fpdt::runtime::Buffer staged;
  std::int64_t bytes = 0;
  const double s = seconds_per_call(
      [&] {
        if (store.contains("replay")) store.drop("replay");
        staged = device.alloc(chunk.clone());
        bytes = staged.bytes();
      },
      [&] {
        store.put("replay", std::move(staged));
        fpdt::runtime::Buffer back = store.fetch_copy("replay");
      });
  store.clear();
  return rate(2.0 * static_cast<double>(bytes), s) / 1e9;
}

}  // namespace perfbench
