// The benchmark's workloads. Each builds its inputs from the seed, sets up
// (several times, reporting the median), measures for the requested
// seconds with every in-program observer off, then checks its outputs
// outside the timed region. Traced runs (--trace 1) record spans around the
// calls into each layer, meter kernel work and replay single layers.
#pragma once

#include <string>

#include "harness.h"
#include "obs/workmeter.h"

namespace perfbench {

// train-longctx, train-wide
Result run_train(const Options& opt);
// serve-paged
Result run_serve(const Options& opt);
// paper-sweep
Result run_sweep(const Options& opt);

// Kernel work charged by obs::Workmeter while the window is open; the meter
// is on only inside open windows.
class MeterWindow {
 public:
  explicit MeterWindow(bool open) : open_(open) {
    if (!open_) return;
    fpdt::obs::Workmeter::instance().set_enabled(true);
    base_ = fpdt::obs::Workmeter::instance().snapshot();
  }
  ~MeterWindow() {
    if (open_) fpdt::obs::Workmeter::instance().set_enabled(false);
  }
  MeterWindow(const MeterWindow&) = delete;
  MeterWindow& operator=(const MeterWindow&) = delete;

  fpdt::obs::WorkSnapshot work() const {
    return fpdt::obs::Workmeter::instance().snapshot().since(base_);
  }

 private:
  bool open_;
  fpdt::obs::WorkSnapshot base_;
};

// kernels.<kind>.calls/.gflop and the attention/GEMM FLOP shares of one
// unit of work (a training step or an engine run).
inline void record_kernel_work(Result& res, const fpdt::obs::WorkSnapshot& w) {
  using fpdt::obs::OpKind;
  const struct {
    const char* name;
    OpKind kind;
  } kinds[] = {{"gemm", OpKind::kGemm},
               {"attention", OpKind::kAttention},
               {"norm", OpKind::kNorm},
               {"activation", OpKind::kActivation}};
  for (const auto& k : kinds) {
    const int i = static_cast<int>(k.kind);
    const std::string prefix = std::string("kernels.") + k.name;
    res.set(prefix + ".calls", "count", static_cast<double>(w.calls[i]));
    res.set(prefix + ".gflop", "GFLOP", static_cast<double>(w.kind[i].flops) / 1e9);
  }
  const double total = static_cast<double>(w.total_flops());
  if (total > 0.0) {
    res.set("kernels.attention_flop_share", "fraction",
            static_cast<double>(w.kind[static_cast<int>(OpKind::kAttention)].flops) / total);
    res.set("kernels.gemm_flop_share", "fraction",
            static_cast<double>(w.kind[static_cast<int>(OpKind::kGemm)].flops) / total);
  }
}

}  // namespace perfbench
