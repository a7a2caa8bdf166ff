// numeric: one data-mode Executable::Run per op on a suite model, at a
// shape signature drawn by seed from a fixed set per model. Ops visit the
// (model, signature) pairs in seeded shuffled passes. Setup runs
// every (model, signature) pair once, so timed runs replay memoized
// launch plans and the time goes to CPU kernel numerics and the allocator.
#include <set>

#include "ir/eval.h"
#include "runtime/launch_plan.h"
#include "workloads.h"

namespace perfbench {
namespace {

using disc::ShapeSet;
using disc::Status;

constexpr int kSignaturesPerModel = 24;
// The deterministic window is this many passes over every pair.
constexpr int64_t kWindowPasses = 3;

/// Inclusive per-label ranges. The second range (if any) is cycled through
/// and the first is stratified within each of its values, so every seed
/// spreads its signatures the same way over the ranges.
struct Range {
  int64_t lo;
  int64_t hi;
};

std::vector<Range> RangesFor(const std::string& model) {
  if (model == "bert") return {{4, 16}, {1, 2}};  // S, then B
  if (model == "seq2seq-step") return {{1, 32}, {1, 2}};  // T, B
  if (model == "crnn") return {{16, 64}};
  if (model == "fastspeech2") return {{4, 24}, {2, 5}};  // E, then P
  if (model == "dlrm") return {{2, 25}};
  return {{1, 64}};  // mlp
}

/// Label-ordered dims (see DimLabels) from the drawn range values: the
/// ranges list the length-like label first, the labels the batch first.
std::vector<int64_t> DimsFor(const std::vector<int64_t>& v) {
  if (v.size() > 1) return {v[1], v[0]};
  return {v[0]};
}

class Numeric : public Workload {
 public:
  explicit Numeric(uint64_t seed) : seed_(seed) {}

  Status Setup() override {
    DISC_RETURN_IF_ERROR(BuildSuite(&models_));
    exes_.resize(models_.size());
    for (size_t m = 0; m < models_.size(); ++m) {
      DISC_RETURN_IF_ERROR(CompileModel(models_[m], &exes_[m]));
      DrawPairs(static_cast<int>(m), SuiteConfig().hidden);
    }
    order_ = std::make_unique<BlockOrder>(Mix(seed_, 77), pairs_.size());
    // Warm-up: one run per pair fills the launch-plan cache and records
    // the outputs every later run of the pair must reproduce bit-for-bit.
    for (Pair& pair : pairs_) {
      auto result = exes_[pair.model]->Run(pair.inputs);
      if (!result.ok()) return result.status();
      pair.outputs = std::move(result->outputs);
      pair.device_us = result->profile.device_time_us;
    }
    return Status::OK();
  }

  Status Verify() override {
    for (const Pair& pair : pairs_) {
      auto want = disc::EvaluateGraph(*models_[pair.model].graph, pair.inputs);
      if (!want.ok()) return want.status();
      DISC_RETURN_IF_ERROR(CompareOutputs(
          models_[pair.model].name + " " + disc::ShapeSignature(pair.shapes),
          pair.outputs, *want));
    }
    return Status::OK();
  }

  int64_t window_ops() const override {
    return kWindowPasses * static_cast<int64_t>(pairs_.size());
  }

  void Prepare(int64_t op) override { current_ = order_->At(op); }

  Status Run(int64_t, Tracer* tracer) override {
    const Pair& pair = pairs_[current_];
    RunSpan span(tracer, layers_.run[pair.model], layers_.host_plan);
    auto result = exes_[pair.model]->Run(pair.inputs);
    if (!result.ok()) return result.status();
    last_ = std::move(*result);
    span.Finish(last_.profile);
    return Status::OK();
  }

  Status Check(int64_t op) override {
    const Pair& pair = pairs_[current_];
    if (last_.outputs.size() != pair.outputs.size()) {
      return Status::Internal("numeric: output count changed");
    }
    for (size_t i = 0; i < pair.outputs.size(); ++i) {
      if (disc::Tensor::MaxAbsDiff(last_.outputs[i], pair.outputs[i]) != 0.0) {
        return Status::Internal("numeric: run differs from its verified run");
      }
    }
    if (last_.profile.device_time_us != pair.device_us) {
      return Status::Internal("numeric: modeled device time changed");
    }
    if (op < window_ops()) {
      counts_.Add(last_.profile);
      window_device_us_.push_back(pair.device_us);
    }
    last_ = {};
    return Status::OK();
  }

  void RegisterLayers(Tracer* tracer) override { layers_.Register(tracer); }

  void Report(WorkloadReport* report) const override {
    ReportDeviceTime(window_device_us_, &report->modeled);
    counts_.Report(&report->counts);
    int64_t evictions = 0;
    for (const auto& exe : exes_) evictions += exe->plan_cache_stats().evictions;
    report->counts.Set("runtime.plan_evictions",
                       static_cast<double>(evictions), "count");
  }

  double tail_quantile() const override { return 0.99; }
  int op_class() const override { return pairs_[current_].model; }

 private:
  struct Pair {
    int model = 0;
    ShapeSet shapes;
    std::vector<disc::Tensor> inputs;
    std::vector<disc::Tensor> outputs;
    double device_us = 0.0;
  };

  void DrawPairs(int m, int64_t hidden) {
    const disc::Model& model = models_[m];
    std::vector<Range> ranges = RangesFor(model.name);
    std::set<std::string> seen;
    const int cycle =
        ranges.size() > 1 ? static_cast<int>(ranges[1].hi - ranges[1].lo + 1)
                          : 1;
    const int strata = kSignaturesPerModel / cycle;
    for (int j = 0; j < kSignaturesPerModel; ++j) {
      // Retry (deterministically) on a repeated signature.
      for (uint64_t attempt = 0; attempt < 64; ++attempt) {
        uint64_t h = Mix(Mix(seed_, 1000 + m), j * 64 + attempt);
        double u = ((j / cycle) + static_cast<double>(h >> 11) * 0x1.0p-53) /
                   strata;
        int64_t span = ranges[0].hi - ranges[0].lo + 1;
        std::vector<int64_t> v = {ranges[0].lo +
                                  static_cast<int64_t>(u * span)};
        if (ranges.size() > 1) v.push_back(ranges[1].lo + j % cycle);
        ShapeSet shapes = ShapeOf(model.name, DimsFor(v), hidden);
        if (!seen.insert(disc::ShapeSignature(shapes)).second) continue;
        Pair pair;
        pair.model = m;
        pair.inputs = model.make_inputs(shapes, Mix(h, 99));
        pair.shapes = std::move(shapes);
        pairs_.push_back(std::move(pair));
        break;
      }
    }
  }

  uint64_t seed_;
  std::vector<disc::Model> models_;
  std::vector<std::unique_ptr<disc::Executable>> exes_;
  std::vector<Pair> pairs_;
  std::unique_ptr<BlockOrder> order_;
  size_t current_ = 0;
  disc::RunResult last_;
  RuntimeLayers layers_;
  RuntimeCounts counts_;
  std::vector<double> window_device_us_;
};

}  // namespace

std::unique_ptr<Workload> MakeNumeric(uint64_t seed) {
  return std::make_unique<Numeric>(seed);
}

}  // namespace perfbench
