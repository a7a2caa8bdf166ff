// shape_storm: one timing-only RunWithShapes per op on a suite executable,
// always at a signature that executable has never seen. Ops visit the
// models in seeded shuffled rounds. Each executable's
// launch-plan LRU is filled during setup and stays full, so every op
// builds a plan, inserts it and evicts the oldest: host shape work is
// most of the op and no numerics run.
#include "runtime/launch_plan.h"
#include "workloads.h"

namespace perfbench {
namespace {

using disc::ShapeSet;
using disc::Status;

constexpr size_t kPlanCapacity = 32;
constexpr int64_t kWindowOps = 18000;
// Each model's n-th signature index is offset + n * kStride mod 2^20: a
// seeded golden-ratio (Weyl) sequence, so no index repeats within 2^20 ops
// of that model (about 20x a 20 s run today) and any prefix covers the
// index range evenly. Past 2^20 ops indices recur, still never within the
// LRU's reach; Check asserts the miss either way.
constexpr int kIndexBits = 20;
constexpr uint64_t kIndexMask = (uint64_t{1} << kIndexBits) - 1;
constexpr uint64_t kStride = 648047;  // odd, about 0.618 * 2^20

/// Label-ordered dims for signature index `x` (< 2^20) of `model`: batch-
/// like dims take the low 4 bits, length-like dims the high 16.
std::vector<int64_t> DimsOf(const std::string& model, uint64_t x) {
  int64_t lo = static_cast<int64_t>(x & 15);
  int64_t hi = static_cast<int64_t>(x >> 4);
  if (DimLabels(model).size() == 2) return {1 + lo, 1 + hi};
  if (model == "crnn") return {8 + static_cast<int64_t>(x)};
  return {1 + static_cast<int64_t>(x)};  // dlrm, mlp
}

class ShapeStorm : public Workload {
 public:
  explicit ShapeStorm(uint64_t seed)
      : seed_(seed), order_(Mix(seed, 78), SuiteModelNames().size()) {}

  Status Setup() override {
    hidden_ = SuiteConfig().hidden;
    DISC_RETURN_IF_ERROR(BuildSuite(&models_));
    exes_.resize(models_.size());
    counters_.assign(models_.size(), 0);
    for (size_t m = 0; m < models_.size(); ++m) {
      DISC_RETURN_IF_ERROR(CompileModel(models_[m], &exes_[m]));
      exes_[m]->set_plan_cache_capacity(kPlanCapacity);
      offsets_.push_back(Mix(seed_, 2000 + m) & kIndexMask);
    }
    // Warm-up fills every LRU with the first kPlanCapacity signatures.
    for (size_t m = 0; m < models_.size(); ++m) {
      for (size_t i = 0; i < kPlanCapacity; ++i) {
        auto result = exes_[m]->RunWithShapes(NextShape(m), TimingOnly());
        if (!result.ok()) return result.status();
      }
    }
    return Status::OK();
  }

  Status Verify() override {
    for (const auto& exe : exes_) {
      disc::LaunchPlanCache::Stats stats = exe->plan_cache_stats();
      if (stats.entries != static_cast<int64_t>(kPlanCapacity)) {
        return Status::Internal("shape_storm: plan LRU not full after setup");
      }
    }
    return Status::OK();
  }

  int64_t window_ops() const override { return kWindowOps; }

  void Prepare(int64_t op) override {
    model_ = order_.At(op);
    shapes_ = NextShape(model_);
    evictions_before_ = exes_[model_]->plan_cache_stats().evictions;
  }

  Status Run(int64_t, Tracer* tracer) override {
    RunSpan span(tracer, layers_.run[model_], layers_.host_plan);
    auto result = exes_[model_]->RunWithShapes(shapes_, TimingOnly());
    if (!result.ok()) return result.status();
    profile_ = result->profile;
    span.Finish(profile_);
    return Status::OK();
  }

  Status Check(int64_t op) override {
    if (profile_.launch_plan_hit) {
      return Status::Internal("shape_storm: fresh signature hit the plan cache");
    }
    int64_t evicted =
        exes_[model_]->plan_cache_stats().evictions - evictions_before_;
    if (evicted != 1) {
      return Status::Internal("shape_storm: op did not evict exactly one plan");
    }
    if (op < kWindowOps) {
      counts_.Add(profile_);
      window_device_us_.push_back(profile_.device_time_us);
      window_evictions_ += evicted;
    }
    return Status::OK();
  }

  void RegisterLayers(Tracer* tracer) override { layers_.Register(tracer); }

  void Report(WorkloadReport* report) const override {
    ReportDeviceTime(window_device_us_, &report->modeled);
    counts_.Report(&report->counts);
    report->counts.Set("runtime.plan_evictions",
                       static_cast<double>(window_evictions_), "count");
  }

  double tail_quantile() const override { return 0.995; }
  int op_class() const override { return static_cast<int>(model_); }

 private:
  static disc::RunOptions TimingOnly() {
    disc::RunOptions options;
    options.execute_data = false;
    return options;
  }

  ShapeSet NextShape(size_t m) {
    uint64_t n = counters_[m]++;
    uint64_t x = (offsets_[m] + n * kStride) & kIndexMask;
    const std::string& name = models_[m].name;
    return ShapeOf(name, DimsOf(name, x), hidden_);
  }

  uint64_t seed_;
  int64_t hidden_ = 0;
  std::vector<disc::Model> models_;
  std::vector<std::unique_ptr<disc::Executable>> exes_;
  std::vector<uint64_t> counters_;
  std::vector<uint64_t> offsets_;
  BlockOrder order_;
  size_t model_ = 0;
  ShapeSet shapes_;
  int64_t evictions_before_ = 0;
  disc::RunProfile profile_;
  RuntimeLayers layers_;
  RuntimeCounts counts_;
  std::vector<double> window_device_us_;
  int64_t window_evictions_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeShapeStorm(uint64_t seed) {
  return std::make_unique<ShapeStorm>(seed);
}

}  // namespace perfbench
