// The four benchmark workloads and the model/shape helpers they share.
// README.md in this directory records why each workload was chosen and
// which metrics a change to each layer should move.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/engine.h"
#include "harness.h"
#include "models/models.h"
#include "runtime/executable.h"

namespace perfbench {

std::unique_ptr<Workload> MakeNumeric(uint64_t seed);
std::unique_ptr<Workload> MakeShapeStorm(uint64_t seed);
std::unique_ptr<Workload> MakeServingReplay(uint64_t seed);
std::unique_ptr<Workload> MakeCompileChurn(uint64_t seed);

/// Reduced model size used by every workload (CPU numerics stay fast).
disc::ModelConfig SuiteConfig();

/// Dynamic-dim labels of a suite model, in the order ShapeOf takes them.
const std::vector<std::string>& DimLabels(const std::string& model);

/// Concrete input shapes of a suite model for one value per label.
disc::ShapeSet ShapeOf(const std::string& model,
                       const std::vector<int64_t>& dims, int64_t hidden);

/// The suite model names, in BuildModelSuite order.
const std::vector<std::string>& SuiteModelNames();

/// Builds the suite at SuiteConfig() and checks its order against
/// SuiteModelNames() (layer ids are indexed by suite position).
disc::Status BuildSuite(std::vector<disc::Model>* models);

/// Compiles `model` with default options (setup helper).
disc::Status CompileModel(const disc::Model& model,
                          std::unique_ptr<disc::Executable>* out);

/// Checks every output against the reference evaluator's.
disc::Status CompareOutputs(const std::string& what,
                            const std::vector<disc::Tensor>& got,
                            const std::vector<disc::Tensor>& want);

/// modeled_latency_p99_us and modeled_throughput_per_s from the simulated
/// device time of each op of the deterministic window.
void ReportDeviceTime(const std::vector<double>& device_us, MetricSet* modeled);

/// Per-op runtime counters, summed over the deterministic window.
struct RuntimeCounts {
  int64_t runs = 0;
  int64_t plan_hits = 0;
  int64_t kernel_launches = 0;
  int64_t library_calls = 0;
  int64_t memory_bound_launches = 0;
  int64_t bytes_moved = 0;
  int64_t alloc_calls = 0;
  int64_t alloc_cache_hits = 0;
  double device_us = 0.0;

  void Add(const disc::RunProfile& profile);
  /// runtime.* and kernel.* / sim.* per-layer counts (per run).
  void Report(MetricSet* counts) const;
};

/// Opens a `runtime.run.<model>` span around one Executable call and
/// attaches the program's own host-plan measurement as a derived child.
class RunSpan {
 public:
  RunSpan(Tracer* tracer, int run_layer, int host_plan_layer)
      : span_(tracer, run_layer), tracer_(tracer),
        host_plan_layer_(host_plan_layer) {}
  void Finish(const disc::RunProfile& profile) {
    if (tracer_ == nullptr) return;
    tracer_->AddDerived(host_plan_layer_, span_.start_ns(),
                        static_cast<int64_t>(profile.host_plan_us * 1000.0));
  }

 private:
  ScopedSpan span_;
  Tracer* tracer_;
  int host_plan_layer_;
};

/// Layer ids for runtime calls, one run layer per suite model.
struct RuntimeLayers {
  RuntimeLayers() : run(SuiteModelNames().size(), 0) {}
  std::vector<int> run;  // parallel to SuiteModelNames()
  int host_plan = 0;
  void Register(Tracer* tracer);
};

/// \brief Engine decorator owned by the benchmark: forwards every call to
/// `inner` and records engine.query / engine.predict spans (when a tracer
/// is set) and the query's modeled counters, so serving and decode self
/// time and device-side counts can be derived from outside the program.
class ForwardingEngine : public disc::Engine {
 public:
  explicit ForwardingEngine(disc::Engine* inner) : inner_(inner) {}

  void set_tracer(Tracer* tracer, int query_layer, int predict_layer) {
    tracer_ = tracer;
    query_layer_ = query_layer;
    predict_layer_ = predict_layer;
  }

  const std::string& name() const override { return inner_->name(); }
  disc::Status Prepare(
      const disc::Graph& graph,
      std::vector<std::vector<std::string>> labels) override {
    return inner_->Prepare(graph, std::move(labels));
  }
  disc::Result<disc::EngineTiming> Query(
      const std::vector<std::vector<int64_t>>& input_dims,
      const disc::DeviceSpec& device) override;
  disc::Result<std::vector<disc::Tensor>> Execute(
      const std::vector<disc::Tensor>& inputs) override {
    return inner_->Execute(inputs);
  }
  void SetSimulatedTimeUs(double now_us) override {
    inner_->SetSimulatedTimeUs(now_us);
  }
  disc::Result<int64_t> PredictPeakBytes(
      const std::vector<std::vector<int64_t>>& input_dims) override;
  const disc::EngineStats& stats() const override { return inner_->stats(); }

  /// Modeled counters of the queries forwarded so far.
  int64_t queries() const { return queries_; }
  int64_t launches() const { return launches_; }
  int64_t bytes_moved() const { return bytes_moved_; }
  double device_us() const { return device_us_; }

 private:
  disc::Engine* inner_;
  Tracer* tracer_ = nullptr;
  int query_layer_ = 0;
  int predict_layer_ = 0;
  int64_t queries_ = 0;
  int64_t launches_ = 0;
  int64_t bytes_moved_ = 0;
  double device_us_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
