// compile_churn: one DiscCompiler::Compile per op of a suite model (in
// seeded shuffled rounds over the models) with a seeded likely_dim_values
// hint set, then one timing-only run at a hinted shape. The executable is
// dropped after its output check, so graph optimization, shape analysis,
// fusion planning, kernel specialization and memory planning do the work
// of every op.
#include "compiler/compiler.h"
#include "ir/eval.h"
#include "workloads.h"

namespace perfbench {
namespace {

using disc::Status;

constexpr int64_t kWindowOps = 300;

/// Inclusive hint range per label (label order of DimLabels).
std::vector<std::pair<int64_t, int64_t>> HintRanges(const std::string& model) {
  if (model == "bert") return {{1, 8}, {16, 128}};
  if (model == "seq2seq-step") return {{1, 4}, {1, 64}};
  if (model == "crnn") return {{32, 200}};
  if (model == "fastspeech2") return {{8, 48}, {32, 336}};
  if (model == "dlrm") return {{16, 512}};
  return {{1, 64}};  // mlp
}

// Phase names of CompileReport::phase_ms and the layer each belongs to.
const std::vector<std::pair<std::string, std::string>>& PhaseLayers() {
  static const std::vector<std::pair<std::string, std::string>> kPhases = {
      {"graph-passes", "opt.graph_passes"},
      {"shape-analysis", "shape.analysis"},
      {"fusion-planning", "fusion.planning"},
      {"kernel-compile", "kernel.compile"},
      {"step-schedule", "compiler.step_schedule"},
      {"buffer-assignment", "runtime.buffer_assignment"},
      {"memory-planning", "runtime.memory_planning"}};
  return kPhases;
}

class CompileChurn : public Workload {
 public:
  explicit CompileChurn(uint64_t seed)
      : seed_(seed), order_(Mix(seed, 79), SuiteModelNames().size()) {}

  Status Setup() override {
    hidden_ = SuiteConfig().hidden;
    DISC_RETURN_IF_ERROR(BuildSuite(&models_));
    // Warm-up: one hinted compile and run per model.
    for (size_t m = 0; m < models_.size(); ++m) {
      Draw(m, Mix(seed_, 5000 + m));
      DISC_RETURN_IF_ERROR(CompileAndRun(nullptr));
      exe_.reset();
    }
    return Status::OK();
  }

  Status Verify() override {
    references_.clear();
    for (const disc::Model& model : models_) {
      std::vector<disc::Tensor> inputs =
          model.make_inputs(model.small_shapes, seed_);
      auto want = disc::EvaluateGraph(*model.graph, inputs);
      if (!want.ok()) return want.status();
      references_.push_back({std::move(inputs), std::move(*want)});
    }
    return Status::OK();
  }

  int64_t window_ops() const override { return kWindowOps; }

  void Prepare(int64_t op) override {
    Draw(order_.At(op), Mix(seed_, static_cast<uint64_t>(op)));
  }

  Status Run(int64_t, Tracer* tracer) override {
    return CompileAndRun(tracer);
  }

  Status Check(int64_t op) override {
    const Reference& ref = references_[model_];
    auto got = exe_->Run(ref.inputs);
    if (!got.ok()) return got.status();
    DISC_RETURN_IF_ERROR(CompareOutputs(
        "compile_churn " + models_[model_].name, got->outputs, ref.outputs));
    if (op < kWindowOps) {
      const disc::CompileReport& r = exe_->report();
      ++window_.compiles;
      window_.nodes_removed += r.num_nodes_before - r.num_nodes_after;
      window_.stitch_groups += r.fusion.num_stitch_groups;
      window_.kernels += r.num_kernels;
      window_.variants += r.num_variants;
      counts_.Add(profile_);
      window_device_us_.push_back(profile_.device_time_us);
    }
    exe_.reset();
    return Status::OK();
  }

  void RegisterLayers(Tracer* tracer) override {
    layers_.Register(tracer);
    compile_layer_ = tracer->Layer("compiler.compile");
    phase_layers_.clear();
    for (const auto& [phase, layer] : PhaseLayers()) {
      phase_layers_.push_back(tracer->Layer(layer));
    }
  }

  void Report(WorkloadReport* report) const override {
    ReportDeviceTime(window_device_us_, &report->modeled);
    counts_.Report(&report->counts);
    double n = window_.compiles > 0 ? static_cast<double>(window_.compiles) : 1;
    report->counts.Set("opt.nodes_removed",
                       static_cast<double>(window_.nodes_removed) / n, "count");
    report->counts.Set("fusion.stitch_groups",
                       static_cast<double>(window_.stitch_groups) / n, "count");
    report->counts.Set("kernel.kernels",
                       static_cast<double>(window_.kernels) / n, "count");
    report->counts.Set("kernel.variants",
                       static_cast<double>(window_.variants) / n, "count");
  }

  double tail_quantile() const override { return 0.97; }
  int op_class() const override { return static_cast<int>(model_); }

 private:
  struct Reference {
    std::vector<disc::Tensor> inputs;
    std::vector<disc::Tensor> outputs;
  };

  /// Draws the model, one to three likely values per label, and the run
  /// shape (the first hinted value of every label).
  void Draw(size_t m, uint64_t h) {
    model_ = m;
    const std::string& name = models_[m].name;
    const std::vector<std::string>& labels = DimLabels(name);
    auto ranges = HintRanges(name);
    hints_.clear();
    std::vector<int64_t> dims;
    for (size_t l = 0; l < labels.size(); ++l) {
      uint64_t hl = Mix(h, 10 + l);
      int count = 1 + static_cast<int>(hl % 3);
      std::vector<int64_t> values;
      for (int k = 0; k < count; ++k) {
        uint64_t span = static_cast<uint64_t>(ranges[l].second -
                                              ranges[l].first + 1);
        values.push_back(ranges[l].first +
                         static_cast<int64_t>(Mix(hl, k) % span));
      }
      dims.push_back(values.front());
      hints_.emplace_back(labels[l], std::move(values));
    }
    run_shapes_ = ShapeOf(name, dims, hidden_);
  }

  Status CompileAndRun(Tracer* tracer) {
    const disc::Model& model = models_[model_];
    disc::CompileOptions options;
    options.likely_dim_values = hints_;
    {
      ScopedSpan span(tracer, compile_layer_);
      auto exe = disc::DiscCompiler::Compile(*model.graph,
                                             model.input_dim_labels, options);
      if (!exe.ok()) return exe.status();
      exe_ = std::move(*exe);
      if (tracer != nullptr) AddPhaseSpans(tracer, span.start_ns());
    }
    disc::RunOptions run_options;
    run_options.execute_data = false;
    RunSpan span(tracer, layers_.run[model_], layers_.host_plan);
    auto result = exe_->RunWithShapes(run_shapes_, run_options);
    if (!result.ok()) return result.status();
    profile_ = result->profile;
    span.Finish(profile_);
    return Status::OK();
  }

  /// Lays the compiler's own phase timings out back to back from the start
  /// of the compile span; what they leave uncovered is the compile span's
  /// self time (compiler.unattributed_us).
  void AddPhaseSpans(Tracer* tracer, int64_t start_ns) {
    int64_t at = start_ns;
    for (const auto& [phase, ms] : exe_->report().phase_ms) {
      for (size_t p = 0; p < PhaseLayers().size(); ++p) {
        if (PhaseLayers()[p].first != phase) continue;
        int64_t dur = static_cast<int64_t>(ms * 1e6);
        tracer->AddDerived(phase_layers_[p], at, dur);
        at += dur;
      }
    }
  }

  struct WindowCounts {
    int64_t compiles = 0;
    int64_t nodes_removed = 0;
    int64_t stitch_groups = 0;
    int64_t kernels = 0;
    int64_t variants = 0;
  };

  uint64_t seed_;
  BlockOrder order_;
  int64_t hidden_ = 0;
  std::vector<disc::Model> models_;
  std::vector<Reference> references_;
  size_t model_ = 0;
  std::vector<std::pair<std::string, std::vector<int64_t>>> hints_;
  disc::ShapeSet run_shapes_;
  std::unique_ptr<disc::Executable> exe_;
  disc::RunProfile profile_;
  RuntimeLayers layers_;
  int compile_layer_ = 0;
  std::vector<int> phase_layers_;
  RuntimeCounts counts_;
  WindowCounts window_;
  std::vector<double> window_device_us_;
};

}  // namespace

std::unique_ptr<Workload> MakeCompileChurn(uint64_t seed) {
  return std::make_unique<CompileChurn>(seed);
}

}  // namespace perfbench
