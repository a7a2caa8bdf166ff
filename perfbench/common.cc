// Model and shape helpers shared by the workloads, plus the forwarding
// engine.
#include <map>

#include "compiler/compiler.h"
#include "workloads.h"

namespace perfbench {

using disc::ShapeSet;
using disc::Status;

disc::ModelConfig SuiteConfig() {
  disc::ModelConfig config;
  config.hidden = 32;
  config.heads = 2;
  config.ffn = 64;
  config.layers = 1;
  config.trace_length = 4;
  return config;
}

const std::vector<std::string>& SuiteModelNames() {
  static const std::vector<std::string> kNames = {
      "bert", "seq2seq-step", "crnn", "fastspeech2", "dlrm", "mlp"};
  return kNames;
}

const std::vector<std::string>& DimLabels(const std::string& model) {
  static const std::map<std::string, std::vector<std::string>> kLabels = {
      {"bert", {"B", "S"}},      {"seq2seq-step", {"B", "T"}},
      {"crnn", {"W"}},           {"fastspeech2", {"P", "E"}},
      {"dlrm", {"B"}},           {"mlp", {"B"}}};
  return kLabels.at(model);
}

ShapeSet ShapeOf(const std::string& model, const std::vector<int64_t>& d,
                 int64_t hidden) {
  if (model == "bert") return {{d[0], d[1], hidden}};
  if (model == "seq2seq-step") {
    return {{d[0], 1, hidden}, {d[0], d[1], hidden}, {d[0], d[1], hidden}};
  }
  if (model == "crnn") return {{1, 32, d[0], 1}};
  if (model == "fastspeech2") return {{1, d[0], hidden}, {d[1]}};
  if (model == "dlrm") return {{d[0], 13}, {d[0], 8}};
  return {{d[0], hidden}};  // mlp
}

Status BuildSuite(std::vector<disc::Model>* models) {
  *models = disc::BuildModelSuite(SuiteConfig());
  if (models->size() != SuiteModelNames().size()) {
    return Status::Internal("model suite changed size");
  }
  for (size_t m = 0; m < models->size(); ++m) {
    if ((*models)[m].name != SuiteModelNames()[m]) {
      return Status::Internal("model suite changed order at " +
                              (*models)[m].name);
    }
  }
  return Status::OK();
}

Status CompileModel(const disc::Model& model,
                    std::unique_ptr<disc::Executable>* out) {
  auto exe = disc::DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  if (!exe.ok()) return exe.status();
  *out = std::move(*exe);
  return Status::OK();
}

Status CompareOutputs(const std::string& what,
                      const std::vector<disc::Tensor>& got,
                      const std::vector<disc::Tensor>& want) {
  if (got.size() != want.size()) {
    return Status::Internal(what + ": output count differs from reference");
  }
  for (size_t i = 0; i < got.size(); ++i) {
    // Tolerance of the repository's model-suite correctness tests.
    if (!disc::Tensor::AllClose(got[i], want[i], 1e-3, 1e-4)) {
      return Status::Internal(what + ": output " + std::to_string(i) +
                              " differs from the reference evaluator");
    }
  }
  return Status::OK();
}

void ReportDeviceTime(const std::vector<double>& device_us,
                      MetricSet* modeled) {
  double total = 0.0;
  for (double us : device_us) total += us;
  modeled->Set("modeled_latency_p99_us", Quantile(device_us, 0.99), "us");
  modeled->Set("modeled_throughput_per_s",
               static_cast<double>(device_us.size()) / (total * 1e-6), "1/s");
}

void RuntimeCounts::Add(const disc::RunProfile& p) {
  ++runs;
  plan_hits += p.launch_plan_hit ? 1 : 0;
  kernel_launches += p.kernel_launches;
  library_calls += p.library_calls;
  memory_bound_launches += p.memory_bound_launches;
  bytes_moved += p.bytes_read + p.bytes_written;
  alloc_calls += p.alloc_calls;
  alloc_cache_hits += p.alloc_cache_hits;
  device_us += p.device_time_us;
}

void RuntimeCounts::Report(MetricSet* counts) const {
  double n = runs > 0 ? static_cast<double>(runs) : 1.0;
  counts->Set("runtime.plan_lookups", static_cast<double>(runs), "count");
  counts->Set("runtime.plan_hit_ratio",
              runs > 0 ? static_cast<double>(plan_hits) / n : 0.0, "ratio");
  counts->Set("runtime.alloc_calls", static_cast<double>(alloc_calls) / n,
              "count");
  counts->Set("runtime.alloc_cache_hit_ratio",
              alloc_calls > 0 ? static_cast<double>(alloc_cache_hits) /
                                    static_cast<double>(alloc_calls)
                              : 0.0,
              "ratio");
  counts->Set("kernel.launches", static_cast<double>(kernel_launches) / n,
              "count");
  counts->Set("kernel.library_calls", static_cast<double>(library_calls) / n,
              "count");
  counts->Set("kernel.memory_bound_launches",
              static_cast<double>(memory_bound_launches) / n, "count");
  counts->Set("kernel.bytes_moved", static_cast<double>(bytes_moved) / n,
              "bytes");
  counts->Set("sim.device_us", device_us / n, "us");
}

void RuntimeLayers::Register(Tracer* tracer) {
  run.clear();
  for (const std::string& name : SuiteModelNames()) {
    run.push_back(tracer->Layer("runtime.run." + name));
  }
  host_plan = tracer->Layer("runtime.host_plan");
}

disc::Result<disc::EngineTiming> ForwardingEngine::Query(
    const std::vector<std::vector<int64_t>>& input_dims,
    const disc::DeviceSpec& device) {
  disc::Result<disc::EngineTiming> timing = [&] {
    ScopedSpan span(tracer_, query_layer_);
    return inner_->Query(input_dims, device);
  }();
  if (timing.ok()) {
    ++queries_;
    launches_ += timing->kernel_launches;
    bytes_moved_ += timing->bytes_moved;
    device_us_ += timing->device_us;
  }
  return timing;
}

disc::Result<int64_t> ForwardingEngine::PredictPeakBytes(
    const std::vector<std::vector<int64_t>>& input_dims) {
  ScopedSpan span(tracer_, predict_layer_);
  return inner_->PredictPeakBytes(input_dims);
}

}  // namespace perfbench
