// Kernel-execution microbenchmark: one data-mode Executable::Run per
// iteration, per suite model, at a fixed mid-range signature. The launch
// plan is cached after the first run, so the time is CPU numerics — fused
// kernels' loop programs and library calls (matmul, conv) — plus the
// allocator.
//
//   ./build/bench/bench_kernel_execute [--benchmark_min_time=0.05s]
//
// Counters: `kernels` and `library_calls` count the launches of one run.
#include <benchmark/benchmark.h>

#include <map>

#include "compiler/compiler.h"
#include "models/models.h"
#include "support/logging.h"

namespace disc {
namespace {

// Mid-range label values, inside the ranges the numeric workload draws.
int64_t LabelValue(const std::string& model, const std::string& label) {
  static const std::map<std::string, std::map<std::string, int64_t>> values =
      {{"mlp", {{"B", 32}}},
       {"bert", {{"B", 2}, {"S", 12}}},
       {"seq2seq-step", {{"B", 2}, {"T", 16}}},
       {"crnn", {{"W", 40}}},
       {"fastspeech2", {{"P", 3}, {"E", 14}}},
       {"dlrm", {{"B", 14}}}};
  auto m = values.find(model);
  if (m == values.end()) return 12;
  auto v = m->second.find(label);
  return v == m->second.end() ? 12 : v->second;
}

struct Case {
  std::string name;
  std::unique_ptr<Executable> exe;
  std::vector<Tensor> inputs;
};

const std::vector<Case>& Suite() {
  static const std::vector<Case> suite = [] {
    std::vector<Case> out;
    ModelConfig config;
    config.hidden = 32;
    for (Model& model : BuildModelSuite(config)) {
      ShapeSet shapes;
      for (size_t i = 0; i < model.graph->inputs().size(); ++i) {
        const TensorType& type = model.graph->inputs()[i]->type();
        std::vector<int64_t> dims;
        for (int64_t d = 0; d < type.rank(); ++d) {
          dims.push_back(type.IsStaticDim(d)
                             ? type.dims[d]
                             : LabelValue(model.name,
                                          model.input_dim_labels[i][d]));
        }
        shapes.push_back(std::move(dims));
      }
      auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
      DISC_CHECK_OK(exe.status());
      Case c;
      c.name = model.name;
      c.exe = std::move(exe).value();
      c.inputs = model.make_inputs(shapes, 1);
      out.push_back(std::move(c));
    }
    return out;
  }();
  return suite;
}

void BM_KernelExecute(benchmark::State& state, size_t index) {
  const Case& c = Suite()[index];
  auto warm = c.exe->Run(c.inputs);  // fills the launch-plan cache
  if (!warm.ok()) {
    state.SkipWithError(warm.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto result = c.exe->Run(c.inputs);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result->outputs.data());
  }
  state.counters["kernels"] =
      static_cast<double>(warm->profile.kernel_launches);
  state.counters["library_calls"] =
      static_cast<double>(warm->profile.library_calls);
}

}  // namespace
}  // namespace disc

int main(int argc, char** argv) {
  for (size_t i = 0; i < disc::Suite().size(); ++i) {
    benchmark::RegisterBenchmark(("run/" + disc::Suite()[i].name).c_str(),
                                 disc::BM_KernelExecute, i)
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
