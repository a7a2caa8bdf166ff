// Plan-build microbenchmark: the host cost of a launch-plan miss, per suite
// model, with the compiled shape program (Executable::BuildLaunchPlan)
// against the DimExpr tree walker it replaced
// (Executable::BuildLaunchPlanByTreeWalk). Every iteration builds the plan
// for a fresh signature; neither path touches the plan cache.
//
//   ./build/bench/bench_plan_build [--benchmark_min_time=0.05s]
//
// Counters: `instructions` and `slots` size each model's shape program;
// `compile_us` is its shape-program compile phase, the one-off cost the
// tape adds to every compilation.
#include <benchmark/benchmark.h>

#include <map>

#include "compiler/compiler.h"
#include "models/models.h"
#include "support/logging.h"

namespace disc {
namespace {

struct CompiledModel {
  std::string name;
  std::vector<std::vector<std::string>> labels;
  std::unique_ptr<Executable> exe;
  double shape_program_us = 0.0;
};

const std::vector<CompiledModel>& Suite() {
  static const std::vector<CompiledModel> suite = [] {
    std::vector<CompiledModel> out;
    ModelConfig config;
    config.hidden = 32;
    for (Model& model : BuildModelSuite(config)) {
      auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
      DISC_CHECK_OK(exe.status());
      CompiledModel compiled;
      compiled.name = model.name;
      compiled.labels = model.input_dim_labels;
      compiled.exe = std::move(exe).value();
      for (const auto& [phase, ms] : compiled.exe->report().phase_ms) {
        if (phase == "shape-program") compiled.shape_program_us = ms * 1e3;
      }
      out.push_back(std::move(compiled));
    }
    return out;
  }();
  return suite;
}

// Input dims for signature `n`: every label gets its own value from a
// Weyl sequence over [1, 1024], so consecutive signatures differ.
std::vector<std::vector<int64_t>> Signature(const CompiledModel& model,
                                            uint64_t n) {
  std::vector<std::vector<int64_t>> dims;
  std::map<std::string, int64_t> values;
  const Graph& graph = model.exe->graph();
  for (size_t i = 0; i < graph.inputs().size(); ++i) {
    const TensorType& type = graph.inputs()[i]->type();
    std::vector<int64_t> input;
    for (int64_t d = 0; d < type.rank(); ++d) {
      if (type.IsStaticDim(d)) {
        input.push_back(type.dims[d]);
        continue;
      }
      // Anonymous dims get a key of their own.
      const std::string label =
          i < model.labels.size() && !model.labels[i][d].empty()
              ? model.labels[i][d]
              : "#" + std::to_string(i) + "." + std::to_string(d);
      auto [it, inserted] = values.try_emplace(label, 0);
      if (inserted) {
        const uint64_t stride = 647 + 2 * values.size();
        it->second = 1 + static_cast<int64_t>((n * stride) % 1024);
      }
      input.push_back(it->second);
    }
    dims.push_back(std::move(input));
  }
  return dims;
}

void BM_PlanBuild(benchmark::State& state, size_t index, bool tape) {
  const CompiledModel& model = Suite()[index];
  std::vector<std::vector<std::vector<int64_t>>> signatures;
  for (uint64_t n = 0; n < 256; ++n) signatures.push_back(Signature(model, n));
  size_t next = 0;
  for (auto _ : state) {
    const auto& dims = signatures[next++ % signatures.size()];
    auto plan = tape ? model.exe->BuildLaunchPlan(dims)
                     : model.exe->BuildLaunchPlanByTreeWalk(dims);
    if (!plan.ok()) {
      state.SkipWithError(plan.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(plan->arena_bytes);
  }
  if (tape) {
    state.counters["instructions"] =
        static_cast<double>(model.exe->shape_program().size());
    state.counters["slots"] =
        static_cast<double>(model.exe->shape_program().num_slots());
    state.counters["compile_us"] = model.shape_program_us;
  }
}

}  // namespace
}  // namespace disc

int main(int argc, char** argv) {
  for (size_t i = 0; i < disc::Suite().size(); ++i) {
    const std::string& name = disc::Suite()[i].name;
    benchmark::RegisterBenchmark(("tape/" + name).c_str(), disc::BM_PlanBuild,
                                 i, true)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("tree/" + name).c_str(), disc::BM_PlanBuild,
                                 i, false)
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
