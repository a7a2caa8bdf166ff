// Property-based testing: randomized dynamic-shape graphs are compiled and
// executed, and must agree with the reference evaluator —
//   * on two different instantiations of their dynamic dims (the same
//     executable serves both: compile-once, run-any-shape), and
//   * under every ablation configuration (fusion and specialization may
//     change performance, never numerics).
// Their launch plans, and those of the model suite, must also equal the
// DimExpr tree walker's field by field at random bindings — with the same
// Status on bad inputs — whichever way the shape program computes them.
//
// The generator builds DAGs over elementwise, reduction and injective ops,
// tracking a per-dimension symbol ("B"/"S"/"N"/constant) so structural
// attributes (slice bounds, concat, reshape merges) are only applied where
// they stay valid for any symbol binding. Symbols get distinct prime values
// in instance 1, so accidental dim equality cannot fake shape equality.
#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "ir/eval.h"
#include "ir/parser.h"
#include "models/models.h"
#include "shape/shape_analysis.h"
#include "support/failpoint.h"
#include "support/rng.h"
#include "random_graph.h"

namespace disc {
namespace {

// --- tape vs tree-walk launch plans ---------------------------------------

using InputDims = std::vector<std::vector<int64_t>>;

// Concrete input dims: static dims as declared, each labelled dynamic dim
// from `values`, anonymous dynamic dims drawn per dim.
InputDims DrawDims(const Graph& graph,
                   const std::vector<std::vector<std::string>>& labels,
                   const std::map<std::string, int64_t>& values, Rng* rng) {
  InputDims dims;
  for (size_t i = 0; i < graph.inputs().size(); ++i) {
    const TensorType& type = graph.inputs()[i]->type();
    std::vector<int64_t> input;
    for (int64_t d = 0; d < type.rank(); ++d) {
      if (type.IsStaticDim(d)) {
        input.push_back(type.dims[d]);
        continue;
      }
      const std::string label =
          i < labels.size() && d < static_cast<int64_t>(labels[i].size())
              ? labels[i][d]
              : "";
      auto it = values.find(label);
      input.push_back(it != values.end() ? it->second
                                         : rng->UniformInt(1, 48));
    }
    dims.push_back(std::move(input));
  }
  return dims;
}

// The arena footprint the tree walker predicts (PredictPeakBytes' oracle).
Result<int64_t> TreePeakBytes(const Executable& exe, const InputDims& dims) {
  const MemoryPlan& plan = exe.memory_plan();
  if (!plan.planned || !plan.peak_bytes.valid()) return int64_t{0};
  DISC_ASSIGN_OR_RETURN(SymbolBindings bindings,
                        exe.analysis().BindInputs(dims));
  return exe.analysis().EvaluateDim(plan.peak_bytes, bindings);
}

std::string DimsText(const InputDims& dims) { return ShapeSignature(dims); }

// Tape plan == tree plan field by field (or the same Status), and the
// same for PredictPeakBytes. Returns the shared outcome.
StatusCode ExpectTapeMatchesTree(const Executable& exe, const InputDims& dims,
                                 const std::string& where) {
  auto tape = exe.BuildLaunchPlan(dims);
  auto tree = exe.BuildLaunchPlanByTreeWalk(dims);
  const std::string at = where + " at " + DimsText(dims);
  EXPECT_EQ(tape.status().code(), tree.status().code())
      << at << ": tape " << tape.status().ToString() << " vs tree "
      << tree.status().ToString();
  EXPECT_EQ(tape.status().message(), tree.status().message()) << at;
  if (tape.ok() && tree.ok()) {
    EXPECT_EQ(tape->bindings, tree->bindings) << at;
    EXPECT_EQ(tape->alloc_bytes, tree->alloc_bytes) << at;
    EXPECT_EQ(tape->arena_bytes, tree->arena_bytes) << at;
    EXPECT_EQ(tape->slot_bytes, tree->slot_bytes) << at;
    EXPECT_EQ(tape->steps.size(), tree->steps.size()) << at;
    for (size_t s = 0; s < tape->steps.size() && s < tree->steps.size();
         ++s) {
      const PlannedStep& a = tape->steps[s];
      const PlannedStep& b = tree->steps[s];
      const std::string step = at + " step " + std::to_string(s);
      EXPECT_EQ(a.variant_index, b.variant_index) << step;
      EXPECT_EQ(a.kernel_stats.bytes_read, b.kernel_stats.bytes_read) << step;
      EXPECT_EQ(a.kernel_stats.bytes_written, b.kernel_stats.bytes_written)
          << step;
      EXPECT_EQ(a.kernel_stats.flops, b.kernel_stats.flops) << step;
      EXPECT_EQ(a.kernel_stats.index_ops, b.kernel_stats.index_ops) << step;
      EXPECT_EQ(a.kernel_stats.num_blocks, b.kernel_stats.num_blocks)
          << step;
      EXPECT_EQ(a.kernel_stats.threads_per_block,
                b.kernel_stats.threads_per_block)
          << step;
      EXPECT_EQ(a.kernel_stats.shared_mem_bytes,
                b.kernel_stats.shared_mem_bytes)
          << step;
      EXPECT_EQ(a.library_stats.flops, b.library_stats.flops) << step;
      EXPECT_EQ(a.library_stats.bytes_read, b.library_stats.bytes_read)
          << step;
      EXPECT_EQ(a.library_stats.bytes_written, b.library_stats.bytes_written)
          << step;
    }
  }
  auto peak = exe.PredictPeakBytes(dims);
  auto want_peak = TreePeakBytes(exe, dims);
  EXPECT_EQ(peak.status().code(), want_peak.status().code()) << at;
  EXPECT_EQ(peak.status().message(), want_peak.status().message()) << at;
  if (peak.ok() && want_peak.ok()) {
    EXPECT_EQ(*peak, *want_peak) << at;
  }
  if (tree.ok() && peak.ok()) {
    EXPECT_EQ(tree->arena_bytes, *peak) << at;
  }
  return tree.status().code();
}

// Error parity on bad inputs derived from `good`: a wrong input count,
// a rank mismatch, a wrong static dim, an inconsistent shared symbol, and
// zero dims (division by zero wherever a dim divides). Returns how often
// each of those produced an error.
struct BadInputCounts {
  int wrong_count = 0;
  int rank = 0;
  int static_dim = 0;
  int inconsistent_symbol = 0;
  int division_by_zero = 0;
};

void ExpectErrorParity(const Executable& exe,
                       const std::vector<std::vector<std::string>>& labels,
                       const InputDims& good, const std::string& where,
                       BadInputCounts* counts) {
  const Graph& graph = exe.graph();
  auto failed = [&](const InputDims& dims) {
    return ExpectTapeMatchesTree(exe, dims, where) != StatusCode::kOk;
  };
  if (!good.empty()) {
    InputDims fewer(good.begin(), good.end() - 1);
    counts->wrong_count += failed(fewer);
    InputDims longer = good;
    longer[0].push_back(1);
    counts->rank += failed(longer);
  }
  std::map<std::string, std::pair<size_t, int64_t>> first_use;
  bool static_done = false, symbol_done = false;
  for (size_t i = 0; i < good.size(); ++i) {
    const TensorType& type = graph.inputs()[i]->type();
    for (int64_t d = 0; d < type.rank(); ++d) {
      if (type.IsStaticDim(d)) {
        if (static_done) continue;
        InputDims bad = good;
        bad[i][d] += 1;
        counts->static_dim += failed(bad);
        static_done = true;
        continue;
      }
      InputDims zero = good;
      zero[i][d] = 0;
      auto tape = exe.BuildLaunchPlan(zero);
      ExpectTapeMatchesTree(exe, zero, where);
      if (tape.status().message() == "division by zero") {
        ++counts->division_by_zero;
      }
      const std::string label =
          i < labels.size() && d < static_cast<int64_t>(labels[i].size())
              ? labels[i][d]
              : "";
      if (label.empty() || symbol_done) continue;
      if (!first_use.emplace(label, std::make_pair(i, d)).second) {
        InputDims bad = good;
        bad[i][d] += 1;
        counts->inconsistent_symbol += failed(bad);
        symbol_done = true;
      }
    }
  }
}

class PropertyCompileTest : public ::testing::TestWithParam<int> {};

TEST_P(PropertyCompileTest, CompiledMatchesReferenceOnTwoInstantiations) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Graph graph("prop_" + std::to_string(seed));
  GraphGenerator generator(seed);
  auto labels = generator.Build(&graph, /*num_ops=*/14);
  ASSERT_TRUE(graph.Verify().ok()) << graph.ToString();

  auto exe = DiscCompiler::Compile(graph, labels);
  ASSERT_TRUE(exe.ok()) << exe.status().ToString() << "\n" << graph.ToString();

  // Two instantiations of the dynamic dims, served by ONE executable.
  for (const auto& syms : std::vector<std::map<std::string, int64_t>>{
           {{"B", 3}, {"S", 5}}, {{"B", 6}, {"S", 9}}}) {
    auto inputs = generator.MakeInputs(graph, syms, seed * 31 + syms.at("B"));
    auto want = EvaluateGraph(graph, inputs);
    ASSERT_TRUE(want.ok()) << want.status().ToString() << "\n"
                           << graph.ToString();
    auto got = (*exe)->Run(inputs);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\n"
                          << graph.ToString();
    ASSERT_EQ(got->outputs.size(), want->size());
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_TRUE(Tensor::AllClose(got->outputs[i], (*want)[i], 1e-3, 1e-4))
          << "seed " << seed << " output " << i << "\n"
          << graph.ToString();
    }
  }
}

TEST_P(PropertyCompileTest, AblationsNeverChangeNumerics) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Graph graph("abl_" + std::to_string(seed));
  GraphGenerator generator(seed + 1000);
  auto labels = generator.Build(&graph, /*num_ops=*/10);

  auto inputs = generator.MakeInputs(graph, {{"B", 4}, {"S", 7}}, seed);
  auto want = EvaluateGraph(graph, inputs);
  ASSERT_TRUE(want.ok());

  for (const CompileOptions& options :
       {CompileOptions::Default(), CompileOptions::NoFusion(),
        CompileOptions::NoSpecialization(),
        CompileOptions::NoSymbolicShapes()}) {
    auto exe = DiscCompiler::Compile(graph, labels, options);
    ASSERT_TRUE(exe.ok()) << exe.status().ToString();
    auto got = (*exe)->Run(inputs);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    for (size_t i = 0; i < want->size(); ++i) {
      EXPECT_TRUE(Tensor::AllClose(got->outputs[i], (*want)[i], 1e-3, 1e-4))
          << "seed " << seed << "\n" << graph.ToString();
    }
  }
}

TEST_P(PropertyCompileTest, SymbolicShapesAgreeWithConcreteEvaluation) {
  // For every value in a random graph, the symbolic shape evaluated under
  // the solved bindings must equal the dims the reference evaluator
  // actually produces.
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Graph graph("shapes_" + std::to_string(seed));
  GraphGenerator generator(seed + 2000);
  auto labels = generator.Build(&graph, /*num_ops=*/12);

  ShapeAnalysis analysis(&graph, labels);
  ASSERT_TRUE(analysis.Run().ok()) << graph.ToString();

  std::map<std::string, int64_t> syms = {{"B", 4}, {"S", 7}};
  auto inputs = generator.MakeInputs(graph, syms, seed);
  std::vector<std::vector<int64_t>> input_dims;
  for (const Tensor& t : inputs) input_dims.push_back(t.dims());
  auto bindings = analysis.BindInputs(input_dims);
  ASSERT_TRUE(bindings.ok()) << bindings.status().ToString();

  // Concrete per-value dims via node-by-node reference evaluation.
  std::unordered_map<const Value*, Tensor> env;
  for (size_t i = 0; i < inputs.size(); ++i) {
    env.emplace(graph.inputs()[i], inputs[i]);
  }
  for (const Node* node : graph.TopologicalOrder()) {
    std::vector<Tensor> operand_values;
    for (const Value* operand : node->operands()) {
      operand_values.push_back(env.at(operand));
    }
    auto results = EvaluateNode(*node, operand_values);
    ASSERT_TRUE(results.ok()) << node->ToString();
    for (size_t i = 0; i < results->size(); ++i) {
      const Value* out = node->output(static_cast<int>(i));
      auto symbolic_dims = analysis.EvaluateShape(out, *bindings);
      ASSERT_TRUE(symbolic_dims.ok())
          << node->ToString() << ": " << symbolic_dims.status().ToString();
      EXPECT_EQ(*symbolic_dims, (*results)[i].dims())
          << "seed " << seed << " node " << node->ToString() << "\n"
          << SymShapeToString(analysis.GetShape(out));
      env.emplace(out, std::move((*results)[i]));
    }
  }
}

TEST_P(PropertyCompileTest, PrinterParserRoundTripOnRandomGraphs) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Graph graph("rt_" + std::to_string(seed));
  GraphGenerator generator(seed + 3000);
  generator.Build(&graph, /*num_ops=*/10);

  auto parsed = ParseGraph(graph.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                           << graph.ToString();
  EXPECT_EQ((*parsed)->num_nodes(), graph.num_nodes());
  // Round-tripping again is a fixpoint.
  auto twice = ParseGraph((*parsed)->ToString());
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ((*twice)->ToString(), (*parsed)->ToString());
  // And the parsed graph computes the same function.
  auto inputs = generator.MakeInputs(graph, {{"B", 3}, {"S", 5}}, seed);
  auto want = EvaluateGraph(graph, inputs);
  auto got = EvaluateGraph(**parsed, inputs);
  ASSERT_TRUE(want.ok() && got.ok());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_TRUE(Tensor::AllClose((*got)[i], (*want)[i])) << graph.ToString();
  }
}

TEST_P(PropertyCompileTest, TapePlanMatchesTreeWalkAtRandomBindings) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Graph graph("tape_" + std::to_string(seed));
  GraphGenerator generator(seed + 4000);
  auto labels = generator.Build(&graph, /*num_ops=*/14);
  auto exe = DiscCompiler::Compile(graph, labels);
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();

  Rng rng(seed * 7919 + 1);
  BadInputCounts counts;
  for (int draw = 0; draw < 6; ++draw) {
    std::map<std::string, int64_t> values = {{"B", rng.UniformInt(1, 48)},
                                             {"S", rng.UniformInt(1, 48)}};
    InputDims dims = DrawDims((*exe)->graph(), labels, values, &rng);
    EXPECT_EQ(ExpectTapeMatchesTree(**exe, dims, "seed " +
                                                     std::to_string(seed)),
              StatusCode::kOk);
    if (draw == 0) {
      ExpectErrorParity(**exe, labels, dims, "seed " + std::to_string(seed),
                        &counts);
    }
  }
  EXPECT_EQ(counts.wrong_count, 1);
  EXPECT_EQ(counts.rank, 1);
}

TEST(TapeVersusTreeTest, SuiteModelsAtRandomBindings) {
  ModelConfig config;
  config.hidden = 32;
  config.layers = 1;
  BadInputCounts counts;
  Rng rng(2024);
  for (Model& model : BuildModelSuite(config)) {
    auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
    ASSERT_TRUE(exe.ok()) << model.name << ": " << exe.status().ToString();
    for (int draw = 0; draw < 16; ++draw) {
      std::map<std::string, int64_t> values;
      for (const auto& input : model.input_dim_labels) {
        for (const std::string& label : input) {
          if (!label.empty() && !values.count(label)) {
            values[label] = rng.UniformInt(1, draw < 8 ? 64 : 4096);
          }
        }
      }
      InputDims dims = DrawDims((*exe)->graph(), model.input_dim_labels,
                                values, &rng);
      EXPECT_EQ(ExpectTapeMatchesTree(**exe, dims, model.name),
                StatusCode::kOk);
      if (draw == 0) {
        ExpectErrorParity(**exe, model.input_dim_labels, dims, model.name,
                          &counts);
      }
    }
  }
  // Every kind of bad input was exercised and rejected.
  EXPECT_EQ(counts.wrong_count, 6);
  EXPECT_EQ(counts.rank, 6);
  EXPECT_GT(counts.static_dim, 0);
  EXPECT_GT(counts.inconsistent_symbol, 0);
  EXPECT_GT(counts.division_by_zero, 0);
}

TEST(TapeVersusTreeTest, GuardMispredictStillYieldsDataLoss) {
  // A `kernel.guard.mispredict` artifact dispatches variant 0 unchecked;
  // wherever its guard rejects the shapes, the re-check must return
  // kDataLoss from the tape exactly as from the tree walker.
  ModelConfig config;
  config.hidden = 32;
  config.layers = 1;
  int data_loss = 0;
  Rng rng(99);
  for (Model& model : BuildModelSuite(config)) {
    ASSERT_TRUE(FailpointRegistry::Global()
                    .ArmFromSpec("kernel.guard.mispredict=always")
                    .ok());
    auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
    FailpointRegistry::Global().DisarmAll();
    ASSERT_TRUE(exe.ok()) << model.name << ": " << exe.status().ToString();
    for (int draw = 0; draw < 8; ++draw) {
      std::map<std::string, int64_t> values;
      for (const auto& input : model.input_dim_labels) {
        for (const std::string& label : input) {
          if (!label.empty()) values.emplace(label, rng.UniformInt(1, 64));
        }
      }
      InputDims dims = DrawDims((*exe)->graph(), model.input_dim_labels,
                                values, &rng);
      StatusCode code = ExpectTapeMatchesTree(**exe, dims, model.name);
      EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kDataLoss)
          << model.name;
      data_loss += code == StatusCode::kDataLoss;
      auto run = (*exe)->RunWithShapes(dims);
      EXPECT_EQ(run.status().code(), code) << model.name;
    }
  }
  EXPECT_GT(data_loss, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyCompileTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace disc
