// Bit-identity of fused-kernel execution. FusedKernel::Execute runs each
// kernel as a whole-tensor loop program; the oracle below is the
// per-element recursive evaluator that defined the semantics before it,
// kept verbatim. Both must produce the same bits and the same Status:
//   * on every kernel of the six suite models at 24 seeded signatures,
//   * on every kernel of the 40 random property graphs, and
//   * on hand-built groups, one per semantic hazard of the per-element
//     evaluator (rounding, reuse, integral division, demand-driven
//     faults, the injected miscompile).
// A last test runs one executable from four threads at once.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <thread>
#include <unordered_set>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "ir/eval.h"
#include "kernel/kernel.h"
#include "models/models.h"
#include "random_graph.h"
#include "support/math_util.h"
#include "support/rng.h"

namespace disc {
namespace {

using Env = std::unordered_map<const Value*, Tensor>;

// --- the oracle: the per-element evaluator, verbatim ----------------------

std::vector<int64_t> FlatToMulti(int64_t flat,
                                 const std::vector<int64_t>& dims) {
  std::vector<int64_t> idx(dims.size());
  for (int64_t i = static_cast<int64_t>(dims.size()) - 1; i >= 0; --i) {
    idx[i] = flat % dims[i];
    flat /= dims[i];
  }
  return idx;
}

int64_t MultiToFlat(const std::vector<int64_t>& idx,
                    const std::vector<int64_t>& dims) {
  int64_t flat = 0;
  for (size_t i = 0; i < dims.size(); ++i) flat = flat * dims[i] + idx[i];
  return flat;
}

class GroupEvaluator {
 public:
  GroupEvaluator(const FusionGroup& group, const ShapeAnalysis* analysis,
                 const SymbolBindings& bindings,
                 std::unordered_map<const Value*, Tensor>* env)
      : group_(group), analysis_(analysis), bindings_(bindings), env_(env) {
    for (const Node* node : group_.nodes) inside_.insert(node);
  }

  Status Run() {
    for (const Value* output : group_.outputs) {
      const std::vector<int64_t>& dims = DimsOf(output);
      Tensor result(output->dtype(), dims);
      int64_t n = result.num_elements();
      for (int64_t i = 0; i < n; ++i) {
        DISC_ASSIGN_OR_RETURN(double v, ElementAt(output, i));
        result.SetElementFromDouble(i, v);
      }
      env_->emplace(output, std::move(result));
    }
    return Status::OK();
  }

 private:
  // Concrete dims of a value under the current bindings. Binding
  // completeness was validated when the runtime solved the symbols, so a
  // failure here is a compiler bug.
  const std::vector<int64_t>& DimsOf(const Value* v) {
    auto it = dims_cache_.find(v);
    if (it == dims_cache_.end()) {
      auto dims = analysis_->EvaluateShape(v, bindings_);
      DISC_CHECK(dims.ok()) << "shape evaluation failed for %" << v->id()
                            << ": " << dims.status().ToString();
      it = dims_cache_.emplace(v, std::move(dims).value()).first;
    }
    return it->second;
  }

  Result<double> ElementAt(const Value* v, int64_t flat) {
    // Group inputs (and pre-materialized values) come from the environment.
    if (auto it = env_->find(v); it != env_->end()) {
      return it->second.ElementAsDouble(flat);
    }
    const Node* node = v->producer();
    DISC_CHECK(node != nullptr && inside_.count(node))
        << "value %" << v->id() << " not reachable inside the fused group";

    switch (node->kind()) {
      case OpKind::kIota: {
        const std::vector<int64_t>& dims = DimsOf(v);
        auto idx = FlatToMulti(flat, dims);
        return static_cast<double>(idx[node->GetIntAttr("axis", 0)]);
      }
      case OpKind::kTranspose: {
        const std::vector<int64_t>& out_dims = DimsOf(v);
        const std::vector<int64_t>& in_dims = DimsOf(node->operand(0));
        const auto& perm = node->GetIntListAttr("perm");
        auto out_idx = FlatToMulti(flat, out_dims);
        std::vector<int64_t> in_idx(in_dims.size());
        for (size_t i = 0; i < perm.size(); ++i) {
          in_idx[perm[i]] = out_idx[i];
        }
        return ElementAt(node->operand(0), MultiToFlat(in_idx, in_dims));
      }
      case OpKind::kReshape:
        return ElementAt(node->operand(0), flat);  // linear passthrough
      case OpKind::kBroadcastTo: {
        const std::vector<int64_t>& out_dims = DimsOf(v);
        const std::vector<int64_t>& in_dims = DimsOf(node->operand(0));
        auto out_idx = FlatToMulti(flat, out_dims);
        int64_t offset = static_cast<int64_t>(out_dims.size()) -
                         static_cast<int64_t>(in_dims.size());
        std::vector<int64_t> in_idx(in_dims.size());
        for (size_t i = 0; i < in_dims.size(); ++i) {
          in_idx[i] = in_dims[i] == 1 ? 0 : out_idx[offset + i];
        }
        return ElementAt(node->operand(0), MultiToFlat(in_idx, in_dims));
      }
      case OpKind::kSlice: {
        const std::vector<int64_t>& out_dims = DimsOf(v);
        const std::vector<int64_t>& in_dims = DimsOf(node->operand(0));
        const auto& starts = node->GetIntListAttr("starts");
        const auto& steps = node->GetIntListAttr("steps");
        auto out_idx = FlatToMulti(flat, out_dims);
        std::vector<int64_t> in_idx(in_dims.size());
        for (size_t i = 0; i < in_dims.size(); ++i) {
          in_idx[i] = starts[i] + out_idx[i] * steps[i];
        }
        return ElementAt(node->operand(0), MultiToFlat(in_idx, in_dims));
      }
      case OpKind::kPad: {
        const std::vector<int64_t>& out_dims = DimsOf(v);
        const std::vector<int64_t>& in_dims = DimsOf(node->operand(0));
        const auto& low = node->GetIntListAttr("pads_low");
        auto out_idx = FlatToMulti(flat, out_dims);
        std::vector<int64_t> in_idx(in_dims.size());
        for (size_t i = 0; i < in_dims.size(); ++i) {
          in_idx[i] = out_idx[i] - low[i];
          if (in_idx[i] < 0 || in_idx[i] >= in_dims[i]) {
            return node->GetFloatAttr("pad_value", 0.0);
          }
        }
        return ElementAt(node->operand(0), MultiToFlat(in_idx, in_dims));
      }
      case OpKind::kConcat: {
        const std::vector<int64_t>& out_dims = DimsOf(v);
        int64_t axis = node->GetIntAttr("axis", 0);
        auto out_idx = FlatToMulti(flat, out_dims);
        int64_t pos = out_idx[axis];
        for (const Value* part : node->operands()) {
          const std::vector<int64_t>& part_dims = DimsOf(part);
          if (pos < part_dims[axis]) {
            auto in_idx = out_idx;
            in_idx[axis] = pos;
            return ElementAt(part, MultiToFlat(in_idx, part_dims));
          }
          pos -= part_dims[axis];
        }
        return Status::Internal("concat index out of range");
      }
      case OpKind::kGather: {
        const std::vector<int64_t>& out_dims = DimsOf(v);
        const std::vector<int64_t>& data_dims = DimsOf(node->operand(0));
        const std::vector<int64_t>& index_dims = DimsOf(node->operand(1));
        int64_t axis = node->GetIntAttr("axis", 0);
        auto out_idx = FlatToMulti(flat, out_dims);
        std::vector<int64_t> gather_idx(
            out_idx.begin() + axis,
            out_idx.begin() + axis + index_dims.size());
        DISC_ASSIGN_OR_RETURN(
            double picked,
            ElementAt(node->operand(1), MultiToFlat(gather_idx, index_dims)));
        int64_t row = static_cast<int64_t>(picked);
        if (row < 0 || row >= data_dims[axis]) {
          return Status::InvalidArgument("gather index out of bounds");
        }
        std::vector<int64_t> data_idx(data_dims.size());
        for (int64_t i = 0; i < axis; ++i) data_idx[i] = out_idx[i];
        data_idx[axis] = row;
        for (size_t i = axis + 1; i < data_dims.size(); ++i) {
          data_idx[i] = out_idx[index_dims.size() + i - 1];
        }
        return ElementAt(node->operand(0), MultiToFlat(data_idx, data_dims));
      }

      case OpKind::kReduceSum:
      case OpKind::kReduceMax:
      case OpKind::kReduceMin:
      case OpKind::kReduceMean:
        return ReduceAt(node, flat);

      case OpKind::kSelect: {
        DISC_ASSIGN_OR_RETURN(double pred, OperandAt(node, 0, v, flat));
        return OperandAt(node, pred != 0.0 ? 1 : 2, v, flat);
      }

      default:
        break;
    }
    // Elementwise unary/binary with implicit broadcast.
    const OpInfo& info = GetOpInfo(node->kind());
    DISC_CHECK(info.op_class == OpClass::kElementwise)
        << "unsupported op inside fused group: " << info.name;
    if (node->num_operands() == 1) {
      DISC_ASSIGN_OR_RETURN(double x, OperandAt(node, 0, v, flat));
      return ApplyUnaryScalar(node->kind(), x);
    }
    DISC_ASSIGN_OR_RETURN(double a, OperandAt(node, 0, v, flat));
    DISC_ASSIGN_OR_RETURN(double b, OperandAt(node, 1, v, flat));
    return ApplyBinaryScalar(node->kind(), a, b,
                             node->operand(0)->dtype());
  }

  // Value of operand `i` of an elementwise node at the node's output index
  // `flat`, applying numpy broadcast alignment.
  Result<double> OperandAt(const Node* node, int operand_index,
                           const Value* out, int64_t flat) {
    const Value* operand = node->operand(operand_index);
    const std::vector<int64_t>& out_dims = DimsOf(out);
    const std::vector<int64_t>& in_dims = DimsOf(operand);
    if (in_dims == out_dims) return ElementAt(operand, flat);
    auto out_idx = FlatToMulti(flat, out_dims);
    int64_t offset = static_cast<int64_t>(out_dims.size()) -
                     static_cast<int64_t>(in_dims.size());
    std::vector<int64_t> in_idx(in_dims.size());
    for (size_t i = 0; i < in_dims.size(); ++i) {
      in_idx[i] = in_dims[i] == 1 ? 0 : out_idx[offset + i];
    }
    return ElementAt(operand, MultiToFlat(in_idx, in_dims));
  }

  // Reduction value at output cell `flat`, memoized ("shared memory").
  Result<double> ReduceAt(const Node* node, int64_t flat) {
    auto& memo = reduce_memo_[node];
    if (auto it = memo.find(flat); it != memo.end()) return it->second;

    const Value* in = node->operand(0);
    const std::vector<int64_t>& in_dims = DimsOf(in);
    const std::vector<int64_t>& out_dims = DimsOf(node->output(0));
    const auto& rdims = node->GetIntListAttr("dims");
    bool keep = node->GetIntAttr("keep_dims", 0) != 0;
    std::vector<bool> reduced(in_dims.size(), false);
    for (int64_t d : rdims) reduced[d] = true;

    // Fixed (non-reduced) coordinates from the output index.
    auto out_idx = FlatToMulti(flat, out_dims);
    std::vector<int64_t> base(in_dims.size(), 0);
    size_t out_pos = 0;
    for (size_t i = 0; i < in_dims.size(); ++i) {
      if (reduced[i]) {
        if (keep) ++out_pos;  // output holds a 1 there
      } else {
        base[i] = out_idx[out_pos++];
      }
    }
    // Iterate the reduced subspace.
    std::vector<int64_t> reduce_dims_sizes;
    std::vector<size_t> reduce_positions;
    for (size_t i = 0; i < in_dims.size(); ++i) {
      if (reduced[i]) {
        reduce_dims_sizes.push_back(in_dims[i]);
        reduce_positions.push_back(i);
      }
    }
    int64_t count = Product(reduce_dims_sizes);
    double acc;
    switch (node->kind()) {
      case OpKind::kReduceMax:
        acc = -std::numeric_limits<double>::infinity();
        break;
      case OpKind::kReduceMin:
        acc = std::numeric_limits<double>::infinity();
        break;
      default:
        acc = 0.0;
    }
    std::vector<int64_t> ridx(reduce_dims_sizes.size(), 0);
    for (int64_t step = 0; step < count; ++step) {
      auto idx = base;
      for (size_t i = 0; i < reduce_positions.size(); ++i) {
        idx[reduce_positions[i]] = ridx[i];
      }
      DISC_ASSIGN_OR_RETURN(double v,
                            ElementAt(in, MultiToFlat(idx, in_dims)));
      switch (node->kind()) {
        case OpKind::kReduceMax:
          acc = std::max(acc, v);
          break;
        case OpKind::kReduceMin:
          acc = std::min(acc, v);
          break;
        default:
          acc += v;
      }
      // Advance ridx.
      for (int64_t i = static_cast<int64_t>(ridx.size()) - 1; i >= 0; --i) {
        if (++ridx[i] < reduce_dims_sizes[i]) break;
        ridx[i] = 0;
      }
    }
    if (node->kind() == OpKind::kReduceMean && count > 0) {
      acc /= static_cast<double>(count);
    }
    memo[flat] = acc;
    return acc;
  }

  const FusionGroup& group_;
  const ShapeAnalysis* analysis_;
  const SymbolBindings& bindings_;
  std::unordered_map<const Value*, Tensor>* env_;
  std::unordered_set<const Node*> inside_;
  std::unordered_map<const Value*, std::vector<int64_t>> dims_cache_;
  std::unordered_map<const Node*, std::unordered_map<int64_t, double>>
      reduce_memo_;
};

// The per-element Execute: the oracle plus the injected miscompile.
Status OracleExecute(const FusedKernel& kernel, const ShapeAnalysis* analysis,
                     const SymbolBindings& bindings, Env* env) {
  GroupEvaluator evaluator(kernel.group(), analysis, bindings, env);
  DISC_RETURN_IF_ERROR(evaluator.Run());
  if (kernel.miscompiled()) {
    for (const Value* output : kernel.group().outputs) {
      auto it = env->find(output);
      if (it == env->end() || it->second.num_elements() == 0) continue;
      it->second.SetElementFromDouble(0,
                                      it->second.ElementAsDouble(0) + 1.0);
      break;
    }
  }
  return Status::OK();
}

// --- comparison -----------------------------------------------------------

bool BitEqual(const Tensor& a, const Tensor& b) {
  if (a.dtype() != b.dtype() || a.dims() != b.dims()) return false;
  const int64_t n = a.num_elements();
  if (n == 0) return true;
  if (a.dtype() == DType::kF32) {
    return std::memcmp(a.f32_data(), b.f32_data(), n * sizeof(float)) == 0;
  }
  return std::memcmp(a.i64_data(), b.i64_data(), n * sizeof(int64_t)) == 0;
}

struct Tally {
  int kernels = 0;
  int failures = 0;  // executions where both sides returned an error
};

// Runs `kernel` both ways on copies of `inputs`; the Status and every
// group output present afterwards must agree bit for bit.
void ExpectSameExecution(const FusedKernel& kernel,
                         const ShapeAnalysis* analysis,
                         const SymbolBindings& bindings, const Env& inputs,
                         const std::string& where, Tally* tally = nullptr) {
  Env bulk = inputs;
  Env oracle = inputs;
  Status got = kernel.Execute(bindings, &bulk);
  Status want = OracleExecute(kernel, analysis, bindings, &oracle);
  const std::string at = where + " " + kernel.name();
  EXPECT_EQ(got.code(), want.code())
      << at << ": " << got.ToString() << " vs " << want.ToString();
  EXPECT_EQ(got.message(), want.message()) << at;
  for (const Value* out : kernel.group().outputs) {
    auto b = bulk.find(out);
    auto o = oracle.find(out);
    ASSERT_EQ(b != bulk.end(), o != oracle.end())
        << at << ": output %" << out->id() << " stored by one side only";
    if (b == bulk.end()) continue;
    EXPECT_TRUE(BitEqual(b->second, o->second))
        << at << ": output %" << out->id() << "\n  loop program "
        << b->second.ToString() << "\n  per-element  "
        << o->second.ToString();
  }
  if (tally != nullptr) {
    ++tally->kernels;
    if (!got.ok() && !want.ok()) ++tally->failures;
  }
}

// Every value of `graph` under the reference evaluator.
Env ReferenceValues(const Graph& graph, const std::vector<Tensor>& inputs) {
  Env env;
  for (size_t i = 0; i < inputs.size(); ++i) {
    env.emplace(graph.inputs()[i], inputs[i]);
  }
  for (const Node* node : graph.TopologicalOrder()) {
    std::vector<Tensor> operands;
    for (const Value* operand : node->operands()) {
      operands.push_back(env.at(operand));
    }
    auto results = EvaluateNode(*node, operands);
    DISC_CHECK_OK(results.status());
    for (size_t i = 0; i < results->size(); ++i) {
      env.emplace(node->output(static_cast<int>(i)), (*results)[i]);
    }
  }
  return env;
}

// Every kernel of `exe` on the reference values of its group inputs.
void ExpectKernelsMatch(const Executable& exe,
                        const std::vector<Tensor>& inputs,
                        const std::string& where, Tally* tally) {
  std::vector<std::vector<int64_t>> dims;
  for (const Tensor& t : inputs) dims.push_back(t.dims());
  auto bindings = exe.analysis().BindInputs(dims);
  ASSERT_TRUE(bindings.ok()) << where << ": " << bindings.status().ToString();
  const Env values = ReferenceValues(exe.graph(), inputs);
  for (const auto& kernel : exe.kernels()) {
    Env env;
    for (const Value* in : kernel->group().inputs) {
      env.emplace(in, values.at(in));
    }
    ExpectSameExecution(*kernel, &exe.analysis(), *bindings, env, where,
                        tally);
  }
}

// --- suite models and random graphs ---------------------------------------

// Concrete input dims: static dims as declared, every label (and every
// anonymous dynamic dim) drawn from [lo, hi].
ShapeSet DrawShapes(const Model& model, Rng* rng, int64_t lo, int64_t hi) {
  ShapeSet shapes;
  std::map<std::string, int64_t> values;
  for (size_t i = 0; i < model.graph->inputs().size(); ++i) {
    const TensorType& type = model.graph->inputs()[i]->type();
    std::vector<int64_t> dims;
    for (int64_t d = 0; d < type.rank(); ++d) {
      if (type.IsStaticDim(d)) {
        dims.push_back(type.dims[d]);
        continue;
      }
      const std::string& label = model.input_dim_labels[i][d];
      if (label.empty()) {
        dims.push_back(rng->UniformInt(lo, hi));
        continue;
      }
      auto [it, inserted] = values.try_emplace(label, 0);
      if (inserted) it->second = rng->UniformInt(lo, hi);
      dims.push_back(it->second);
    }
    shapes.push_back(std::move(dims));
  }
  return shapes;
}

TEST(FusedExecuteTest, SuiteModelsMatchPerElementEvaluator) {
  ModelConfig config;
  config.hidden = 32;
  Rng rng(15);
  Tally tally;
  for (Model& model : BuildModelSuite(config)) {
    auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
    ASSERT_TRUE(exe.ok()) << model.name << ": " << exe.status().ToString();
    for (int draw = 0; draw < 24; ++draw) {
      ShapeSet shapes = DrawShapes(model, &rng, 4, 24);
      auto inputs = model.make_inputs(shapes, 100 + draw);
      ExpectKernelsMatch(**exe, inputs,
                         model.name + " " + ShapeSignature(shapes), &tally);
    }
  }
  EXPECT_GT(tally.kernels, 6 * 24);
  EXPECT_EQ(tally.failures, 0);
}

TEST(FusedExecuteTest, PropertyGraphsMatchPerElementEvaluator) {
  Tally tally;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Graph graph("prop_" + std::to_string(seed));
    GraphGenerator generator(seed);
    auto labels = generator.Build(&graph, /*num_ops=*/14);
    ASSERT_TRUE(graph.Verify().ok()) << graph.ToString();
    auto exe = DiscCompiler::Compile(graph, labels);
    ASSERT_TRUE(exe.ok()) << exe.status().ToString();
    for (const auto& syms : std::vector<std::map<std::string, int64_t>>{
             {{"B", 3}, {"S", 5}}, {{"B", 6}, {"S", 9}}}) {
      auto inputs =
          generator.MakeInputs(graph, syms, seed * 31 + syms.at("B"));
      ExpectKernelsMatch(**exe, inputs, "seed " + std::to_string(seed),
                         &tally);
    }
  }
  EXPECT_GT(tally.kernels, 40);
  EXPECT_EQ(tally.failures, 0);
}

// --- hand-built groups, one per hazard ------------------------------------

// One fused group over a hand-built graph: every non-input, non-constant
// node in topological order, with the given outputs.
struct HandGroup {
  Graph graph;
  std::unique_ptr<ShapeAnalysis> analysis;
  std::unique_ptr<FusedKernel> kernel;
  Env inputs;
  SymbolBindings bindings;

  // Both evaluators on the inputs; returns the loop program's env.
  Env ExpectSame(const std::string& where) {
    ExpectSameExecution(*kernel, analysis.get(), bindings, inputs, where);
    Env env = inputs;
    (void)kernel->Execute(bindings, &env);
    return env;
  }
  Status Execute(Env* env) { return kernel->Execute(bindings, env); }
  const Value* output(size_t i) const { return kernel->group().outputs[i]; }
};

// `build` adds inputs and nodes and returns the group outputs (in
// topological order); `feed` gives each graph input (in order) its tensor.
std::unique_ptr<HandGroup> MakeGroup(
    const std::function<std::vector<Value*>(GraphBuilder*)>& build,
    std::vector<Tensor> feed) {
  auto g = std::make_unique<HandGroup>();
  GraphBuilder b(&g->graph);
  std::vector<Value*> outputs = build(&b);
  b.Output(outputs);
  EXPECT_TRUE(g->graph.Verify().ok()) << g->graph.ToString();
  std::vector<std::vector<std::string>> labels;
  for (const Value* in : g->graph.inputs()) {
    labels.emplace_back(in->rank(), "");
  }
  g->analysis = std::make_unique<ShapeAnalysis>(&g->graph, labels);
  EXPECT_TRUE(g->analysis->Run().ok());

  FusionGroup group;
  group.id = 0;
  std::unordered_set<const Node*> members;
  for (Node* node : g->graph.nodes()) {  // creation order: topological
    if (node->kind() == OpKind::kConstant) continue;
    group.nodes.push_back(node);
    members.insert(node);
    if (IsReduction(node->kind())) group.kind = FusionKind::kStitch;
  }
  std::unordered_set<const Value*> seen;
  for (Node* node : group.nodes) {
    for (Value* operand : node->operands()) {
      if (operand->producer() != nullptr &&
          members.count(operand->producer())) {
        continue;
      }
      if (seen.insert(operand).second) group.inputs.push_back(operand);
    }
  }
  group.outputs = outputs;
  group.root = outputs.back()->producer();
  g->kernel = std::make_unique<FusedKernel>(group, g->analysis.get(),
                                            SpecializeOptions{});

  std::vector<std::vector<int64_t>> dims;
  for (size_t i = 0; i < feed.size(); ++i) dims.push_back(feed[i].dims());
  auto bindings = g->analysis->BindInputs(dims);
  EXPECT_TRUE(bindings.ok()) << bindings.status().ToString();
  g->bindings = *bindings;
  // Group inputs are graph inputs and constants.
  for (const Value* in : g->kernel->group().inputs) {
    if (in->producer() != nullptr) {
      g->inputs.emplace(in, in->producer()->GetTensorAttr("value"));
      continue;
    }
    for (size_t i = 0; i < feed.size(); ++i) {
      if (g->graph.inputs()[i] == in) g->inputs.emplace(in, feed[i]);
    }
  }
  return g;
}

Tensor Thirds(std::vector<int64_t> dims) {
  Tensor t(DType::kF32, std::move(dims));
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    t.f32_data()[i] = static_cast<float>(i + 1) / 3.0f - 1.7f;
  }
  return t;
}

TEST(FusedExecuteHazardTest, IntermediatesStayUnroundedAndCastDoesNotRound) {
  auto g = MakeGroup(
      [](GraphBuilder* b) -> std::vector<Value*> {
        Value* x = b->Input("x", DType::kF32, {2, 5});
        // (x * 0.1) * 10 in double differs from the f32-rounded product.
        Value* y = b->Mul(b->Mul(x, b->ScalarF32(0.1f)), b->ScalarF32(10.0f));
        // cast to i64 and back inside the group keeps the fraction.
        Value* c = b->Cast(b->Cast(x, DType::kI64), DType::kF32);
        return {b->Add(y, c)};
      },
      {Thirds({2, 5})});
  Env env = g->ExpectSame("unrounded");
  // x = 1/3 - 1.7 (f32) at element 0: the cast kept the fraction, so the
  // sum is about 2x, not x + trunc(x).
  const Tensor& out = env.at(g->output(0));
  const double x = static_cast<double>(1.0f / 3.0f - 1.7f);
  EXPECT_NEAR(out.ElementAsDouble(0), 2.0 * x, 1e-5);
}

TEST(FusedExecuteHazardTest, LaterOutputReadsEarlierOutputRounded) {
  auto g = MakeGroup(
      [](GraphBuilder* b) -> std::vector<Value*> {
        Value* x = b->Input("x", DType::kF32, {3, 4});
        Value* third = b->Mul(x, b->ScalarF32(1.0f / 3.0f));  // f32 output
        Value* whole = b->Cast(x, DType::kI64);               // i64 output
        // third * 3 - x is the f32 rounding error of `third`, scaled up.
        Value* error = b->Mul(b->Sub(b->Mul(third, b->ScalarF32(3.0f)), x),
                              b->ScalarF32(1048576.0f));
        Value* sum = b->Add(error, b->Cast(whole, DType::kF32));
        return {third, whole, sum};
      },
      {Thirds({3, 4})});
  Env env = g->ExpectSame("readback");
  // Both outputs were rounded (the i64 one truncated) before `sum` read
  // them back.
  const Tensor& third = env.at(g->output(0));
  const Tensor& whole = env.at(g->output(1));
  const Tensor& sum = env.at(g->output(2));
  const Tensor& x = g->inputs.at(g->graph.inputs()[0]);
  for (int64_t i = 0; i < sum.num_elements(); ++i) {
    const double error = (static_cast<double>(third.f32_data()[i]) * 3.0 -
                          static_cast<double>(x.f32_data()[i])) *
                         1048576.0;
    const double want = error + static_cast<double>(whole.i64_data()[i]);
    EXPECT_EQ(sum.f32_data()[i], static_cast<float>(want)) << i;
  }
}

TEST(FusedExecuteHazardTest, ReductionComputedOnceAndSharedByOutputs) {
  auto g = MakeGroup(
      [](GraphBuilder* b) -> std::vector<Value*> {
        Value* x = b->Input("x", DType::kF32, {4, 6, 3});
        Value* sum = b->ReduceSum(x, {1}, /*keep=*/true);
        Value* peak = b->Reduce(OpKind::kReduceMax, x, {0, 2});
        Value* low = b->Reduce(OpKind::kReduceMin, x, {2}, /*keep=*/true);
        Value* mean = b->ReduceMean(x, {0, 1, 2});
        Value* centered = b->Sub(x, sum);
        Value* scaled = b->Mul(b->Mul(x, sum), low);
        Value* shifted = b->Add(b->Transpose(centered, {2, 1, 0}), mean);
        return {sum, peak, centered, scaled, shifted};
      },
      {Thirds({4, 6, 3})});
  g->ExpectSame("reduce-reuse");
}

TEST(FusedExecuteHazardTest, IntegralDivisionFollowsOperandZeroDtype) {
  auto g = MakeGroup(
      [](GraphBuilder* b) -> std::vector<Value*> {
        Value* a = b->Input("a", DType::kI64, {8});
        Value* d = b->Input("d", DType::kI64, {8});
        Value* x = b->Input("x", DType::kF32, {8});
        // Operand 0 is i64 but carries x's fraction (casts do not round
        // in a group): div/mod still truncate it.
        Value* exact = b->Div(a, d);
        Value* xi = b->Cast(x, DType::kI64);
        Value* q = b->Div(xi, d);
        Value* r = b->Binary(OpKind::kMod, a, d);
        Value* fq = b->Div(x, b->Cast(d, DType::kF32));
        Value* fr = b->Binary(OpKind::kMod, x, b->Cast(d, DType::kF32));
        return {exact, q, r, fq, fr};
      },
      {Tensor::I64({8}, {7, -7, 9, -9, 100, 3, -1, 0}),
       Tensor::I64({8}, {2, 2, -4, -4, 7, 5, 3, 9}),
       Tensor::F32({8}, {7.9f, -7.9f, 9.5f, -9.5f, 13.2f, 2.7f, -0.4f, 4.f})});
  Env env = g->ExpectSame("integral-division");
  EXPECT_EQ(env.at(g->output(0)).i64_data()[1], -3);  // truncation
  EXPECT_EQ(env.at(g->output(1)).i64_data()[0], 3);   // trunc(7.9) / 2
}

// A gather whose index column holds one out-of-bounds id (7 of 5 rows).
Tensor Table() { return Thirds({5, 3}); }
Tensor Ids() { return Tensor::I64({4}, {1, 4, 0, 7}); }

TEST(FusedExecuteHazardTest, OutOfBoundsGatherCutBySelectIsFine) {
  auto g = MakeGroup(
      [](GraphBuilder* b) -> std::vector<Value*> {
        Value* table = b->Input("table", DType::kF32, {5, 3});
        Value* ids = b->Input("ids", DType::kI64, {4});
        Value* keep = b->Input("keep", DType::kF32, {4, 3});
        Value* rows = b->Gather(table, ids, 0);
        Value* pred = b->Greater(keep, b->ScalarF32(0.0f));
        return {b->Select(pred, rows, b->Neg(keep))};
      },
      {Table(), Ids(),
       Tensor::F32({4, 3}, {1, 1, 1, 1, -1, 1, 1, 1, 1, -1, -1, -1})});
  Env env = g->ExpectSame("select-cut");
  EXPECT_EQ(env.count(g->output(0)), 1u);
}

TEST(FusedExecuteHazardTest, OutOfBoundsGatherDroppedBySliceIsFine) {
  auto g = MakeGroup(
      [](GraphBuilder* b) -> std::vector<Value*> {
        Value* table = b->Input("table", DType::kF32, {5, 3});
        Value* ids = b->Input("ids", DType::kI64, {4});
        Value* rows = b->Exp(b->Gather(table, ids, 0));
        Value* head = b->Slice(rows, {0, 0}, {3, -1}, {1, 1});
        // The reduction over the dropped row is never demanded either.
        Value* sums = b->ReduceSum(rows, {1});
        Value* first = b->Slice(sums, {0}, {2}, {1});
        return {head, first};
      },
      {Table(), Ids()});
  g->ExpectSame("slice-cut");
}

TEST(FusedExecuteHazardTest, DemandedOutOfBoundsGatherFailsAfterEarlierOutputs) {
  auto g = MakeGroup(
      [](GraphBuilder* b) -> std::vector<Value*> {
        Value* table = b->Input("table", DType::kF32, {5, 3});
        Value* ids = b->Input("ids", DType::kI64, {4});
        Value* scaled = b->Mul(table, b->ScalarF32(2.0f));
        Value* rows = b->Gather(scaled, ids, 0);
        return {scaled, b->ReduceSum(rows, {1})};
      },
      {Table(), Ids()});
  g->ExpectSame("demanded");
  Env env = g->inputs;
  Status status = g->Execute(&env);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "gather index out of bounds");
  // The first output was stored before the second one failed.
  EXPECT_EQ(env.count(g->output(0)), 1u);
  EXPECT_EQ(env.count(g->output(1)), 0u);
}

TEST(FusedExecuteHazardTest, IntegralDivisionByZeroOnlyWhereDemanded) {
  auto build = [](GraphBuilder* b) -> std::vector<Value*> {
    Value* a = b->Input("a", DType::kI64, {4});
    Value* d = b->Input("d", DType::kI64, {4});
    Value* zero = b->Constant(Tensor::ScalarI64(0));
    Value* safe = b->Select(b->Binary(OpKind::kNotEqual, d, zero),
                            b->Div(a, d), a);
    return {safe};
  };
  auto g = MakeGroup(build, {Tensor::I64({4}, {5, 6, 7, 8}),
                             Tensor::I64({4}, {2, 0, 3, 0})});
  Env env = g->ExpectSame("division-cut");
  EXPECT_EQ(env.at(g->output(0)).i64_data()[1], 6);

  // Demanded, the per-element evaluator would trap; the loop program
  // fails the kernel instead.
  auto demanded = MakeGroup(
      [](GraphBuilder* b) -> std::vector<Value*> {
        Value* a = b->Input("a", DType::kI64, {4});
        Value* d = b->Input("d", DType::kI64, {4});
        return {b->Binary(OpKind::kMod, a, d)};
      },
      {Tensor::I64({4}, {5, 6, 7, 8}), Tensor::I64({4}, {2, 0, 3, 0})});
  Env out = demanded->inputs;
  Status status = demanded->Execute(&out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "integer division by zero");
}

TEST(FusedExecuteHazardTest, MiscompilePerturbsFirstOutputElementZero) {
  auto g = MakeGroup(
      [](GraphBuilder* b) -> std::vector<Value*> {
        Value* x = b->Input("x", DType::kF32, {2, 3});
        Value* y = b->Tanh(x);
        return {y, b->Add(y, x)};
      },
      {Thirds({2, 3})});
  Env clean = g->ExpectSame("clean");
  g->kernel->set_miscompiled(true);
  Env bad = g->ExpectSame("miscompiled");
  const Tensor& want = clean.at(g->output(0));
  const Tensor& got = bad.at(g->output(0));
  EXPECT_EQ(got.f32_data()[0], static_cast<float>(want.f32_data()[0] + 1.0));
  for (int64_t i = 1; i < got.num_elements(); ++i) {
    EXPECT_EQ(got.f32_data()[i], want.f32_data()[i]);
  }
  EXPECT_TRUE(BitEqual(clean.at(g->output(1)), bad.at(g->output(1))));
}

TEST(FusedExecuteHazardTest, DataMovementOps) {
  auto g = MakeGroup(
      [](GraphBuilder* b) -> std::vector<Value*> {
        Value* x = b->Input("x", DType::kF32, {2, 3, 4});
        Value* t = b->Transpose(x, {2, 0, 1});                      // 4x2x3
        Value* p = b->Pad(t, {1, 0, -1}, {0, 2, 1}, 0.25);          // 5x4x3
        Value* c = b->Concat({p, b->Neg(p)}, 1);                    // 5x8x3
        Value* s = b->Slice(c, {1, 0, 0}, {5, -1, -1}, {2, 3, 1});  // 2x3x3
        Value* r = b->Reshape(s, {3, 6});
        Value* bc = b->BroadcastTo(b->Reshape(b->ReduceSum(x, {0, 2}), {3, 1}),
                                   {3, 6});
        Value* io = b->Iota({3, 6}, 1, DType::kF32);
        Value* mixed = b->Add(b->Mul(r, io), bc);
        return {r, mixed, b->Cast(mixed, DType::kI64)};
      },
      {Thirds({2, 3, 4})});
  g->ExpectSame("data-movement");
}

// --- concurrency ----------------------------------------------------------

TEST(FusedExecuteConcurrencyTest, FourThreadsRunOneExecutableBitIdentically) {
  ModelConfig config;
  config.hidden = 32;
  Model model = BuildBert(config);
  auto exe = DiscCompiler::Compile(*model.graph, model.input_dim_labels);
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  Rng rng(4);
  std::vector<std::vector<Tensor>> inputs;
  std::vector<std::vector<Tensor>> want;
  for (int s = 0; s < 4; ++s) {
    inputs.push_back(model.make_inputs(DrawShapes(model, &rng, 2, 12), s));
    auto run = (*exe)->Run(inputs.back());
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    want.push_back(run->outputs);
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        const size_t s = static_cast<size_t>(t + i) % inputs.size();
        auto run = (*exe)->Run(inputs[s]);
        if (!run.ok() || run->outputs.size() != want[s].size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t o = 0; o < want[s].size(); ++o) {
          if (!BitEqual(run->outputs[o], want[s][o])) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace disc
