// CPU execution of fused kernels: whole-tensor loop programs.
//
// A FusedKernel lowers its FusionGroup once, on its first Execute, into a
// flat LoopProgram: the live members in topological order as instructions, with
// operand references, pre-read attributes and, per member, the canonical
// DimExprs of its shape. Execute evaluates those dims once per call, carves
// one double scratch block and runs every instruction as a tight loop over
// its whole domain:
//
//   unary/binary/select  elementwise map; a contiguous fast path, strided
//                        runs for broadcast operands
//   iota                 nested loops writing the axis coordinate
//   alias                reshape/cast that is not a group output: reads its
//                        operand's buffer, no code runs
//   strided              reshape/cast output copy, transpose, broadcast_to,
//                        slice: one strided read per output element
//   pad, concat, gather  box/block copies
//   reduce               per output cell, the reduced subspace in row-major
//                        order
//
// Numerics are bit-identical to evaluating every output element on its own
// through the fused expression DAG (tests/fused_execute_test.cpp keeps
// that per-element evaluator as the oracle):
//   * in-group values are unrounded doubles; kCast does not round inside a
//     group, only the store of a group output does;
//   * a group output read by a later member is read back rounded to its
//     dtype (group outputs are in topological order);
//   * each reduction cell is computed once, in ReduceAt's row-major order;
//   * integral div/mod follows operand 0's dtype.
// A faulting element (a gather index out of bounds, an integral division by
// zero) only fails the kernel where an output demands it: a select's
// unchosen branch or a slice can drop it. The fast pass only notes that
// something faulted; then the program runs again tracking, per element, the
// first fault its value depends on, in the order the per-element evaluator
// would meet it.
#include <array>
#include <limits>
#include <unordered_map>

#include "ir/eval.h"
#include "kernel/kernel.h"
#include "support/logging.h"

namespace disc {

namespace {

constexpr int kMaxRank = 8;

// Fault codes, per element in the tracking pass; 0 = clean.
enum Fault : uint8_t {
  kNoFault = 0,
  kGatherOutOfBounds = 1,
  kDivisionByZero = 2,
  kDivisionOverflow = 3,
};

Status FaultStatus(uint8_t fault) {
  switch (fault) {
    case kGatherOutOfBounds:
      return Status::InvalidArgument("gather index out of bounds");
    case kDivisionByZero:
      return Status::InvalidArgument("integer division by zero");
    default:
      return Status::InvalidArgument("integer division overflow");
  }
}

// The fault an element sees after `first`: the one met first wins.
inline uint8_t FirstFault(uint8_t first, uint8_t then) {
  return first != kNoFault ? first : then;
}

/// Row-major strides of `dims[0..rank)` into `out`.
void RowMajorStrides(const int64_t* dims, int rank, int64_t* out) {
  int64_t s = 1;
  for (int i = rank - 1; i >= 0; --i) {
    out[i] = s;
    s *= dims[i];
  }
}

/// A strided iteration space shared by N views. Element (i0..ir-1) of the
/// space is element `base_k + sum_d i_d * stride_k[d]` of view k. Size-1
/// dims are dropped and dims that are contiguous in every view merged, so
/// the innermost run is as long as possible; the visit order stays
/// row-major.
template <int N>
class Runs {
 public:
  Runs(const int64_t* ext, int rank,
       const std::array<const int64_t*, N>& strides) {
    total_ = 1;
    for (int d = 0; d < rank; ++d) {
      total_ *= ext[d];
      if (ext[d] == 1) continue;
      bool merge = rank_ > 0;
      for (int k = 0; k < N && merge; ++k) {
        merge = st_[k][rank_ - 1] == strides[k][d] * ext[d];
      }
      if (merge) {
        ext_[rank_ - 1] *= ext[d];
        for (int k = 0; k < N; ++k) st_[k][rank_ - 1] = strides[k][d];
      } else {
        ext_[rank_] = ext[d];
        for (int k = 0; k < N; ++k) st_[k][rank_] = strides[k][d];
        ++rank_;
      }
    }
  }

  /// Calls f(offsets, length, inner_strides) for each innermost run, with
  /// the views' offsets at the run's first element.
  template <typename F>
  void Visit(std::array<int64_t, N> offs, F&& f) const {
    if (total_ == 0) return;
    std::array<int64_t, N> inner{};
    if (rank_ == 0) {
      f(offs, int64_t{1}, inner);
      return;
    }
    const int last = rank_ - 1;
    for (int k = 0; k < N; ++k) inner[k] = st_[k][last];
    int64_t idx[kMaxRank] = {};
    while (true) {
      f(offs, ext_[last], inner);
      int d = last - 1;
      for (; d >= 0; --d) {
        for (int k = 0; k < N; ++k) offs[k] += st_[k][d];
        if (++idx[d] < ext_[d]) break;
        for (int k = 0; k < N; ++k) offs[k] -= st_[k][d] * ext_[d];
        idx[d] = 0;
      }
      if (d < 0) return;
    }
  }

 private:
  int rank_ = 0;
  int64_t total_ = 0;
  int64_t ext_[kMaxRank] = {};
  int64_t st_[N][kMaxRank] = {};
};

/// A read-only operand: a double buffer, or (group inputs read only by
/// copying ops) the env tensor's own storage.
struct Source {
  const double* f64 = nullptr;
  const float* f32 = nullptr;
  const int64_t* i64 = nullptr;
};

/// Calls f(ptr) with the source's typed pointer.
template <typename F>
void WithSource(const Source& src, F&& f) {
  if (src.f64 != nullptr) {
    f(src.f64);
  } else if (src.f32 != nullptr) {
    f(src.f32);
  } else {
    f(src.i64);
  }
}

}  // namespace

class LoopProgram {
 public:
  LoopProgram(const FusionGroup& group, const ShapeAnalysis& analysis);

  Status Run(const SymbolBindings& bindings,
             std::unordered_map<const Value*, Tensor>* env) const;

 private:
  enum class Op : uint8_t {
    kUnary,
    kBinary,
    kSelect,
    kIota,
    kAlias,
    kStrided,
    kPad,
    kConcat,
    kGather,
    kReduce,
  };

  struct Instr {
    Op op;
    OpKind kind;
    int out = -1;           // var written
    std::vector<int> args;  // vars read
    bool integral = false;  // operand 0 has an integral dtype (div/mod)
    int64_t axis = 0;       // iota, concat, gather
    // transpose: perm; slice: starts; pad: lows; reduce: the reduced dims.
    std::vector<int64_t> ints;
    std::vector<int64_t> steps;  // slice
    double pad_value = 0.0;
  };

  // A value the program reads or writes: a group input or a live member.
  struct Var {
    const Value* value = nullptr;
    int rank = 0;
    int dims_at = 0;  // offset of its dims in Frame::dims
    // Per dim: index into dim_exprs_, or -1 - constant.
    std::vector<int64_t> dim_src;
    int root = -1;        // var whose storage this one reads (alias chains)
    int slot = -1;        // scratch slot of a root's double buffer; -1 none
    bool input = false;   // read from env
    int output = -1;      // position in outputs_, -1 if not a group output
    bool readback = false;  // group output read by a later member
  };

  // Per-call state.
  struct Frame {
    std::vector<int64_t> dims;
    std::vector<int64_t> numel;
    std::vector<Source> src;     // per var, through its root
    std::vector<double*> buf;    // per var with a slot
    std::vector<Tensor> outputs;
    std::vector<const Tensor*> env_tensor;  // per input var
    bool faulted = false;
    // Tracking pass only: per var, per element fault codes (empty = clean).
    bool track = false;
    std::vector<std::vector<uint8_t>> faults;
  };

  const int64_t* DimsOf(const Frame& f, int var) const {
    return f.dims.data() + vars_[var].dims_at;
  }
  int VarOf(const Value* v, std::unordered_map<const Value*, int>* index);

  void Prepare(const SymbolBindings& bindings,
               std::unordered_map<const Value*, Tensor>* env, Frame* f,
               std::vector<double>* scratch) const;
  void Exec(const Instr& in, Frame* f) const;
  void ExecElementwise(const Instr& in, Frame* f) const;
  void ExecIota(const Instr& in, Frame* f) const;
  void ExecStrided(const Instr& in, Frame* f) const;
  void ExecPad(const Instr& in, Frame* f) const;
  void ExecConcat(const Instr& in, Frame* f) const;
  void ExecGather(const Instr& in, Frame* f) const;
  void ExecReduce(const Instr& in, Frame* f) const;
  void StoreOutput(int var, Frame* f) const;
  // Copies src_var (values, and fault codes when tracking) into dst_var
  // over `runs`.
  void Copy(const Runs<2>& runs, int64_t dst_at, int64_t src_at, int src_var,
            int dst_var, Frame* f) const;

  // The fault codes of `var` in the tracking pass; nullptr when clean.
  const uint8_t* FaultsOf(const Frame& f, int var) const {
    const auto& codes = f.faults[vars_[var].root];
    return codes.empty() ? nullptr : codes.data();
  }
  uint8_t* MutableFaults(Frame* f, int var) const {
    auto& codes = f->faults[var];
    if (codes.empty()) codes.assign(f->numel[var], kNoFault);
    return codes.data();
  }

  std::vector<Var> vars_;
  std::vector<Instr> instrs_;
  std::vector<int> outputs_;       // var per group output, in group order
  std::vector<DimExpr> dim_exprs_;  // distinct non-constant canonical dims
  int total_rank_ = 0;
  int num_slots_ = 0;
};

int LoopProgram::VarOf(const Value* v,
                       std::unordered_map<const Value*, int>* index) {
  auto [it, inserted] = index->try_emplace(v, static_cast<int>(vars_.size()));
  if (inserted) {
    Var var;
    var.value = v;
    var.root = it->second;
    vars_.push_back(std::move(var));
  }
  return it->second;
}

LoopProgram::LoopProgram(const FusionGroup& group,
                         const ShapeAnalysis& analysis) {
  std::unordered_map<const Node*, int> position;
  for (size_t i = 0; i < group.nodes.size(); ++i) {
    position[group.nodes[i]] = static_cast<int>(i);
  }
  // The operands each member actually reads (a dynamic reshape or
  // broadcast_to reads its shape operand on the host, not here).
  auto reads = [](const Node* node) -> std::vector<const Value*> {
    switch (node->kind()) {
      case OpKind::kIota:
        return {};
      case OpKind::kReshape:
      case OpKind::kBroadcastTo:
        return {node->operand(0)};
      default:
        return {node->operands().begin(), node->operands().end()};
    }
  };
  auto member = [&](const Value* v) -> int {
    auto it = v->producer() != nullptr ? position.find(v->producer())
                                       : position.end();
    return it == position.end() ? -1 : it->second;
  };

  // Live members: those some group output reaches through reads. Outputs
  // must be in topological order: a member reading an output runs in a
  // later output's phase, where the output is already stored (rounded).
  std::vector<bool> live(group.nodes.size(), false);
  int last_output = -1;
  for (const Value* out : group.outputs) {
    const int pos = member(out);
    DISC_CHECK(pos >= 0) << "group output %" << out->id()
                         << " is not produced inside the group";
    DISC_CHECK(pos >= last_output)
        << "group outputs are not in topological order";
    last_output = pos;
    live[pos] = true;
  }
  for (int i = static_cast<int>(group.nodes.size()) - 1; i >= 0; --i) {
    if (!live[i]) continue;
    DISC_CHECK_EQ(group.nodes[i]->outputs().size(), 1u);
    for (const Value* operand : reads(group.nodes[i])) {
      const int pos = member(operand);
      if (pos < 0) continue;
      DISC_CHECK(pos < i) << "group members are not in topological order";
      live[pos] = true;
    }
  }

  std::unordered_map<const Value*, int> index;
  for (const Value* out : group.outputs) {
    const int var = VarOf(out, &index);
    if (vars_[var].output < 0) {
      vars_[var].output = static_cast<int>(outputs_.size());
      outputs_.push_back(var);
    }
  }
  for (size_t i = 0; i < group.nodes.size(); ++i) {
    if (!live[i]) continue;
    const Node* node = group.nodes[i];
    Instr in;
    in.kind = node->kind();
    for (const Value* operand : reads(node)) {
      const int var = VarOf(operand, &index);
      if (member(operand) < 0) vars_[var].input = true;
      in.args.push_back(var);
    }
    in.out = VarOf(node->output(0), &index);
    switch (node->kind()) {
      case OpKind::kIota:
        in.op = Op::kIota;
        in.axis = node->GetIntAttr("axis", 0);
        break;
      case OpKind::kReshape:
      case OpKind::kCast:
        in.op = vars_[in.out].output >= 0 ? Op::kStrided : Op::kAlias;
        break;
      case OpKind::kTranspose:
        in.op = Op::kStrided;
        in.ints = node->GetIntListAttr("perm");
        break;
      case OpKind::kBroadcastTo:
        in.op = Op::kStrided;
        break;
      case OpKind::kSlice:
        in.op = Op::kStrided;
        in.ints = node->GetIntListAttr("starts");
        in.steps = node->GetIntListAttr("steps");
        break;
      case OpKind::kPad:
        in.op = Op::kPad;
        in.ints = node->GetIntListAttr("pads_low");
        in.pad_value = node->GetFloatAttr("pad_value", 0.0);
        break;
      case OpKind::kConcat:
        in.op = Op::kConcat;
        in.axis = node->GetIntAttr("axis", 0);
        break;
      case OpKind::kGather:
        in.op = Op::kGather;
        in.axis = node->GetIntAttr("axis", 0);
        break;
      case OpKind::kReduceSum:
      case OpKind::kReduceMax:
      case OpKind::kReduceMin:
      case OpKind::kReduceMean:
        in.op = Op::kReduce;
        // keep_dims only inserts size-1 dims: the cell order is the same.
        in.ints = node->GetIntListAttr("dims");
        break;
      case OpKind::kSelect:
        in.op = Op::kSelect;
        break;
      default: {
        const OpInfo& info = GetOpInfo(node->kind());
        DISC_CHECK(info.op_class == OpClass::kElementwise)
            << "unsupported op inside fused group: " << info.name;
        in.op = node->num_operands() == 1 ? Op::kUnary : Op::kBinary;
        in.integral = IsIntegral(node->operand(0)->dtype());
        break;
      }
    }
    if (in.op == Op::kAlias) vars_[in.out].root = vars_[in.args[0]].root;
    instrs_.push_back(std::move(in));
  }

  // Canonical dims, each distinct symbolic expression evaluated once a call.
  std::unordered_map<std::string, int64_t> expr_index;
  for (Var& var : vars_) {
    const SymShape shape =
        analysis.manager().Canonicalize(analysis.GetShape(var.value));
    var.rank = static_cast<int>(shape.size());
    DISC_CHECK_LE(var.rank, kMaxRank)
        << "fused value %" << var.value->id() << " has rank " << var.rank;
    var.dims_at = total_rank_;
    total_rank_ += var.rank;
    for (const DimExpr& d : shape) {
      if (d.IsConst()) {
        var.dim_src.push_back(-1 - d.const_value());
        continue;
      }
      auto [it, inserted] = expr_index.try_emplace(
          d.ToString(), static_cast<int64_t>(dim_exprs_.size()));
      if (inserted) dim_exprs_.push_back(d);
      var.dim_src.push_back(it->second);
    }
  }

  // Which roots need a double buffer: every member that is not an alias,
  // and every input some instruction reads as doubles (the copying ops
  // read an input's own storage instead).
  const int n = static_cast<int>(instrs_.size());
  std::vector<int> first_def(vars_.size(), 0), last_use(vars_.size(), -1);
  std::vector<bool> needs_buffer(vars_.size(), false);
  for (int t = 0; t < n; ++t) {
    const Instr& in = instrs_[t];
    if (in.op != Op::kAlias) {
      needs_buffer[in.out] = true;
      first_def[in.out] = t;
      last_use[in.out] = std::max(last_use[in.out], t);
    }
    for (size_t a = 0; a < in.args.size(); ++a) {
      const int root = vars_[in.args[a]].root;
      last_use[root] = std::max(last_use[root], t);
      if (vars_[in.args[a]].output >= 0) vars_[in.args[a]].readback = true;
      // Copying ops read an input's own storage; an alias's readers mark
      // what they need themselves.
      const bool copies = in.op == Op::kAlias || in.op == Op::kStrided ||
                          in.op == Op::kPad || in.op == Op::kConcat ||
                          (in.op == Op::kGather && a == 0);
      if (!copies) needs_buffer[root] = true;
    }
  }
  // Linear scan in instruction order: a buffer is reused once its last
  // reader has run. Inputs are converted before the first instruction.
  std::vector<int> order;
  for (size_t v = 0; v < vars_.size(); ++v) {
    if (!needs_buffer[v]) continue;
    if (vars_[v].input) first_def[v] = -1;
    order.push_back(static_cast<int>(v));
  }
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return first_def[a] < first_def[b];
  });
  std::vector<int> slot_free_after;  // per slot: last use of its holder
  for (int v : order) {
    int slot = -1;
    for (size_t s = 0; s < slot_free_after.size(); ++s) {
      if (slot_free_after[s] < first_def[v]) {
        slot = static_cast<int>(s);
        break;
      }
    }
    if (slot < 0) {
      slot = static_cast<int>(slot_free_after.size());
      slot_free_after.push_back(0);
    }
    slot_free_after[slot] = std::max(last_use[v], first_def[v]);
    vars_[v].slot = slot;
  }
  num_slots_ = static_cast<int>(slot_free_after.size());
}

void LoopProgram::Prepare(const SymbolBindings& bindings,
                          std::unordered_map<const Value*, Tensor>* env,
                          Frame* f, std::vector<double>* scratch) const {
  // Concrete dims. Binding completeness was validated when the runtime
  // solved the symbols, so a failure here is a compiler bug.
  std::vector<int64_t> expr_values(dim_exprs_.size());
  for (size_t e = 0; e < dim_exprs_.size(); ++e) {
    auto value = dim_exprs_[e].Evaluate(bindings);
    DISC_CHECK(value.ok()) << "shape evaluation failed for "
                           << dim_exprs_[e].ToString() << ": "
                           << value.status().ToString();
    expr_values[e] = *value;
  }
  f->dims.resize(total_rank_);
  f->numel.resize(vars_.size());
  for (size_t v = 0; v < vars_.size(); ++v) {
    const Var& var = vars_[v];
    int64_t numel = 1;
    for (int d = 0; d < var.rank; ++d) {
      const int64_t src = var.dim_src[d];
      const int64_t dim = src >= 0 ? expr_values[src] : -1 - src;
      f->dims[var.dims_at + d] = dim;
      numel *= dim;
    }
    f->numel[v] = numel;
  }

  // One scratch block, carved per slot at the largest holder's size.
  std::vector<int64_t> slot_size(num_slots_, 0);
  for (size_t v = 0; v < vars_.size(); ++v) {
    if (vars_[v].slot >= 0) {
      slot_size[vars_[v].slot] =
          std::max(slot_size[vars_[v].slot], f->numel[v]);
    }
  }
  std::vector<int64_t> slot_at(num_slots_, 0);
  int64_t total = 0;
  for (int s = 0; s < num_slots_; ++s) {
    slot_at[s] = total;
    total += slot_size[s];
  }
  if (static_cast<int64_t>(scratch->size()) < total) scratch->resize(total);

  f->buf.assign(vars_.size(), nullptr);
  f->src.assign(vars_.size(), Source{});
  f->env_tensor.assign(vars_.size(), nullptr);
  for (size_t v = 0; v < vars_.size(); ++v) {
    const Var& var = vars_[v];
    if (var.slot >= 0) f->buf[v] = scratch->data() + slot_at[var.slot];
    if (!var.input) continue;
    auto it = env->find(var.value);
    DISC_CHECK(it != env->end())
        << "value %" << var.value->id() << " not reachable inside the fused group";
    const Tensor& t = it->second;
    DISC_CHECK_EQ(t.num_elements(), f->numel[v])
        << "input %" << var.value->id() << " is " << t.TypeString();
    f->env_tensor[v] = &t;
  }
  for (size_t v = 0; v < vars_.size(); ++v) {
    const int root = vars_[v].root;
    if (f->buf[root] != nullptr) {
      f->src[v].f64 = f->buf[root];
    } else if (const Tensor* t = f->env_tensor[root]) {
      if (t->dtype() == DType::kF32) {
        f->src[v].f32 = t->f32_data();
      } else {
        f->src[v].i64 = t->i64_data();
      }
    }
  }
  f->outputs.assign(outputs_.size(), Tensor());
  f->faulted = false;
  if (f->track) f->faults.assign(vars_.size(), {});
}

void LoopProgram::StoreOutput(int var, Frame* f) const {
  const Var& v = vars_[var];
  const int64_t n = f->numel[var];
  const int64_t* dims = DimsOf(*f, var);
  Tensor& t = f->outputs[v.output];
  t = Tensor(v.value->dtype(), std::vector<int64_t>(dims, dims + v.rank));
  double* values = f->buf[var];
  // Tensor::SetElementFromDouble's conversions; a later member reads the
  // stored (rounded) value back.
  if (t.dtype() == DType::kF32) {
    float* out = t.f32_data();
    for (int64_t i = 0; i < n; ++i) out[i] = static_cast<float>(values[i]);
    if (v.readback) {
      for (int64_t i = 0; i < n; ++i) values[i] = out[i];
    }
  } else {
    int64_t* out = t.i64_data();
    if (t.dtype() == DType::kI1) {
      for (int64_t i = 0; i < n; ++i) out[i] = values[i] != 0.0 ? 1 : 0;
    } else {
      for (int64_t i = 0; i < n; ++i) {
        out[i] = static_cast<int64_t>(values[i]);
      }
    }
    if (v.readback) {
      for (int64_t i = 0; i < n; ++i) {
        values[i] = static_cast<double>(out[i]);
      }
    }
  }
}

Status LoopProgram::Run(const SymbolBindings& bindings,
                        std::unordered_map<const Value*, Tensor>* env) const {
  // Scratch is reused across calls on a thread; it grows to the largest
  // kernel the thread has run.
  thread_local std::vector<double> scratch;
  Frame f;
  for (int pass = 0; pass < 2; ++pass) {
    f.track = pass == 1;
    Prepare(bindings, env, &f, &scratch);
    for (size_t v = 0; v < vars_.size(); ++v) {
      const Var& var = vars_[v];
      if (!var.input || f.buf[v] == nullptr) continue;
      const int64_t n = f.numel[v];
      double* out = f.buf[v];
      const Tensor& t = *f.env_tensor[v];
      if (t.dtype() == DType::kF32) {
        const float* in = t.f32_data();
        for (int64_t i = 0; i < n; ++i) out[i] = in[i];
      } else {
        const int64_t* in = t.i64_data();
        for (int64_t i = 0; i < n; ++i) out[i] = static_cast<double>(in[i]);
      }
    }
    for (const Instr& in : instrs_) {
      Exec(in, &f);
      if (vars_[in.out].output >= 0) StoreOutput(in.out, &f);
    }
    if (!f.faulted) break;
    if (!f.track) continue;
    // Outputs are stored in order; the first one with a faulting element
    // fails the kernel with that element's first fault.
    for (size_t o = 0; o < outputs_.size(); ++o) {
      if (const uint8_t* codes = FaultsOf(f, outputs_[o])) {
        const int64_t n = f.numel[outputs_[o]];
        for (int64_t i = 0; i < n; ++i) {
          if (codes[i] != kNoFault) return FaultStatus(codes[i]);
        }
      }
      env->emplace(vars_[outputs_[o]].value, std::move(f.outputs[o]));
    }
    return Status::OK();
  }
  for (size_t o = 0; o < outputs_.size(); ++o) {
    env->emplace(vars_[outputs_[o]].value, std::move(f.outputs[o]));
  }
  return Status::OK();
}

void LoopProgram::Exec(const Instr& in, Frame* f) const {
  switch (in.op) {
    case Op::kUnary:
    case Op::kBinary:
    case Op::kSelect:
      return ExecElementwise(in, f);
    case Op::kIota:
      return ExecIota(in, f);
    case Op::kAlias:
      return;
    case Op::kStrided:
      return ExecStrided(in, f);
    case Op::kPad:
      return ExecPad(in, f);
    case Op::kConcat:
      return ExecConcat(in, f);
    case Op::kGather:
      return ExecGather(in, f);
    case Op::kReduce:
      return ExecReduce(in, f);
  }
}

namespace {

// Strides of an operand of dims `in` (rank `in_rank`) over an output of
// rank `out_rank` under numpy broadcast: right-aligned, size-1 dims 0.
void BroadcastStrides(const int64_t* in, int in_rank, int out_rank,
                      int64_t* out) {
  int64_t row_major[kMaxRank];
  RowMajorStrides(in, in_rank, row_major);
  const int offset = out_rank - in_rank;
  for (int d = 0; d < out_rank; ++d) {
    const int i = d - offset;
    out[d] = i < 0 || in[i] == 1 ? 0 : row_major[i];
  }
}

// out[view 0] = fn(in[0][view 1], ..., in[N-1][view N]) over `runs`.
template <int N, typename Fn>
void MapElements(const Runs<N + 1>& runs,
                 const std::array<const double*, N>& in, double* out,
                 Fn&& fn) {
  runs.Visit({}, [&](const std::array<int64_t, N + 1>& offs, int64_t count,
                     const std::array<int64_t, N + 1>& st) {
    double* o = out + offs[0];
    bool contiguous = st[0] == 1;
    for (int k = 1; k <= N; ++k) contiguous = contiguous && st[k] == 1;
    if (contiguous) {
      std::array<const double*, N> p;
      for (int k = 0; k < N; ++k) p[k] = in[k] + offs[k + 1];
      for (int64_t j = 0; j < count; ++j) {
        if constexpr (N == 1) o[j] = fn(p[0][j]);
        if constexpr (N == 2) o[j] = fn(p[0][j], p[1][j]);
        if constexpr (N == 3) o[j] = fn(p[0][j], p[1][j], p[2][j]);
      }
      return;
    }
    for (int64_t j = 0; j < count; ++j) {
      auto at = [&](int k) { return in[k][offs[k + 1] + j * st[k + 1]]; };
      if constexpr (N == 1) o[j * st[0]] = fn(at(0));
      if constexpr (N == 2) o[j * st[0]] = fn(at(0), at(1));
      if constexpr (N == 3) o[j * st[0]] = fn(at(0), at(1), at(2));
    }
  });
}

template <OpKind K>
void MapUnary(const Runs<2>& runs, const double* a, double* out) {
  MapElements<1>(runs, {a}, out,
                 [](double x) { return UnaryScalar<K>(x); });
}

template <OpKind K>
void MapBinary(const Runs<3>& runs, const double* a, const double* b,
               double* out) {
  MapElements<2>(runs, {a, b}, out, [](double x, double y) {
    return BinaryScalar<K>(x, y, /*integral=*/false);
  });
}

// Integral div/mod: int64 arithmetic that would trap yields 0 and a fault.
template <OpKind K>
void MapIntegralDivision(const Runs<3>& runs, const double* a,
                         const double* b, double* out, bool* faulted) {
  bool any = false;
  MapElements<2>(runs, {a, b}, out, [&](double x, double y) {
    const int64_t xi = static_cast<int64_t>(x);
    const int64_t yi = static_cast<int64_t>(y);
    if (yi == 0 || (yi == -1 && xi == std::numeric_limits<int64_t>::min())) {
      any = true;
      return 0.0;
    }
    return BinaryScalar<K>(x, y, /*integral=*/true);
  });
  *faulted = *faulted || any;
}

}  // namespace

void LoopProgram::ExecElementwise(const Instr& in, Frame* f) const {
  const int out_rank = vars_[in.out].rank;
  const int64_t* out_dims = DimsOf(*f, in.out);
  constexpr int kMaxArgs = 3;
  const int nargs = static_cast<int>(in.args.size());
  DISC_CHECK_LE(nargs, kMaxArgs);
  int64_t out_st[kMaxRank];
  RowMajorStrides(out_dims, out_rank, out_st);
  int64_t arg_st[kMaxArgs][kMaxRank];
  const double* arg[kMaxArgs] = {};
  for (int k = 0; k < nargs; ++k) {
    const int var = in.args[k];
    BroadcastStrides(DimsOf(*f, var), vars_[var].rank, out_rank, arg_st[k]);
    arg[k] = f->src[var].f64;
  }
  double* out = f->buf[in.out];

  if (in.op == Op::kUnary) {
    Runs<2> runs(out_dims, out_rank, {out_st, arg_st[0]});
    switch (in.kind) {
#define DISC_CASE(K)                          \
  case OpKind::K:                             \
    MapUnary<OpKind::K>(runs, arg[0], out);   \
    break;
      DISC_UNARY_SCALAR_OPS(DISC_CASE)
#undef DISC_CASE
      default:
        DISC_UNREACHABLE(OpName(in.kind));
    }
  } else if (in.op == Op::kBinary) {
    Runs<3> runs(out_dims, out_rank, {out_st, arg_st[0], arg_st[1]});
    if (in.integral && in.kind == OpKind::kDiv) {
      MapIntegralDivision<OpKind::kDiv>(runs, arg[0], arg[1], out,
                                        &f->faulted);
    } else if (in.integral && in.kind == OpKind::kMod) {
      MapIntegralDivision<OpKind::kMod>(runs, arg[0], arg[1], out,
                                        &f->faulted);
    } else {
      switch (in.kind) {
#define DISC_CASE(K)                                 \
  case OpKind::K:                                    \
    MapBinary<OpKind::K>(runs, arg[0], arg[1], out); \
    break;
        DISC_BINARY_SCALAR_OPS(DISC_CASE)
#undef DISC_CASE
        default:
          DISC_UNREACHABLE(OpName(in.kind));
      }
    }
  } else {
    Runs<4> runs(out_dims, out_rank, {out_st, arg_st[0], arg_st[1], arg_st[2]});
    MapElements<3>(runs, {arg[0], arg[1], arg[2]}, out,
                   [](double pred, double t, double e) {
                     return pred != 0.0 ? t : e;
                   });
  }
  if (!f->track) return;

  // An element's first fault, in evaluation order: operand 0, then (for a
  // select, only the chosen branch) the rest, then its own.
  const uint8_t* codes[kMaxArgs] = {};
  bool any = false;
  for (int k = 0; k < nargs; ++k) {
    codes[k] = FaultsOf(*f, in.args[k]);
    any = any || codes[k] != nullptr;
  }
  const bool division = in.integral && (in.kind == OpKind::kDiv ||
                                        in.kind == OpKind::kMod);
  if (!any && !division) return;
  uint8_t* mine = MutableFaults(f, in.out);
  Runs<4> runs(out_dims, out_rank,
               {out_st, arg_st[0], nargs > 1 ? arg_st[1] : arg_st[0],
                nargs > 2 ? arg_st[2] : arg_st[0]});
  runs.Visit({}, [&](const std::array<int64_t, 4>& offs, int64_t count,
                     const std::array<int64_t, 4>& st) {
    for (int64_t j = 0; j < count; ++j) {
      int64_t at[kMaxArgs];
      for (int k = 0; k < kMaxArgs; ++k) at[k] = offs[k + 1] + j * st[k + 1];
      auto code = [&](int k) {
        return codes[k] != nullptr ? codes[k][at[k]] : uint8_t{kNoFault};
      };
      uint8_t fault = code(0);
      if (in.op == Op::kSelect) {
        if (fault == kNoFault) fault = code(arg[0][at[0]] != 0.0 ? 1 : 2);
      } else if (in.op == Op::kBinary) {
        fault = FirstFault(fault, code(1));
        if (fault == kNoFault && division) {
          const int64_t x = static_cast<int64_t>(arg[0][at[0]]);
          const int64_t y = static_cast<int64_t>(arg[1][at[1]]);
          if (y == 0) {
            fault = kDivisionByZero;
          } else if (y == -1 && x == std::numeric_limits<int64_t>::min()) {
            fault = kDivisionOverflow;
          }
        }
      }
      mine[offs[0] + j * st[0]] = fault;
    }
  });
}

void LoopProgram::ExecIota(const Instr& in, Frame* f) const {
  const int rank = vars_[in.out].rank;
  const int64_t* dims = DimsOf(*f, in.out);
  int64_t outer = 1, inner = 1;
  for (int d = 0; d < in.axis; ++d) outer *= dims[d];
  for (int d = static_cast<int>(in.axis) + 1; d < rank; ++d) inner *= dims[d];
  const int64_t extent = dims[in.axis];
  double* out = f->buf[in.out];
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t a = 0; a < extent; ++a) {
      double* row = out + (o * extent + a) * inner;
      for (int64_t i = 0; i < inner; ++i) row[i] = static_cast<double>(a);
    }
  }
}

namespace {

// dst[view 0] = src[view 1] over `runs`.
template <typename S, typename D>
void CopyRuns(const Runs<2>& runs, int64_t dst_at, int64_t src_at,
              const S* src, D* dst) {
  runs.Visit({dst_at, src_at}, [&](const std::array<int64_t, 2>& offs,
                                   int64_t count,
                                   const std::array<int64_t, 2>& st) {
    D* d = dst + offs[0];
    const S* s = src + offs[1];
    if (st[0] == 1 && st[1] == 1) {
      for (int64_t j = 0; j < count; ++j) d[j] = static_cast<D>(s[j]);
    } else {
      for (int64_t j = 0; j < count; ++j) {
        d[j * st[0]] = static_cast<D>(s[j * st[1]]);
      }
    }
  });
}

// Folds each output cell's run of source elements in row-major order:
// out[cell] = combine(...combine(init, first)..., last).
template <typename T, typename Combine>
void FoldCells(const Runs<1>& cells, const Runs<1>& row, const T* src,
               T init, Combine combine, T* out) {
  int64_t cell = 0;
  cells.Visit({0}, [&](const std::array<int64_t, 1>& offs, int64_t n,
                       const std::array<int64_t, 1>& st) {
    for (int64_t c = 0; c < n; ++c) {
      T acc = init;
      row.Visit({offs[0] + c * st[0]},
                [&](const std::array<int64_t, 1>& at, int64_t len,
                    const std::array<int64_t, 1>& rst) {
                  const T* p = src + at[0];
                  if (rst[0] == 1) {
                    for (int64_t r = 0; r < len; ++r) acc = combine(acc, p[r]);
                  } else {
                    for (int64_t r = 0; r < len; ++r) {
                      acc = combine(acc, p[r * rst[0]]);
                    }
                  }
                });
      out[cell++] = acc;
    }
  });
}

}  // namespace

void LoopProgram::Copy(const Runs<2>& runs, int64_t dst_at, int64_t src_at,
                       int src_var, int dst_var, Frame* f) const {
  double* out = f->buf[dst_var];
  WithSource(f->src[src_var], [&](const auto* src) {
    CopyRuns(runs, dst_at, src_at, src, out);
  });
  if (!f->track) return;
  if (const uint8_t* codes = FaultsOf(*f, src_var)) {
    CopyRuns(runs, dst_at, src_at, codes, MutableFaults(f, dst_var));
  }
}

void LoopProgram::ExecStrided(const Instr& in, Frame* f) const {
  const int rank = vars_[in.out].rank;
  const int64_t* dims = DimsOf(*f, in.out);
  const int src_var = in.args[0];
  const int src_rank = vars_[src_var].rank;
  const int64_t* src_dims = DimsOf(*f, src_var);
  int64_t out_st[kMaxRank], src_st[kMaxRank], view[kMaxRank];
  RowMajorStrides(dims, rank, out_st);
  RowMajorStrides(src_dims, src_rank, src_st);
  int64_t src_at = 0;
  switch (in.kind) {
    case OpKind::kReshape:
    case OpKind::kCast:  // the linear index passes through
      std::copy(out_st, out_st + rank, view);
      break;
    case OpKind::kTranspose:
      for (int d = 0; d < rank; ++d) view[d] = src_st[in.ints[d]];
      break;
    case OpKind::kBroadcastTo:
      BroadcastStrides(src_dims, src_rank, rank, view);
      break;
    case OpKind::kSlice:
      for (int d = 0; d < rank; ++d) {
        src_at += in.ints[d] * src_st[d];
        view[d] = in.steps[d] * src_st[d];
      }
      break;
    default:
      DISC_UNREACHABLE(OpName(in.kind));
  }
  Copy(Runs<2>(dims, rank, {out_st, view}), 0, src_at, src_var, in.out, f);
}

void LoopProgram::ExecPad(const Instr& in, Frame* f) const {
  // Elements inside the source box copy it; the rest are pad_value (and
  // never fault: they read nothing).
  const int rank = vars_[in.out].rank;
  const int64_t* dims = DimsOf(*f, in.out);
  const int src_var = in.args[0];
  const int64_t* src_dims = DimsOf(*f, src_var);
  int64_t out_st[kMaxRank], src_st[kMaxRank], box[kMaxRank];
  RowMajorStrides(dims, rank, out_st);
  RowMajorStrides(src_dims, rank, src_st);
  int64_t out_at = 0, src_at = 0;
  for (int d = 0; d < rank; ++d) {
    const int64_t lo = std::max<int64_t>(0, in.ints[d]);
    const int64_t hi = std::min(dims[d], in.ints[d] + src_dims[d]);
    box[d] = std::max<int64_t>(0, hi - lo);
    out_at += lo * out_st[d];
    src_at += (lo - in.ints[d]) * src_st[d];
  }
  double* out = f->buf[in.out];
  std::fill(out, out + f->numel[in.out], in.pad_value);
  Copy(Runs<2>(box, rank, {out_st, src_st}), out_at, src_at, src_var, in.out,
       f);
}

void LoopProgram::ExecConcat(const Instr& in, Frame* f) const {
  const int rank = vars_[in.out].rank;
  const int64_t* dims = DimsOf(*f, in.out);
  int64_t out_st[kMaxRank];
  RowMajorStrides(dims, rank, out_st);
  int64_t pos = 0;  // offset of the current part along the axis
  for (const int part : in.args) {
    const int64_t* part_dims = DimsOf(*f, part);
    int64_t part_st[kMaxRank];
    RowMajorStrides(part_dims, rank, part_st);
    Copy(Runs<2>(part_dims, rank, {out_st, part_st}), pos * out_st[in.axis],
         0, part, in.out, f);
    pos += part_dims[in.axis];
  }
}

void LoopProgram::ExecGather(const Instr& in, Frame* f) const {
  // out = data[:axis] x indices x data[axis+1:]: per (prefix, index) one
  // contiguous block of `inner` data elements.
  const int data_var = in.args[0];
  const int index_var = in.args[1];
  const int64_t* data_dims = DimsOf(*f, data_var);
  int64_t outer = 1, inner = 1;
  for (int d = 0; d < in.axis; ++d) outer *= data_dims[d];
  for (int d = static_cast<int>(in.axis) + 1; d < vars_[data_var].rank; ++d) {
    inner *= data_dims[d];
  }
  const int64_t extent = data_dims[in.axis];
  const int64_t count = f->numel[index_var];
  const double* index = f->src[index_var].f64;
  double* out = f->buf[in.out];
  // A row is valid iff its truncation to int64 is in [0, extent).
  auto valid = [extent](double picked) {
    return picked > -1.0 && picked < static_cast<double>(extent);
  };
  bool faulted = false;
  WithSource(f->src[data_var], [&](const auto* data) {
    for (int64_t o = 0; o < outer; ++o) {
      for (int64_t q = 0; q < count; ++q) {
        double* dst = out + (o * count + q) * inner;
        if (!valid(index[q])) {
          faulted = true;
          std::fill(dst, dst + inner, 0.0);
          continue;
        }
        const auto* src =
            data + (o * extent + static_cast<int64_t>(index[q])) * inner;
        for (int64_t i = 0; i < inner; ++i) {
          dst[i] = static_cast<double>(src[i]);
        }
      }
    }
  });
  f->faulted = f->faulted || faulted;
  if (!f->track) return;
  const uint8_t* index_codes = FaultsOf(*f, index_var);
  const uint8_t* data_codes = FaultsOf(*f, data_var);
  if (!faulted && index_codes == nullptr && data_codes == nullptr) return;
  uint8_t* mine = MutableFaults(f, in.out);
  for (int64_t o = 0; o < outer; ++o) {
    for (int64_t q = 0; q < count; ++q) {
      uint8_t* dst = mine + (o * count + q) * inner;
      uint8_t fault =
          index_codes != nullptr ? index_codes[q] : uint8_t{kNoFault};
      if (fault == kNoFault && !valid(index[q])) fault = kGatherOutOfBounds;
      if (fault != kNoFault || data_codes == nullptr) {
        std::fill(dst, dst + inner, fault);
        continue;
      }
      const uint8_t* src =
          data_codes + (o * extent + static_cast<int64_t>(index[q])) * inner;
      std::copy(src, src + inner, dst);
    }
  }
}

void LoopProgram::ExecReduce(const Instr& in, Frame* f) const {
  const int src_var = in.args[0];
  const int rank = vars_[src_var].rank;
  const int64_t* src_dims = DimsOf(*f, src_var);
  int64_t src_st[kMaxRank];
  RowMajorStrides(src_dims, rank, src_st);
  bool reduced[kMaxRank] = {};
  for (int64_t d : in.ints) reduced[d] = true;
  // Output cells walk the kept dims, each cell the reduced dims, both
  // row-major.
  int64_t kept_ext[kMaxRank], kept_st[kMaxRank], red_ext[kMaxRank],
      red_st[kMaxRank];
  int nk = 0, nr = 0;
  int64_t count = 1;
  for (int d = 0; d < rank; ++d) {
    if (reduced[d]) {
      red_ext[nr] = src_dims[d];
      red_st[nr++] = src_st[d];
      count *= src_dims[d];
    } else {
      kept_ext[nk] = src_dims[d];
      kept_st[nk++] = src_st[d];
    }
  }
  Runs<1> cells(kept_ext, nk, {kept_st});
  Runs<1> row(red_ext, nr, {red_st});

  const double* src = f->src[src_var].f64;
  double* out = f->buf[in.out];
  double init = 0.0;
  if (in.kind == OpKind::kReduceMax) {
    init = -std::numeric_limits<double>::infinity();
  } else if (in.kind == OpKind::kReduceMin) {
    init = std::numeric_limits<double>::infinity();
  }
  switch (in.kind) {
    case OpKind::kReduceMax:
      FoldCells(cells, row, src, init,
                [](double acc, double v) { return std::max(acc, v); }, out);
      break;
    case OpKind::kReduceMin:
      FoldCells(cells, row, src, init,
                [](double acc, double v) { return std::min(acc, v); }, out);
      break;
    default:
      FoldCells(cells, row, src, init,
                [](double acc, double v) { return acc + v; }, out);
      break;
  }
  if (in.kind == OpKind::kReduceMean && count > 0) {
    const int64_t cells_n = f->numel[in.out];
    for (int64_t c = 0; c < cells_n; ++c) out[c] /= static_cast<double>(count);
  }
  if (!f->track) return;
  if (const uint8_t* codes = FaultsOf(*f, src_var)) {
    FoldCells(cells, row, codes, uint8_t{kNoFault}, FirstFault,
              MutableFaults(f, in.out));
  }
}

Status FusedKernel::Execute(
    const SymbolBindings& bindings,
    std::unordered_map<const Value*, Tensor>* env) const {
  std::call_once(program_once_, [this] {
    program_ = std::make_shared<const LoopProgram>(group_, *analysis_);
  });
  DISC_RETURN_IF_ERROR(program_->Run(bindings, env));
  if (miscompiled_) {
    // Injected miscompile: perturb one element of the first group output.
    // Deterministic (same wrong answer every run) so differential
    // validation can prove exactly which artifact is bad.
    for (const Value* output : group_.outputs) {
      auto it = env->find(output);
      if (it == env->end() || it->second.num_elements() == 0) continue;
      it->second.SetElementFromDouble(0,
                                      it->second.ElementAsDouble(0) + 1.0);
      break;
    }
  }
  return Status::OK();
}

}  // namespace disc
