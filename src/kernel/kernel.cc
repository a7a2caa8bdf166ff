#include "kernel/kernel.h"

#include <algorithm>
#include <sstream>

#include "support/logging.h"
#include "support/math_util.h"
#include "support/string_util.h"

namespace disc {

const char* ReduceScheduleName(ReduceSchedule schedule) {
  switch (schedule) {
    case ReduceSchedule::kNone:
      return "none";
    case ReduceSchedule::kWarpPerRow:
      return "warp_per_row";
    case ReduceSchedule::kBlockPerRow:
      return "block_per_row";
  }
  return "?";
}

std::string KernelVariant::ToString() const {
  std::ostringstream out;
  out << name;
  out << " [vec=" << vector_width;
  if (broadcast_free) out << ", bcast-free";
  if (exact_shape) out << ", exact-shape";
  if (schedule != ReduceSchedule::kNone) {
    out << ", " << ReduceScheduleName(schedule);
  }
  out << "] guard: " << guard.ToString();
  return out.str();
}

int64_t OpFlopCost(OpKind kind) {
  switch (kind) {
    case OpKind::kExp:
    case OpKind::kLog:
    case OpKind::kSqrt:
    case OpKind::kRsqrt:
    case OpKind::kTanh:
    case OpKind::kErf:
    case OpKind::kSigmoid:
    case OpKind::kPow:
      return 8;  // SFU-heavy transcendental
    case OpKind::kDiv:
    case OpKind::kReciprocal:
      return 4;
    case OpKind::kTranspose:
    case OpKind::kReshape:
    case OpKind::kBroadcastTo:
    case OpKind::kConcat:
    case OpKind::kSlice:
    case OpKind::kPad:
    case OpKind::kGather:
    case OpKind::kShapeOf:
    case OpKind::kDim:
    case OpKind::kConstant:
      return 0;  // pure data movement / host
    default:
      return 1;
  }
}

// Declared in specialize.cc.
void BuildVariants(FusedKernel* kernel, const SpecializeOptions& options);

FusedKernel::FusedKernel(FusionGroup group, const ShapeAnalysis* analysis,
                         const SpecializeOptions& options)
    : group_(std::move(group)), analysis_(analysis) {
  name_ = StrFormat("%s_fusion_%d", FusionKindName(group_.kind), group_.id);
  DISC_CHECK(group_.root != nullptr);
  root_elements_ = analysis_->manager().Canonicalize(
      SymShapeNumElements(analysis_->GetShape(group_.root->output(0))));
  // Row extent from the first reduction member, if any.
  for (const Node* node : group_.nodes) {
    if (!IsReduction(node->kind())) continue;
    const SymShape& in = analysis_->GetShape(node->operand(0));
    const auto& dims = node->GetIntListAttr("dims");
    std::vector<DimExpr> factors;
    for (int64_t d : dims) factors.push_back(in[d]);
    row_extent_ =
        analysis_->manager().Canonicalize(DimExpr::Mul(std::move(factors)));
    row_count_ = analysis_->manager().Canonicalize(
        DimExpr::FloorDiv(SymShapeNumElements(in), row_extent_));
    break;
  }
  BuildVariants(this, options);
}

std::vector<KernelVariant> FusedKernel::VariantsUnder(
    const SpecializeOptions& options) const {
  // Re-run variant generation on a scratch kernel over the same group and
  // analysis. Cheap (no codegen, just guard construction) and guarantees
  // the counterfactual uses exactly the compile-time preference order.
  FusedKernel scratch(group_, analysis_, options);
  return std::move(scratch.variants_);
}

Result<const KernelVariant*> FusedKernel::SelectVariant(
    const SymbolBindings& bindings) const {
  DISC_ASSIGN_OR_RETURN(int index, SelectVariantIndex(bindings));
  return &variants_[index];
}

Result<int> FusedKernel::SelectVariantIndex(
    const SymbolBindings& bindings) const {
  if (guard_mispredict_ && variants_.size() > 1) {
    // Injected guard miscompile: dispatch the first (most specialized)
    // variant without consulting its guard. At bindings the guard would
    // reject, this is exactly the wrong-variant bug the admission gate's
    // per-probe guard re-evaluation must catch.
    return 0;
  }
  for (size_t i = 0; i < variants_.size(); ++i) {
    DISC_ASSIGN_OR_RETURN(bool admitted,
                          variants_[i].guard.Evaluate(bindings));
    if (admitted) return static_cast<int>(i);
  }
  return Status::Internal("no variant admitted (missing generic fallback?)");
}

Result<int> FusedKernel::SelectVariantIndex(
    const std::vector<LoweredGuard>& guards, const ShapeValues& values) const {
  if (guard_mispredict_ && variants_.size() > 1) return 0;  // as above
  for (size_t i = 0; i < guards.size(); ++i) {
    DISC_ASSIGN_OR_RETURN(bool admitted, guards[i].Evaluate(values));
    if (admitted) return static_cast<int>(i);
  }
  return Status::Internal("no variant admitted (missing generic fallback?)");
}

std::vector<LoweredGuard> FusedKernel::LowerGuards(
    ShapeProgram::Builder* builder) const {
  std::vector<LoweredGuard> guards;
  guards.reserve(variants_.size());
  for (const KernelVariant& variant : variants_) {
    guards.push_back(variant.guard.Lower(builder));
  }
  return guards;
}

Result<KernelStats> FusedKernel::ComputeStats(
    const SymbolBindings& bindings, const KernelVariant& variant) const {
  DISC_ASSIGN_OR_RETURN(KernelStatsInputs inputs,
                        ComputeStatsInputs(bindings));
  return StatsFromInputs(inputs, variant);
}

Result<KernelStatsInputs> FusedKernel::ComputeStatsInputs(
    const SymbolBindings& bindings) const {
  KernelStatsInputs in;
  auto numel_of = [&](const Value* v) -> Result<int64_t> {
    DISC_ASSIGN_OR_RETURN(std::vector<int64_t> dims,
                          analysis_->EvaluateShape(v, bindings));
    return Product(dims);
  };

  for (const Value* input : group_.inputs) {
    DISC_ASSIGN_OR_RETURN(int64_t n, numel_of(input));
    in.bytes_read += n * DTypeSize(input->dtype());
  }
  for (const Value* output : group_.outputs) {
    DISC_ASSIGN_OR_RETURN(int64_t n, numel_of(output));
    in.bytes_written += n * DTypeSize(output->dtype());
  }
  for (const Node* node : group_.nodes) {
    int64_t cost = OpFlopCost(node->kind());
    int64_t domain;
    if (IsReduction(node->kind())) {
      DISC_ASSIGN_OR_RETURN(domain, numel_of(node->operand(0)));
      cost = std::max<int64_t>(cost, 1);
    } else {
      DISC_ASSIGN_OR_RETURN(domain, numel_of(node->output(0)));
    }
    in.flops += domain * cost;
    // Index arithmetic: eliminated by the broadcast-free specialization,
    // otherwise proportional to rank per element.
    in.index_ops += domain * std::max<int64_t>(1, node->output(0)->rank());
    in.broadcast_free_index_ops += domain;
  }

  DISC_ASSIGN_OR_RETURN(in.root_elements, root_elements_.Evaluate(bindings));
  if (row_extent_.valid()) {
    DISC_ASSIGN_OR_RETURN(in.row_extent, row_extent_.Evaluate(bindings));
    // Rows are counted over the reduce input space.
    for (const Node* node : group_.nodes) {
      if (IsReduction(node->kind())) {
        DISC_ASSIGN_OR_RETURN(in.reduce_elements, numel_of(node->operand(0)));
        break;
      }
    }
  }
  return in;
}

KernelStatsTerms<ShapeSlot> FusedKernel::LowerStatsInputs(
    ShapeProgram::Builder* builder) const {
  using Op = ShapeProgram::Op;
  // Sums are left-folded from their first term, so a sum's first error is
  // its first failing term's, as in the loops of ComputeStatsInputs.
  auto add = [&](ShapeSlot* sum, ShapeSlot n, int64_t factor) {
    ShapeSlot term =
        factor == 1 ? n : builder->Emit(Op::kMul, n, builder->Const(factor));
    *sum = *sum < 0 ? term : builder->Emit(Op::kAdd, *sum, term);
  };
  KernelStatsTerms<ShapeSlot> t;
  t.bytes_read = t.bytes_written = t.flops = t.index_ops =
      t.broadcast_free_index_ops = -1;
  for (const Value* input : group_.inputs) {
    add(&t.bytes_read, builder->LowerNumElements(input),
        DTypeSize(input->dtype()));
  }
  for (const Value* output : group_.outputs) {
    add(&t.bytes_written, builder->LowerNumElements(output),
        DTypeSize(output->dtype()));
  }
  // Member ops mostly share a few launch domains: one term per distinct
  // domain, in first-use order, with the members' weights summed. The
  // sums are equal (integer addition is associative and commutative) and
  // so is the first error (a repeated domain fails like its first use).
  struct DomainTerm {
    ShapeSlot domain;
    int64_t flops = 0;
    int64_t index_ops = 0;
    int64_t elements = 0;
  };
  std::vector<DomainTerm> domains;
  const Node* reduction = nullptr;
  for (const Node* node : group_.nodes) {
    int64_t cost = OpFlopCost(node->kind());
    ShapeSlot domain;
    if (IsReduction(node->kind())) {
      if (reduction == nullptr) reduction = node;
      domain = builder->LowerNumElements(node->operand(0));
      cost = std::max<int64_t>(cost, 1);
    } else {
      domain = builder->LowerNumElements(node->output(0));
    }
    auto it = std::find_if(domains.begin(), domains.end(),
                           [&](const DomainTerm& d) {
                             return d.domain == domain;
                           });
    if (it == domains.end()) it = domains.insert(it, {domain});
    it->flops += cost;
    it->index_ops += std::max<int64_t>(1, node->output(0)->rank());
    it->elements += 1;
  }
  // Lower only the index-op counts some variant reads.
  bool generic_indexing = false;
  bool broadcast_free = false;
  for (const KernelVariant& variant : variants_) {
    (variant.broadcast_free ? broadcast_free : generic_indexing) = true;
  }
  for (const DomainTerm& d : domains) {
    add(&t.flops, d.domain, d.flops);
    if (generic_indexing) add(&t.index_ops, d.domain, d.index_ops);
    if (broadcast_free) add(&t.broadcast_free_index_ops, d.domain, d.elements);
  }
  for (ShapeSlot* sum : {&t.bytes_read, &t.bytes_written, &t.flops,
                         &t.index_ops, &t.broadcast_free_index_ops}) {
    if (*sum < 0) *sum = builder->Const(0);
  }
  t.root_elements = builder->Lower(root_elements_);
  t.row_extent = row_extent_.valid() ? builder->Lower(row_extent_)
                                     : builder->Const(0);
  t.reduce_elements = reduction != nullptr
                          ? builder->LowerNumElements(reduction->operand(0))
                          : builder->Const(0);
  return t;
}

KernelStats FusedKernel::StatsFromInputs(const KernelStatsInputs& in,
                                         const KernelVariant& variant) const {
  KernelStats stats;
  stats.bytes_read = in.bytes_read;
  stats.bytes_written = in.bytes_written;
  stats.flops = in.flops;
  stats.index_ops =
      variant.broadcast_free ? in.broadcast_free_index_ops : in.index_ops;
  const int64_t row = in.row_extent;
  const int64_t rows = row > 0 ? in.reduce_elements / row : 0;

  switch (variant.schedule) {
    case ReduceSchedule::kNone: {
      int64_t elems = CeilDiv(in.root_elements, variant.vector_width);
      stats.threads_per_block = 256;
      stats.num_blocks = std::max<int64_t>(1, CeilDiv(elems, 256));
      break;
    }
    case ReduceSchedule::kWarpPerRow: {
      stats.threads_per_block = 256;  // 8 warps per block
      stats.num_blocks = std::max<int64_t>(1, CeilDiv(rows, 8));
      break;
    }
    case ReduceSchedule::kBlockPerRow: {
      stats.threads_per_block =
          std::min<int64_t>(1024, std::max<int64_t>(32, RoundUp(row, 32)));
      stats.num_blocks = std::max<int64_t>(1, rows);
      break;
    }
  }
  if (kind() == FusionKind::kStitch) {
    // Each stitched stage stages one f32 row in shared memory; charge two
    // staging buffers (ping-pong).
    stats.shared_mem_bytes = row * 4 * 2;
  }
  return stats;
}

std::string FusedKernel::ToString() const {
  std::ostringstream out;
  out << name_ << " (" << FusionKindName(kind()) << ", " << group_.size()
      << " ops, domain=" << root_elements_.ToString();
  if (row_extent_.valid()) out << ", row=" << row_extent_.ToString();
  out << ")\n";
  for (const KernelVariant& variant : variants_) {
    out << "  variant " << variant.ToString() << "\n";
  }
  return out.str();
}

}  // namespace disc
