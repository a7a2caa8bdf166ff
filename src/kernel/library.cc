#include "kernel/library.h"

#include "support/math_util.h"

namespace disc {

Result<LibraryCallStats> ComputeLibraryStats(const Node& node,
                                             const ShapeAnalysis& analysis,
                                             const SymbolBindings& bindings) {
  LibraryCallStats stats;
  auto dims_of = [&](const Value* v) {
    return analysis.EvaluateShape(v, bindings);
  };
  for (const Value* operand : node.operands()) {
    DISC_ASSIGN_OR_RETURN(std::vector<int64_t> dims, dims_of(operand));
    stats.bytes_read += Product(dims) * DTypeSize(operand->dtype());
  }
  for (const Value* out : node.outputs()) {
    DISC_ASSIGN_OR_RETURN(std::vector<int64_t> dims, dims_of(out));
    stats.bytes_written += Product(dims) * DTypeSize(out->dtype());
  }

  switch (node.kind()) {
    case OpKind::kMatMul: {
      DISC_ASSIGN_OR_RETURN(std::vector<int64_t> a, dims_of(node.operand(0)));
      DISC_ASSIGN_OR_RETURN(std::vector<int64_t> out,
                            dims_of(node.output(0)));
      bool ta = node.GetIntAttr("transpose_a", 0) != 0;
      int64_t k = a[a.size() - (ta ? 2 : 1)];
      // out = [batch..., m, n]; flops = 2 * batch * m * n * k.
      stats.flops = 2 * Product(out) * k;
      return stats;
    }
    case OpKind::kConv2D: {
      DISC_ASSIGN_OR_RETURN(std::vector<int64_t> filter,
                            dims_of(node.operand(1)));
      DISC_ASSIGN_OR_RETURN(std::vector<int64_t> out,
                            dims_of(node.output(0)));
      // flops = 2 * (N*OH*OW*OC) * (KH*KW*C).
      stats.flops = 2 * Product(out) * filter[0] * filter[1] * filter[2];
      return stats;
    }
    default:
      return Status::InvalidArgument(std::string(OpName(node.kind())) +
                                     " is not a library op");
  }
}

Result<LoweredLibraryStats> LowerLibraryStats(const Node& node,
                                              const ShapeAnalysis& analysis,
                                              ShapeProgram::Builder* builder) {
  using Op = ShapeProgram::Op;
  // Left-folded sums from the first term, like the accumulating loops above.
  auto bytes_of = [&](const std::vector<Value*>& values) {
    ShapeSlot sum = -1;
    for (const Value* v : values) {
      ShapeSlot term =
          builder->Emit(Op::kMul, builder->LowerNumElements(v),
                        builder->Const(DTypeSize(v->dtype())));
      sum = sum < 0 ? term : builder->Emit(Op::kAdd, sum, term);
    }
    return sum < 0 ? builder->Const(0) : sum;
  };
  LoweredLibraryStats stats;
  stats.bytes_read = bytes_of(node.operands());
  stats.bytes_written = bytes_of(node.outputs());
  // flops = 2 * Product(out) * <contraction factors>, multiplied in that
  // order.
  ShapeSlot flops = builder->Emit(Op::kMul, builder->Const(2),
                                  builder->LowerNumElements(node.output(0)));
  switch (node.kind()) {
    case OpKind::kMatMul: {
      const SymShape& a = analysis.GetShape(node.operand(0));
      bool ta = node.GetIntAttr("transpose_a", 0) != 0;
      stats.flops = builder->Emit(
          Op::kMul, flops,
          builder->LowerCanonical(a[a.size() - (ta ? 2 : 1)]));
      return stats;
    }
    case OpKind::kConv2D: {
      const SymShape& filter = analysis.GetShape(node.operand(1));
      for (int d = 0; d < 3; ++d) {
        flops = builder->Emit(Op::kMul, flops,
                              builder->LowerCanonical(filter[d]));
      }
      stats.flops = flops;
      return stats;
    }
    default:
      return Status::InvalidArgument(std::string(OpName(node.kind())) +
                                     " is not a library op");
  }
}

}  // namespace disc
