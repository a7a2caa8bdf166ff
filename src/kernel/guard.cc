#include "kernel/guard.h"

#include "support/failpoint.h"
#include "support/string_util.h"

namespace disc {

Result<bool> DimPredicate::Evaluate(const SymbolBindings& bindings) const {
  DISC_ASSIGN_OR_RETURN(int64_t v, expr.Evaluate(bindings));
  switch (kind) {
    case Kind::kDivisibleBy:
      return operand != 0 && v % operand == 0;
    case Kind::kLessEqual:
      return v <= operand;
    case Kind::kGreaterEqual:
      return v >= operand;
    case Kind::kEqual:
      return v == operand;
  }
  return Status::Internal("bad predicate kind");
}

std::string DimPredicate::ToString() const {
  switch (kind) {
    case Kind::kDivisibleBy:
      return StrFormat("%s %% %lld == 0", expr.ToString().c_str(),
                       static_cast<long long>(operand));
    case Kind::kLessEqual:
      return StrFormat("%s <= %lld", expr.ToString().c_str(),
                       static_cast<long long>(operand));
    case Kind::kGreaterEqual:
      return StrFormat("%s >= %lld", expr.ToString().c_str(),
                       static_cast<long long>(operand));
    case Kind::kEqual:
      return StrFormat("%s == %lld", expr.ToString().c_str(),
                       static_cast<long long>(operand));
  }
  return "?";
}

Result<bool> Guard::Evaluate(const SymbolBindings& bindings) const {
  // Fault seam: guard evaluation is the runtime's admission check for
  // specialized variants; an injected failure here models a corrupted
  // binding table and must surface as a failed Run, not a wrong variant.
  DISC_INJECT_FAILPOINT("kernel.guard");
  for (const DimPredicate& p : predicates) {
    DISC_ASSIGN_OR_RETURN(bool ok, p.Evaluate(bindings));
    if (!ok) return false;
  }
  return true;
}

LoweredGuard Guard::Lower(ShapeProgram::Builder* builder) const {
  LoweredGuard lowered;
  for (const DimPredicate& p : predicates) {
    ShapeProgram::Op op = ShapeProgram::Op::kEqual;
    switch (p.kind) {
      case DimPredicate::Kind::kDivisibleBy:
        op = ShapeProgram::Op::kDivisibleBy;
        break;
      case DimPredicate::Kind::kLessEqual:
        op = ShapeProgram::Op::kLessEqual;
        break;
      case DimPredicate::Kind::kGreaterEqual:
        op = ShapeProgram::Op::kGreaterEqual;
        break;
      case DimPredicate::Kind::kEqual:
        break;
    }
    lowered.predicates.push_back(builder->Emit(op, builder->Lower(p.expr),
                                               builder->Const(p.operand)));
  }
  return lowered;
}

Result<bool> LoweredGuard::Evaluate(const ShapeValues& values) const {
  DISC_INJECT_FAILPOINT("kernel.guard");
  for (ShapeSlot p : predicates) {
    DISC_RETURN_IF_ERROR(values.Check(p));
    if (values[p] == 0) return false;
  }
  return true;
}

std::string Guard::ToString() const {
  if (predicates.empty()) return "true";
  return JoinMapped(predicates, " && ",
                    [](const DimPredicate& p) { return p.ToString(); });
}

}  // namespace disc
