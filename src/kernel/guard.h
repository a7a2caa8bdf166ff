// Runtime guard predicates for specialized kernel variants.
//
// This is the "compile-time and runtime combined" half of the paper's code
// generation: at compile time the specializer emits several variants of a
// kernel, each protected by a guard over *symbolic* dim expressions; at
// runtime the dispatcher evaluates the guards against the solved symbol
// bindings (cheap host-side integer math) and launches the first variant
// whose guard holds.
#ifndef DISC_KERNEL_GUARD_H_
#define DISC_KERNEL_GUARD_H_

#include <string>
#include <vector>

#include "shape/dim_expr.h"
#include "shape/shape_analysis.h"
#include "shape/shape_program.h"

namespace disc {

/// One atomic condition over a dim expression.
struct DimPredicate {
  enum class Kind {
    kDivisibleBy,   // expr % operand == 0
    kLessEqual,     // expr <= operand
    kGreaterEqual,  // expr >= operand
    kEqual,         // expr == operand
  };
  Kind kind;
  DimExpr expr;
  int64_t operand;

  Result<bool> Evaluate(const SymbolBindings& bindings) const;
  std::string ToString() const;
};

/// \brief A Guard lowered into a ShapeProgram: each predicate's 0/1 result
/// slot, in order.
struct LoweredGuard {
  std::vector<ShapeSlot> predicates;

  /// \brief Guard::Evaluate over one program evaluation: the same
  /// `kernel.guard` failpoint hit, then the predicates in order, stopping at
  /// the first false one or the first error.
  Result<bool> Evaluate(const ShapeValues& values) const;
};

/// Conjunction of predicates; empty == always true.
struct Guard {
  std::vector<DimPredicate> predicates;

  bool always_true() const { return predicates.empty(); }
  /// \brief True iff every predicate holds under the bindings.
  Result<bool> Evaluate(const SymbolBindings& bindings) const;
  LoweredGuard Lower(ShapeProgram::Builder* builder) const;
  std::string ToString() const;
};

}  // namespace disc

#endif  // DISC_KERNEL_GUARD_H_
