// ShapeProgram: the host-side shape computation of one executable, lowered
// once at compile time into a flat instruction tape over an int64 slot
// array (Nimble's compiled shape functions; Relax's bind-once symbolic
// vars).
//
// Without it, every new input signature walks DimExpr trees: each
// evaluation re-canonicalizes its expression against the SymbolicDimManager
// and looks symbols up in a hash map. The manager is frozen once compilation
// ends, so all of that is a pure function of the compiled artifact. The
// program does it once:
//
//   slots  [ bound symbols | constants | temporaries ]
//   tape   dst = a <op> b, ops: add mul floordiv ceildiv mod, the four
//          guard predicates (divisible-by, <=, >=, ==) producing 0/1, and
//          "unbound symbol" (an expression naming a symbol no input binds)
//
// Common subexpressions are shared at build time, by canonical DimExpr key
// and by (op, a, b), so a dim appearing in fifty value shapes is computed
// once per call; operations on two constants fold at build time.
//
// Errors keep the tree walker's semantics. Input binding fails eagerly with
// ShapeAnalysis::BindInputs' statuses. Arithmetic errors (division by zero,
// unbound symbols) are deferred: the tape runs to the end, and Check(slot)
// reports the first error the tree walker would have hit evaluating the
// expression lowered to `slot` (operands in order, left to right). Callers
// check slots in the order the tree walker evaluates them, so a failing
// plan build returns the same Status either way.
//
// A ShapeProgram is immutable after building; Run writes only its output
// argument, so concurrent calls on one program are safe.
#ifndef DISC_SHAPE_SHAPE_PROGRAM_H_
#define DISC_SHAPE_SHAPE_PROGRAM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "shape/shape_analysis.h"

namespace disc {

/// Index of one int64 value in a ShapeProgram's slot array.
using ShapeSlot = int32_t;

/// \brief One evaluation of a ShapeProgram: a value per slot, plus the
/// deferred arithmetic errors.
class ShapeValues {
 public:
  int64_t operator[](ShapeSlot slot) const { return values_[slot]; }

  /// \brief OK, or the error the tree walker reports when it evaluates the
  /// expression lowered to `slot`.
  Status Check(ShapeSlot slot) const {
    return errors_.empty() || errors_[slot] == 0 ? Status::OK()
                                                 : ErrorStatus(errors_[slot]);
  }

 private:
  friend class ShapeProgram;
  static Status ErrorStatus(int32_t error);

  std::vector<int64_t> values_;
  /// Empty unless some instruction failed; then per slot 0 (ok), -1
  /// (division by zero) or 1 + the id of an unbound symbol.
  std::vector<int32_t> errors_;
};

/// \brief A flat, slot-indexed shape program. Built by the compiler after
/// the memory plan is final; evaluated on every launch-plan miss.
class ShapeProgram {
 public:
  class Builder;

  enum class Op : uint8_t {
    kAdd,
    kMul,
    kFloorDiv,
    kCeilDiv,
    kMod,
    kUnbound,  // a = the symbol id; always an error
    kDivisibleBy,
    kLessEqual,
    kGreaterEqual,
    kEqual,
  };
  struct Instr {
    Op op;
    ShapeSlot dst;
    ShapeSlot a;
    ShapeSlot b;
  };

  ShapeProgram() = default;

  /// \brief Binds `input_dims` and evaluates the first `end` instructions
  /// into `out`. Fails with BindInputs' exact Status on a count, rank,
  /// static-dim or repeated-symbol mismatch; arithmetic errors are left in
  /// `out` for Check.
  Status Run(const std::vector<std::vector<int64_t>>& input_dims,
             ShapeValues* out, size_t end) const;
  Status Run(const std::vector<std::vector<int64_t>>& input_dims,
             ShapeValues* out) const {
    return Run(input_dims, out, tape_.size());
  }

  /// \brief The solved bindings, inserted in BindInputs' order.
  SymbolBindings Bindings(const ShapeValues& values) const;

  size_t size() const { return tape_.size(); }
  size_t num_slots() const { return initial_.size(); }

 private:
  // One input dim: a static dim to check, or a symbol to bind (its first
  // occurrence) or to check against the earlier binding.
  struct BindOp {
    enum class Kind : uint8_t { kStatic, kBind, kCheck };
    Kind kind;
    SymbolId symbol = -1;  // kBind/kCheck
    ShapeSlot slot = -1;   // kBind/kCheck
    int64_t value = 0;     // kStatic
  };

  // r = a op b; false (and r = 0) when the op fails: a zero divisor, or
  // kUnbound.
  static bool Apply(Op op, int64_t a, int64_t b, int64_t* r);
  void ComputeErrors(ShapeValues* out, size_t end) const;

  std::vector<size_t> input_ranks_;
  std::vector<BindOp> binds_;  // input-major, dim-minor
  std::vector<Instr> tape_;
  std::vector<int64_t> initial_;  // constants filled in, the rest 0
};

/// \brief Lowers DimExprs into a ShapeProgram, sharing common
/// subexpressions. The sharing tables die with the builder.
class ShapeProgram::Builder {
  // Open-addressing map from a 64-bit key to a slot. The builder probes
  // its tables about a thousand times per compile, and every compile pays
  // for them, so they avoid a node allocation per entry.
  class SlotTable {
   public:
    ShapeSlot Find(uint64_t key) const;  // -1 when absent
    void Insert(uint64_t key, ShapeSlot slot);

   private:
    struct Entry {
      uint64_t key = 0;
      ShapeSlot slot = -1;  // -1 = empty
    };
    std::vector<Entry> entries_;
    size_t size_ = 0;
  };

 public:
  /// Lowers input binding: the static-dim checks and one slot per symbol
  /// the input shapes bind. `analysis` must outlive the builder.
  explicit Builder(const ShapeAnalysis& analysis);

  /// \brief Slot of `expr` with DimExpr::Evaluate semantics (symbols as
  /// written; a non-root symbol is unbound).
  ShapeSlot Lower(const DimExpr& expr);
  /// \brief Slot of `expr` with ShapeAnalysis::EvaluateDim semantics
  /// (canonicalized once, here).
  ShapeSlot LowerCanonical(const DimExpr& expr);
  /// \brief Product(EvaluateShape(v)): the element count of `v`.
  ShapeSlot LowerNumElements(const Value* v);
  ShapeSlot Const(int64_t value);
  /// \brief `a op b`, shared with an identical earlier instruction.
  ShapeSlot Emit(Op op, ShapeSlot a, ShapeSlot b);

  /// \brief Tape length so far: a prefix end for ShapeProgram::Run.
  size_t size() const { return program_.tape_.size(); }

  ShapeProgram Finish() && { return std::move(program_); }

 private:
  ShapeSlot NewSlot(int64_t initial, bool constant);
  // Memoizes `expr` by identity, keeping it alive (see pinned_).
  void Pin(SlotTable* by_identity, const DimExpr& expr, ShapeSlot slot);

  const ShapeAnalysis* analysis_;
  ShapeProgram program_;
  std::vector<bool> constant_;  // per slot: holds a build-time constant
  SlotTable symbol_slot_;  // bound symbol id
  SlotTable const_slot_;   // value, outside [0, kSmallConsts)
  static constexpr int64_t kSmallConsts = 64;
  ShapeSlot small_const_slot_[kSmallConsts];  // -1 until first use
  SlotTable instr_slot_;   // (op, a, b)
  SlotTable numel_slot_;   // Value*
  SlotTable raw_by_identity_;
  SlotTable canonical_by_identity_;
  // Views the key of an expression in pinned_.
  std::unordered_map<std::string_view, ShapeSlot> canonical_by_key_;
  // Keeps every memoized expression alive, so no later expression can
  // reuse its address and every key view stays valid.
  std::vector<DimExpr> pinned_;
};

}  // namespace disc

#endif  // DISC_SHAPE_SHAPE_PROGRAM_H_
