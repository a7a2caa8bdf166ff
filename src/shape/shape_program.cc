#include "shape/shape_program.h"

#include <algorithm>
#include <iterator>

#include "support/logging.h"
#include "support/math_util.h"
#include "support/string_util.h"

namespace disc {

namespace {

bool IsDivision(ShapeProgram::Op op) {
  return op == ShapeProgram::Op::kFloorDiv ||
         op == ShapeProgram::Op::kCeilDiv || op == ShapeProgram::Op::kMod;
}

}  // namespace

Status ShapeValues::ErrorStatus(int32_t error) {
  if (error < 0) return Status::InvalidArgument("division by zero");
  return Status::NotFound("unbound symbol s" + std::to_string(error - 1));
}

bool ShapeProgram::Apply(Op op, int64_t a, int64_t b, int64_t* result) {
  int64_t r = 0;
  switch (op) {
    case Op::kAdd:
      r = a + b;
      break;
    case Op::kMul:
      r = a * b;
      break;
    case Op::kFloorDiv:
    case Op::kCeilDiv:
    case Op::kMod:
      if (b == 0) {
        *result = 0;
        return false;
      }
      r = op == Op::kFloorDiv ? a / b : op == Op::kCeilDiv ? CeilDiv(a, b)
                                                           : a % b;
      break;
    case Op::kDivisibleBy:
      r = b != 0 && a % b == 0;
      break;
    case Op::kLessEqual:
      r = a <= b;
      break;
    case Op::kGreaterEqual:
      r = a >= b;
      break;
    case Op::kEqual:
      r = a == b;
      break;
    case Op::kUnbound:
      *result = 0;
      return false;
  }
  *result = r;
  return true;
}

Status ShapeProgram::Run(const std::vector<std::vector<int64_t>>& input_dims,
                         ShapeValues* out, size_t end) const {
  if (input_dims.size() != input_ranks_.size()) {
    return Status::InvalidArgument(
        StrFormat("expected %zu input shapes, got %zu", input_ranks_.size(),
                  input_dims.size()));
  }
  out->values_ = initial_;
  out->errors_.clear();
  int64_t* v = out->values_.data();

  const BindOp* bind = binds_.data();
  for (size_t i = 0; i < input_ranks_.size(); ++i) {
    const std::vector<int64_t>& dims = input_dims[i];
    if (dims.size() != input_ranks_[i]) {
      return Status::InvalidArgument(
          StrFormat("input %zu: rank mismatch (%zu vs %zu)", i,
                    input_ranks_[i], dims.size()));
    }
    for (size_t d = 0; d < dims.size(); ++d, ++bind) {
      const int64_t actual = dims[d];
      switch (bind->kind) {
        case BindOp::Kind::kStatic:
          if (bind->value != actual) {
            return Status::InvalidArgument(StrFormat(
                "input %zu dim %zu: expected %lld, got %lld", i, d,
                static_cast<long long>(bind->value),
                static_cast<long long>(actual)));
          }
          break;
        case BindOp::Kind::kBind:
          v[bind->slot] = actual;
          break;
        case BindOp::Kind::kCheck:
          if (v[bind->slot] != actual) {
            return Status::InvalidArgument(StrFormat(
                "input %zu dim %zu: symbol s%d bound to %lld but got %lld", i,
                d, bind->symbol, static_cast<long long>(v[bind->slot]),
                static_cast<long long>(actual)));
          }
          break;
      }
    }
  }

  // The tape. A failing instruction writes 0 and sets `failed`; which
  // error each slot carries is only worked out (ComputeErrors) when some
  // instruction failed, which keeps this loop free of error bookkeeping.
  bool failed = false;
  for (size_t pc = 0; pc < end; ++pc) {
    const Instr& in = tape_[pc];
    if (in.op == Op::kUnbound) {
      v[in.dst] = 0;
      failed = true;
    } else if (!Apply(in.op, v[in.a], v[in.b], &v[in.dst])) {
      failed = true;
    }
  }
  if (failed) ComputeErrors(out, end);
  return Status::OK();
}

void ShapeProgram::ComputeErrors(ShapeValues* out, size_t end) const {
  // A slot's error is its first failing operand's (operands are evaluated
  // left to right, and n-ary sums/products are left-folded chains), else
  // its own: exactly the first error DimExpr::Evaluate would return.
  std::vector<int32_t>& err = out->errors_;
  err.assign(initial_.size(), 0);
  for (size_t pc = 0; pc < end; ++pc) {
    const Instr& in = tape_[pc];
    if (in.op == Op::kUnbound) {
      err[in.dst] = 1 + in.a;
      continue;
    }
    int32_t e = err[in.a] != 0 ? err[in.a] : err[in.b];
    if (e == 0 && IsDivision(in.op) && out->values_[in.b] == 0) e = -1;
    err[in.dst] = e;
  }
}

SymbolBindings ShapeProgram::Bindings(const ShapeValues& values) const {
  SymbolBindings bindings;
  for (const BindOp& bind : binds_) {
    if (bind.kind == BindOp::Kind::kBind) {
      bindings.emplace(bind.symbol, values[bind.slot]);
    }
  }
  return bindings;
}

ShapeSlot ShapeProgram::Builder::SlotTable::Find(uint64_t key) const {
  if (entries_.empty()) return -1;
  const size_t mask = entries_.size() - 1;
  for (size_t i = (key * 0x9E3779B97F4A7C15ull) >> 40 & mask;;
       i = (i + 1) & mask) {
    const Entry& e = entries_[i];
    if (e.slot < 0 || e.key == key) return e.slot;
  }
}

void ShapeProgram::Builder::SlotTable::Insert(uint64_t key, ShapeSlot slot) {
  if (2 * (size_ + 1) > entries_.size()) {
    // Grow to keep the load factor at most one half, and rehash.
    std::vector<Entry> old = std::move(entries_);
    entries_.assign(std::max<size_t>(256, 2 * old.size()), Entry{});
    size_ = 0;
    for (const Entry& e : old) {
      if (e.slot >= 0) Insert(e.key, e.slot);
    }
  }
  const size_t mask = entries_.size() - 1;
  size_t i = (key * 0x9E3779B97F4A7C15ull) >> 40 & mask;
  while (entries_[i].slot >= 0 && entries_[i].key != key) i = (i + 1) & mask;
  if (entries_[i].slot < 0) ++size_;
  entries_[i] = {key, slot};
}

ShapeProgram::Builder::Builder(const ShapeAnalysis& analysis)
    : analysis_(&analysis) {
  std::fill(std::begin(small_const_slot_), std::end(small_const_slot_), -1);
  // Programs come out at about one slot per graph node; reserving that
  // much spares most of the regrowth.
  const size_t expected = static_cast<size_t>(analysis.graph()->num_nodes());
  program_.initial_.reserve(expected);
  program_.tape_.reserve(expected);
  constant_.reserve(expected);
  pinned_.reserve(expected);
  const SymbolicDimManager& manager = analysis.manager();
  for (const Value* input : analysis.graph()->inputs()) {
    const SymShape& shape = analysis.GetShape(input);
    program_.input_ranks_.push_back(shape.size());
    for (const DimExpr& dim : shape) {
      DimExpr expr = manager.Canonicalize(dim);
      BindOp op;
      if (expr.IsConst()) {
        op.kind = BindOp::Kind::kStatic;
        op.value = expr.const_value();
      } else {
        // Seeding gives every input dim a symbol or a constant, and
        // canonicalization maps a symbol to a symbol or a constant.
        DISC_CHECK(expr.IsSymbol())
            << "unexpected compound input dim " << expr.ToString();
        op.symbol = expr.symbol();
        op.slot = symbol_slot_.Find(static_cast<uint64_t>(op.symbol));
        op.kind = op.slot < 0 ? BindOp::Kind::kBind : BindOp::Kind::kCheck;
        if (op.slot < 0) {
          op.slot = NewSlot(0, /*constant=*/false);
          symbol_slot_.Insert(static_cast<uint64_t>(op.symbol), op.slot);
        }
      }
      program_.binds_.push_back(op);
    }
  }
}

ShapeSlot ShapeProgram::Builder::NewSlot(int64_t initial, bool constant) {
  program_.initial_.push_back(initial);
  constant_.push_back(constant);
  return static_cast<ShapeSlot>(program_.initial_.size() - 1);
}

ShapeSlot ShapeProgram::Builder::Const(int64_t value) {
  if (value >= 0 && value < kSmallConsts) {
    ShapeSlot& slot = small_const_slot_[value];
    if (slot < 0) slot = NewSlot(value, /*constant=*/true);
    return slot;
  }
  const uint64_t key = static_cast<uint64_t>(value);
  ShapeSlot slot = const_slot_.Find(key);
  if (slot < 0) {
    slot = NewSlot(value, /*constant=*/true);
    const_slot_.Insert(key, slot);
  }
  return slot;
}

ShapeSlot ShapeProgram::Builder::Emit(Op op, ShapeSlot a, ShapeSlot b) {
  const uint64_t key = (static_cast<uint64_t>(op) << 56) |
                       (static_cast<uint64_t>(static_cast<uint32_t>(a)) << 28) |
                       static_cast<uint32_t>(b);
  ShapeSlot slot = instr_slot_.Find(key);
  if (slot < 0) {
    // Fold constant operands (static dims, weight sizes) here, except a
    // failing op, which must stay on the tape to report its error.
    int64_t folded;
    if (op != Op::kUnbound && constant_[a] && constant_[b] &&
        Apply(op, program_.initial_[a], program_.initial_[b], &folded)) {
      return Const(folded);
    }
    slot = NewSlot(0, /*constant=*/false);
    program_.tape_.push_back({op, slot, a, b});
    instr_slot_.Insert(key, slot);
  }
  return slot;
}

void ShapeProgram::Builder::Pin(SlotTable* by_identity, const DimExpr& expr,
                                ShapeSlot slot) {
  by_identity->Insert(reinterpret_cast<uintptr_t>(expr.identity()), slot);
  pinned_.push_back(expr);
}

ShapeSlot ShapeProgram::Builder::Lower(const DimExpr& expr) {
  DISC_CHECK(expr.valid());
  switch (expr.kind()) {
    case DimExprKind::kConst:
      return Const(expr.const_value());
    case DimExprKind::kSymbol: {
      // Bindings hold exactly the symbols input binding solves; any other
      // symbol is "unbound" whenever it is evaluated.
      ShapeSlot bound = symbol_slot_.Find(static_cast<uint64_t>(expr.symbol()));
      return bound >= 0 ? bound : Emit(Op::kUnbound, expr.symbol(), 0);
    }
    default:
      break;
  }
  // Re-walking an equal expression built elsewhere is cheap: its
  // instructions are found again by (op, a, b).
  ShapeSlot slot =
      raw_by_identity_.Find(reinterpret_cast<uintptr_t>(expr.identity()));
  if (slot >= 0) return slot;
  const std::vector<DimExpr>& operands = expr.operands();
  switch (expr.kind()) {
    case DimExprKind::kAdd:
    case DimExprKind::kMul: {
      const Op op = expr.kind() == DimExprKind::kAdd ? Op::kAdd : Op::kMul;
      slot = Lower(operands[0]);
      for (size_t i = 1; i < operands.size(); ++i) {
        slot = Emit(op, slot, Lower(operands[i]));
      }
      break;
    }
    case DimExprKind::kFloorDiv:
      slot = Emit(Op::kFloorDiv, Lower(operands[0]), Lower(operands[1]));
      break;
    case DimExprKind::kCeilDiv:
      slot = Emit(Op::kCeilDiv, Lower(operands[0]), Lower(operands[1]));
      break;
    default:
      slot = Emit(Op::kMod, Lower(operands[0]), Lower(operands[1]));
      break;
  }
  Pin(&raw_by_identity_, expr, slot);
  return slot;
}

ShapeSlot ShapeProgram::Builder::LowerCanonical(const DimExpr& expr) {
  if (expr.IsConst()) return Const(expr.const_value());
  ShapeSlot slot = canonical_by_identity_.Find(
      reinterpret_cast<uintptr_t>(expr.identity()));
  if (slot >= 0) return slot;
  // Canonicalization is the expensive part: once per canonical key.
  auto [it, inserted] = canonical_by_key_.try_emplace(expr.ToString(), 0);
  if (inserted) it->second = Lower(analysis_->manager().Canonicalize(expr));
  Pin(&canonical_by_identity_, expr, it->second);
  return it->second;
}

ShapeSlot ShapeProgram::Builder::LowerNumElements(const Value* v) {
  const uint64_t key = reinterpret_cast<uintptr_t>(v);
  ShapeSlot slot = numel_slot_.Find(key);
  if (slot >= 0) return slot;
  const SymShape& shape = analysis_->GetShape(v);
  slot = shape.empty() ? Const(1) : LowerCanonical(shape[0]);
  for (size_t i = 1; i < shape.size(); ++i) {
    slot = Emit(Op::kMul, slot, LowerCanonical(shape[i]));
  }
  numel_slot_.Insert(key, slot);
  return slot;
}

}  // namespace disc
