// Reference evaluator: executes single ops / whole graphs on concrete
// tensors, one op at a time.
//
// This is the semantic ground truth of the repo. It is used by
//   * constant folding (disc::opt),
//   * the eager-interpreter baselines (PyTorch-style engines), and
//   * every correctness test that compares compiled kernels against a
//     reference.
// It favours clarity over speed.
#ifndef DISC_IR_EVAL_H_
#define DISC_IR_EVAL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ir/graph.h"
#include "ir/tensor.h"
#include "support/status.h"

namespace disc {

/// \brief Evaluates one node given concrete operand tensors.
Result<std::vector<Tensor>> EvaluateNode(const Node& node,
                                         const std::vector<Tensor>& inputs);

/// \brief Evaluates the whole graph; `inputs` parallel to graph.inputs().
/// Input dims must be consistent with the declared (possibly dynamic)
/// types. Returns tensors parallel to graph.outputs().
Result<std::vector<Tensor>> EvaluateGraph(const Graph& graph,
                                          const std::vector<Tensor>& inputs);

// The elementwise ops with a scalar function, listed once for every
// switch that dispatches to the templates below.
#define DISC_UNARY_SCALAR_OPS(X)                                            \
  X(kAbs) X(kNeg) X(kExp) X(kLog) X(kSqrt) X(kRsqrt) X(kTanh) X(kErf)       \
  X(kSigmoid) X(kRelu) X(kFloor) X(kCeil) X(kSign) X(kReciprocal)           \
  X(kLogicalNot) X(kCast)
#define DISC_BINARY_SCALAR_OPS(X)                                           \
  X(kAdd) X(kSub) X(kMul) X(kDiv) X(kPow) X(kMaximum) X(kMinimum) X(kMod)   \
  X(kLess) X(kLessEqual) X(kGreater) X(kGreaterEqual) X(kEqual)             \
  X(kNotEqual) X(kAnd) X(kOr)

/// \brief Scalar semantics of unary op `K` on the double carrier. kCast is
/// the identity: the dtype conversion happens when a value is stored.
template <OpKind K>
inline double UnaryScalar(double x) {
  if constexpr (K == OpKind::kAbs) return std::abs(x);
  if constexpr (K == OpKind::kNeg) return -x;
  if constexpr (K == OpKind::kExp) return std::exp(x);
  if constexpr (K == OpKind::kLog) return std::log(x);
  if constexpr (K == OpKind::kSqrt) return std::sqrt(x);
  if constexpr (K == OpKind::kRsqrt) return 1.0 / std::sqrt(x);
  if constexpr (K == OpKind::kTanh) return std::tanh(x);
  if constexpr (K == OpKind::kErf) return std::erf(x);
  if constexpr (K == OpKind::kSigmoid) return 1.0 / (1.0 + std::exp(-x));
  if constexpr (K == OpKind::kRelu) return x > 0.0 ? x : 0.0;
  if constexpr (K == OpKind::kFloor) return std::floor(x);
  if constexpr (K == OpKind::kCeil) return std::ceil(x);
  if constexpr (K == OpKind::kSign) {
    return x > 0.0 ? 1.0 : (x < 0.0 ? -1.0 : 0.0);
  }
  if constexpr (K == OpKind::kReciprocal) return 1.0 / x;
  if constexpr (K == OpKind::kLogicalNot) return x == 0.0 ? 1.0 : 0.0;
  if constexpr (K == OpKind::kCast) return x;
}

/// \brief Scalar semantics of binary op `K`. With `integral` (operand 0 has
/// an integral dtype) div/mod truncate like C++ int64 arithmetic, which
/// traps on a zero divisor and on INT64_MIN / -1: callers rule both out
/// (EvalElementwise returns InvalidArgument for them).
template <OpKind K>
inline double BinaryScalar(double a, double b, bool integral) {
  if constexpr (K == OpKind::kAdd) return a + b;
  if constexpr (K == OpKind::kSub) return a - b;
  if constexpr (K == OpKind::kMul) return a * b;
  if constexpr (K == OpKind::kDiv) {
    if (integral) {
      return static_cast<double>(static_cast<int64_t>(a) /
                                 static_cast<int64_t>(b));
    }
    return a / b;
  }
  if constexpr (K == OpKind::kPow) return std::pow(a, b);
  if constexpr (K == OpKind::kMaximum) return std::max(a, b);
  if constexpr (K == OpKind::kMinimum) return std::min(a, b);
  if constexpr (K == OpKind::kMod) {
    if (integral) {
      return static_cast<double>(static_cast<int64_t>(a) %
                                 static_cast<int64_t>(b));
    }
    return std::fmod(a, b);
  }
  if constexpr (K == OpKind::kLess) return a < b ? 1.0 : 0.0;
  if constexpr (K == OpKind::kLessEqual) return a <= b ? 1.0 : 0.0;
  if constexpr (K == OpKind::kGreater) return a > b ? 1.0 : 0.0;
  if constexpr (K == OpKind::kGreaterEqual) return a >= b ? 1.0 : 0.0;
  if constexpr (K == OpKind::kEqual) return a == b ? 1.0 : 0.0;
  if constexpr (K == OpKind::kNotEqual) return a != b ? 1.0 : 0.0;
  if constexpr (K == OpKind::kAnd) return (a != 0.0 && b != 0.0) ? 1.0 : 0.0;
  if constexpr (K == OpKind::kOr) return (a != 0.0 || b != 0.0) ? 1.0 : 0.0;
}

/// \brief Scalar semantics of a unary elementwise op (dtype-aware via
/// double carrier; exact for the integral range used in shapes).
double ApplyUnaryScalar(OpKind kind, double x);

/// \brief Scalar semantics of a binary elementwise op. Integral ops
/// (div/mod on i64) truncate like C++.
double ApplyBinaryScalar(OpKind kind, double a, double b, DType dtype);

}  // namespace disc

#endif  // DISC_IR_EVAL_H_
