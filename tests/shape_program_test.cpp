// ShapeProgram: the compiled tape must compute exactly what the DimExpr
// tree walker computes — the same value, or the same first error (unbound
// symbol vs division by zero, operands left to right) — for raw
// (DimExpr::Evaluate) and canonical (ShapeAnalysis::EvaluateDim) lowering,
// and input binding must fail with BindInputs' statuses.
#include "shape/shape_program.h"

#include <gtest/gtest.h>

#include <map>

#include "ir/builder.h"
#include "support/rng.h"

namespace disc {
namespace {

// Random expressions over `symbols` and small constants (0 included, so
// divisors can be zero). Everything stays non-negative: a negative divisor
// is outside what dims produce.
DimExpr RandomExpr(Rng* rng, const std::vector<SymbolId>& symbols,
                   int depth) {
  if (depth == 0 || rng->UniformInt(0, 3) == 0) {
    if (rng->UniformInt(0, 2) == 0) return DimExpr::Const(rng->UniformInt(0, 5));
    return DimExpr::Symbol(
        symbols[rng->UniformInt(0, static_cast<int64_t>(symbols.size()) - 1)]);
  }
  DimExpr a = RandomExpr(rng, symbols, depth - 1);
  DimExpr b = RandomExpr(rng, symbols, depth - 1);
  switch (rng->UniformInt(0, 4)) {
    case 0:
      return DimExpr::Add(a, b);
    case 1:
      return DimExpr::Mul(a, b);
    case 2:
      return DimExpr::FloorDiv(a, b);
    case 3:
      return DimExpr::CeilDiv(a, b);
    default:
      return DimExpr::Mod(a, b);
  }
}

class ShapeProgramTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GraphBuilder b(&graph_);
    x_ = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
    Value* y = b.Input("y", DType::kF32, {kDynamicDim, 4});
    b.Output({b.Relu(x_), b.Relu(y)});
    analysis_ = std::make_unique<ShapeAnalysis>(
        &graph_, std::vector<std::vector<std::string>>{{"B", "S"},
                                                       {"B", ""}});
    ASSERT_TRUE(analysis_->Run().ok());
  }

  Graph graph_;
  Value* x_ = nullptr;
  std::unique_ptr<ShapeAnalysis> analysis_;
};

void ExpectSame(const ShapeValues& values, ShapeSlot slot,
                const Result<int64_t>& want, const std::string& what,
                std::map<StatusCode, int>* outcomes) {
  Status got = values.Check(slot);
  EXPECT_EQ(got.code(), want.status().code()) << what;
  EXPECT_EQ(got.message(), want.status().message()) << what;
  if (got.ok() && want.ok()) {
    EXPECT_EQ(values[slot], *want) << what;
  }
  ++(*outcomes)[want.status().code()];
}

TEST_F(ShapeProgramTest, MatchesTreeWalkOnRandomExpressions) {
  SymbolicDimManager& manager = analysis_->manager();
  const SymbolId batch = analysis_->GetShape(x_)[0].symbol();
  const SymbolId seq = analysis_->GetShape(x_)[1].symbol();
  // An unbound symbol, one merged into `seq` (unbound as written, bound
  // once canonicalized) and one with a known value.
  const SymbolId unbound = manager.NewSymbol("u");
  const SymbolId merged = manager.NewSymbol("m");
  ASSERT_TRUE(manager.MergeSymbols(merged, seq).ok());
  const SymbolId known = manager.NewSymbol("k");
  ASSERT_TRUE(manager.SetValue(known, 3).ok());
  const std::vector<SymbolId> symbols = {batch, seq, unbound, merged, known};

  Rng rng(17);
  std::vector<DimExpr> exprs;
  for (int i = 0; i < 400; ++i) exprs.push_back(RandomExpr(&rng, symbols, 4));
  ShapeProgram::Builder builder(*analysis_);
  std::vector<ShapeSlot> raw, canonical;
  for (const DimExpr& e : exprs) {
    raw.push_back(builder.Lower(e));
    canonical.push_back(builder.LowerCanonical(e));
  }
  ShapeProgram program = std::move(builder).Finish();

  std::map<StatusCode, int> outcomes;
  for (int trial = 0; trial < 40; ++trial) {
    const int64_t b = rng.UniformInt(0, 6);
    const int64_t s = rng.UniformInt(0, 6);
    const std::vector<std::vector<int64_t>> dims = {{b, s}, {b, 4}};
    auto bindings = analysis_->BindInputs(dims);
    ASSERT_TRUE(bindings.ok());
    ShapeValues values;
    ASSERT_TRUE(program.Run(dims, &values).ok());
    EXPECT_EQ(program.Bindings(values), *bindings);
    for (size_t i = 0; i < exprs.size(); ++i) {
      const std::string what = exprs[i].ToString() + " at B=" +
                               std::to_string(b) + " S=" + std::to_string(s);
      ExpectSame(values, raw[i], exprs[i].Evaluate(*bindings), "raw " + what,
                 &outcomes);
      ExpectSame(values, canonical[i],
                 analysis_->EvaluateDim(exprs[i], *bindings),
                 "canonical " + what, &outcomes);
    }
  }
  // All three outcomes occurred.
  EXPECT_GT(outcomes[StatusCode::kOk], 0);
  EXPECT_GT(outcomes[StatusCode::kNotFound], 0);
  EXPECT_GT(outcomes[StatusCode::kInvalidArgument], 0);
}

TEST_F(ShapeProgramTest, BindingFailsLikeBindInputs) {
  ShapeProgram program = ShapeProgram::Builder(*analysis_).Finish();
  const std::vector<std::vector<std::vector<int64_t>>> cases = {
      {{2, 3}, {2, 4}},     // ok
      {{2, 3}},             // input count
      {{2, 3, 1}, {2, 4}},  // rank
      {{2, 3}, {2, 5}},     // static dim
      {{2, 3}, {7, 4}},     // B bound to 2, then 7
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    ShapeValues values;
    Status got = program.Run(cases[i], &values);
    Status want = analysis_->BindInputs(cases[i]).status();
    EXPECT_EQ(got.code(), want.code()) << "case " << i;
    EXPECT_EQ(got.message(), want.message()) << "case " << i;
  }
}

}  // namespace
}  // namespace disc
