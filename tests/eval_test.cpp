#include "ir/eval.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "support/rng.h"

namespace disc {
namespace {

Tensor RandomF32(Rng* rng, std::vector<int64_t> dims) {
  Tensor t(DType::kF32, std::move(dims));
  for (int64_t i = 0; i < t.num_elements(); ++i) {
    t.f32_data()[i] = rng->Normal();
  }
  return t;
}

std::vector<Tensor> Eval(const Graph& g, std::vector<Tensor> inputs) {
  auto r = EvaluateGraph(g, inputs);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : std::vector<Tensor>{};
}

TEST(EvalTest, AddWithBroadcast) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2, 3});
  Value* y = b.Input("y", DType::kF32, {3});
  b.Output({b.Add(x, y)});
  auto out = Eval(g, {Tensor::F32({2, 3}, {1, 2, 3, 4, 5, 6}),
                      Tensor::F32({3}, {10, 20, 30})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(Tensor::AllClose(
      out[0], Tensor::F32({2, 3}, {11, 22, 33, 14, 25, 36})));
}

TEST(EvalTest, UnaryMath) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4});
  b.Output({b.Exp(x), b.Relu(x), b.Abs(x), b.Sigmoid(x)});
  auto out = Eval(g, {Tensor::F32({4}, {-1, 0, 1, 2})});
  ASSERT_EQ(out.size(), 4u);
  EXPECT_NEAR(out[0].f32_data()[0], std::exp(-1.0f), 1e-6);
  EXPECT_EQ(out[1].f32_data()[0], 0.0f);
  EXPECT_EQ(out[1].f32_data()[3], 2.0f);
  EXPECT_EQ(out[2].f32_data()[0], 1.0f);
  EXPECT_NEAR(out[3].f32_data()[1], 0.5f, 1e-6);
}

TEST(EvalTest, CompareAndSelect) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4});
  Value* pred = b.Greater(x, b.ScalarF32(0.0f));
  b.Output({b.Select(pred, x, b.Neg(x))});  // == abs
  auto out = Eval(g, {Tensor::F32({4}, {-3, -1, 2, 0})});
  EXPECT_TRUE(Tensor::AllClose(out[0], Tensor::F32({4}, {3, 1, 2, 0})));
}

TEST(EvalTest, IntegerDivModTruncate) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kI64, {3});
  Value* y = b.Input("y", DType::kI64, {3});
  b.Output({b.Div(x, y), b.Binary(OpKind::kMod, x, y)});
  auto out = Eval(g, {Tensor::I64({3}, {7, 8, 9}), Tensor::I64({3}, {2, 4, 5})});
  EXPECT_EQ(out[0].i64_data()[0], 3);
  EXPECT_EQ(out[0].i64_data()[1], 2);
  EXPECT_EQ(out[1].i64_data()[2], 4);
}

TEST(EvalTest, IntegerDivisionByZeroIsAnError) {
  Graph g;
  GraphBuilder b(&g);
  Value* a = b.Input("a", DType::kI64, {2});
  Value* d = b.Input("d", DType::kI64, {2});
  b.Output({b.Div(a, d)});
  auto r = EvaluateGraph(
      g, {Tensor::I64({2}, {7, 8}), Tensor::I64({2}, {2, 0})});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find("integer division by zero"),
            std::string::npos)
      << r.status().ToString();

  Graph m;
  GraphBuilder mb(&m);
  Value* x = mb.Input("x", DType::kI64, {1});
  Value* y = mb.Input("y", DType::kI64, {1});
  mb.Output({mb.Binary(OpKind::kMod, x, y)});
  auto mod = EvaluateGraph(m, {Tensor::I64({1}, {5}), Tensor::I64({1}, {0})});
  ASSERT_FALSE(mod.ok());
  EXPECT_NE(mod.status().ToString().find("integer division by zero"),
            std::string::npos);
}

TEST(EvalTest, IntegerDivisionOverflowIsAnError) {
  Graph g;
  GraphBuilder b(&g);
  Value* a = b.Input("a", DType::kI64, {1});
  Value* d = b.Input("d", DType::kI64, {1});
  b.Output({b.Div(a, d)});
  auto r = EvaluateGraph(
      g, {Tensor::I64({1}, {std::numeric_limits<int64_t>::min()}),
          Tensor::I64({1}, {-1})});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("integer division overflow"),
            std::string::npos)
      << r.status().ToString();
}

TEST(EvalTest, ConstantFoldKeepsZeroDivisorNodeAndCompiles) {
  // Folding evaluates div on two constants; the zero divisor makes that
  // evaluation fail, so the node stays for the runtime to report.
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kI64, {2});
  Value* q = b.Div(b.Constant(Tensor::I64({2}, {7, 8})),
                   b.Constant(Tensor::I64({2}, {2, 0})));
  b.Output({b.Add(x, q)});
  auto exe = DiscCompiler::Compile(g);
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  bool div_kept = false;
  for (const Node* node : (*exe)->graph().nodes()) {
    div_kept = div_kept || node->kind() == OpKind::kDiv;
  }
  EXPECT_TRUE(div_kept);
  auto run = (*exe)->Run({Tensor::I64({2}, {1, 1})});
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().ToString().find("integer division by zero"),
            std::string::npos)
      << run.status().ToString();
}

TEST(EvalTest, ReduceOps) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2, 3});
  b.Output({b.ReduceSum(x, {1}), b.ReduceMax(x, {0}),
            b.ReduceMean(x, {0, 1}), b.Reduce(OpKind::kReduceMin, x, {1})});
  auto out = Eval(g, {Tensor::F32({2, 3}, {1, 2, 3, 4, 5, 6})});
  EXPECT_TRUE(Tensor::AllClose(out[0], Tensor::F32({2}, {6, 15})));
  EXPECT_TRUE(Tensor::AllClose(out[1], Tensor::F32({3}, {4, 5, 6})));
  EXPECT_NEAR(out[2].f32_data()[0], 3.5f, 1e-6);
  EXPECT_TRUE(Tensor::AllClose(out[3], Tensor::F32({2}, {1, 4})));
}

TEST(EvalTest, ReduceKeepDims) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2, 3});
  b.Output({b.ReduceSum(x, {1}, /*keep=*/true)});
  auto out = Eval(g, {Tensor::F32({2, 3}, {1, 2, 3, 4, 5, 6})});
  EXPECT_EQ(out[0].dims(), (std::vector<int64_t>{2, 1}));
}

TEST(EvalTest, MatMul2D) {
  Graph g;
  GraphBuilder b(&g);
  Value* a = b.Input("a", DType::kF32, {2, 3});
  Value* w = b.Input("w", DType::kF32, {3, 2});
  b.Output({b.MatMul(a, w)});
  auto out = Eval(g, {Tensor::F32({2, 3}, {1, 2, 3, 4, 5, 6}),
                      Tensor::F32({3, 2}, {1, 0, 0, 1, 1, 1})});
  EXPECT_TRUE(Tensor::AllClose(out[0], Tensor::F32({2, 2}, {4, 5, 10, 11})));
}

TEST(EvalTest, MatMulTransposedAgreesWithExplicitTranspose) {
  Rng rng(42);
  Tensor a = RandomF32(&rng, {4, 6});
  Tensor w = RandomF32(&rng, {5, 6});

  Graph g1;
  GraphBuilder b1(&g1);
  Value* av = b1.Input("a", DType::kF32, {4, 6});
  Value* wv = b1.Input("w", DType::kF32, {5, 6});
  b1.Output({b1.MatMul(av, wv, false, /*transpose_b=*/true)});

  Graph g2;
  GraphBuilder b2(&g2);
  Value* av2 = b2.Input("a", DType::kF32, {4, 6});
  Value* wv2 = b2.Input("w", DType::kF32, {5, 6});
  b2.Output({b2.MatMul(av2, b2.Transpose(wv2, {1, 0}))});

  auto r1 = Eval(g1, {a, w});
  auto r2 = Eval(g2, {a, w});
  EXPECT_TRUE(Tensor::AllClose(r1[0], r2[0]));
}

TEST(EvalTest, BatchedMatMulBroadcastsBatchDims) {
  Rng rng(1);
  Tensor a = RandomF32(&rng, {3, 2, 4});
  Tensor w = RandomF32(&rng, {4, 5});  // broadcast over batch

  Graph g;
  GraphBuilder b(&g);
  Value* av = b.Input("a", DType::kF32, {3, 2, 4});
  Value* wv = b.Input("w", DType::kF32, {4, 5});
  b.Output({b.MatMul(av, wv)});
  auto out = Eval(g, {a, w});
  ASSERT_EQ(out[0].dims(), (std::vector<int64_t>{3, 2, 5}));
  // Check batch 2 against a manual 2-D matmul.
  Graph g2;
  GraphBuilder b2(&g2);
  Value* a2 = b2.Input("a", DType::kF32, {2, 4});
  Value* w2 = b2.Input("w", DType::kF32, {4, 5});
  b2.Output({b2.MatMul(a2, w2)});
  Tensor slice(DType::kF32, {2, 4});
  for (int i = 0; i < 8; ++i) slice.f32_data()[i] = a.f32_data()[16 + i];
  auto ref = Eval(g2, {slice, w});
  for (int i = 0; i < 10; ++i) {
    EXPECT_NEAR(out[0].f32_data()[20 + i], ref[0].f32_data()[i], 1e-5);
  }
}

TEST(EvalTest, Conv2DIdentityKernel) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {1, 3, 3, 1});
  // 1x1 identity filter.
  Value* w = b.Constant(Tensor::F32({1, 1, 1, 1}, {1.0f}));
  b.Output({b.Conv2D(x, w, {1, 1}, {0, 0})});
  Tensor in = Tensor::F32({1, 3, 3, 1}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  auto out = Eval(g, {in});
  EXPECT_TRUE(Tensor::AllClose(out[0], in));
}

TEST(EvalTest, Conv2DSumKernelWithPadding) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {1, 2, 2, 1});
  Value* w = b.Constant(Tensor::F32({3, 3, 1, 1}, std::vector<float>(9, 1.0f)));
  b.Output({b.Conv2D(x, w, {1, 1}, {1, 1})});
  auto out = Eval(g, {Tensor::F32({1, 2, 2, 1}, {1, 2, 3, 4})});
  // Every output = sum of in-bounds neighbours; center sums all = 10.
  EXPECT_EQ(out[0].dims(), (std::vector<int64_t>{1, 2, 2, 1}));
  EXPECT_FLOAT_EQ(out[0].f32_data()[0], 10.0f);
}

TEST(EvalTest, TransposeReshapeRoundTrip) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2, 3});
  Value* t = b.Transpose(x, {1, 0});
  b.Output({b.Reshape(t, {6})});
  auto out = Eval(g, {Tensor::F32({2, 3}, {1, 2, 3, 4, 5, 6})});
  EXPECT_TRUE(Tensor::AllClose(out[0], Tensor::F32({6}, {1, 4, 2, 5, 3, 6})));
}

TEST(EvalTest, DynamicReshapeFromShapeOf) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  Value* flat = b.Reshape(x, {-1});
  Value* back = b.ReshapeDynamic(flat, b.ShapeOf(x));
  b.Output({back});
  Tensor in = Tensor::F32({2, 3}, {1, 2, 3, 4, 5, 6});
  auto out = Eval(g, {in});
  EXPECT_TRUE(Tensor::AllClose(out[0], in));
}

TEST(EvalTest, BroadcastToExpands) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {1, 3});
  b.Output({b.BroadcastTo(x, {2, 3})});
  auto out = Eval(g, {Tensor::F32({1, 3}, {1, 2, 3})});
  EXPECT_TRUE(Tensor::AllClose(out[0], Tensor::F32({2, 3}, {1, 2, 3, 1, 2, 3})));
}

TEST(EvalTest, ConcatAxis1) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2, 2});
  Value* y = b.Input("y", DType::kF32, {2, 1});
  b.Output({b.Concat({x, y}, 1)});
  auto out = Eval(g, {Tensor::F32({2, 2}, {1, 2, 3, 4}),
                      Tensor::F32({2, 1}, {9, 8})});
  EXPECT_TRUE(
      Tensor::AllClose(out[0], Tensor::F32({2, 3}, {1, 2, 9, 3, 4, 8})));
}

TEST(EvalTest, SliceStrided) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {6});
  b.Output({b.Slice(x, {1}, {6}, {2})});
  auto out = Eval(g, {Tensor::F32({6}, {0, 1, 2, 3, 4, 5})});
  EXPECT_TRUE(Tensor::AllClose(out[0], Tensor::F32({3}, {1, 3, 5})));
}

TEST(EvalTest, GatherRows) {
  Graph g;
  GraphBuilder b(&g);
  Value* table = b.Input("t", DType::kF32, {4, 2});
  Value* ids = b.Input("ids", DType::kI64, {3});
  b.Output({b.Gather(table, ids, 0)});
  auto out = Eval(g, {Tensor::F32({4, 2}, {0, 1, 10, 11, 20, 21, 30, 31}),
                      Tensor::I64({3}, {2, 0, 2})});
  EXPECT_TRUE(Tensor::AllClose(
      out[0], Tensor::F32({3, 2}, {20, 21, 0, 1, 20, 21})));
}

TEST(EvalTest, GatherOutOfBoundsFails) {
  Graph g;
  GraphBuilder b(&g);
  Value* table = b.Input("t", DType::kF32, {4, 2});
  Value* ids = b.Input("ids", DType::kI64, {1});
  b.Output({b.Gather(table, ids, 0)});
  auto r = EvaluateGraph(g, {Tensor(DType::kF32, {4, 2}),
                             Tensor::I64({1}, {7})});
  EXPECT_FALSE(r.ok());
}

TEST(EvalTest, PadWithValue) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {2});
  b.Output({b.Pad(x, {1}, {2}, -1.0)});
  auto out = Eval(g, {Tensor::F32({2}, {5, 6})});
  EXPECT_TRUE(
      Tensor::AllClose(out[0], Tensor::F32({5}, {-1, 5, 6, -1, -1})));
}

TEST(EvalTest, NegativePadCropsLikeCompiledKernel) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {4});
  b.Output({b.Pad(x, {-1}, {1}, 0.0)});
  const Tensor input = Tensor::F32({4}, {1, 2, 3, 4});
  auto reference = EvaluateGraph(g, {input});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const Tensor expected = Tensor::F32({4}, {2, 3, 4, 0});
  ASSERT_EQ((*reference)[0].dims(), expected.dims());
  EXPECT_EQ(std::memcmp((*reference)[0].f32_data(), expected.f32_data(),
                        4 * sizeof(float)),
            0);

  auto exe = DiscCompiler::Compile(g);
  ASSERT_TRUE(exe.ok()) << exe.status().ToString();
  auto compiled = (*exe)->Run({input});
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled->outputs[0].dims(), expected.dims());
  EXPECT_EQ(std::memcmp(compiled->outputs[0].f32_data(),
                        (*reference)[0].f32_data(), 4 * sizeof(float)),
            0);
}

TEST(EvalTest, ShapeOfAndDim) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  b.Output({b.ShapeOf(x), b.Dim(x, 0)});
  auto out = Eval(g, {Tensor(DType::kF32, {5, 8})});
  EXPECT_EQ(out[0].i64_data()[0], 5);
  EXPECT_EQ(out[0].i64_data()[1], 8);
  EXPECT_EQ(out[1].i64_data()[0], 5);
}

TEST(EvalTest, IotaAxis) {
  Graph g;
  GraphBuilder b(&g);
  b.Output({b.Iota({2, 3}, 1)});
  auto out = Eval(g, {});
  EXPECT_EQ(out[0].i64_data()[0], 0);
  EXPECT_EQ(out[0].i64_data()[2], 2);
  EXPECT_EQ(out[0].i64_data()[3], 0);
}

TEST(EvalTest, SoftmaxRowsSumToOne) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.Softmax(x)});
  Rng rng(3);
  auto out = Eval(g, {RandomF32(&rng, {5, 7})});
  for (int64_t r = 0; r < 5; ++r) {
    double sum = 0;
    for (int64_t c = 0; c < 7; ++c) sum += out[0].f32_data()[r * 7 + c];
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(EvalTest, LayerNormZeroMeanUnitVar) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {3, 16});
  Value* scale = b.Constant(Tensor::F32({16}, std::vector<float>(16, 1.0f)));
  Value* bias = b.Constant(Tensor::F32({16}, std::vector<float>(16, 0.0f)));
  b.Output({b.LayerNorm(x, scale, bias)});
  Rng rng(4);
  auto out = Eval(g, {RandomF32(&rng, {3, 16})});
  for (int64_t r = 0; r < 3; ++r) {
    double mean = 0, var = 0;
    for (int64_t c = 0; c < 16; ++c) mean += out[0].f32_data()[r * 16 + c];
    mean /= 16;
    for (int64_t c = 0; c < 16; ++c) {
      double d = out[0].f32_data()[r * 16 + c] - mean;
      var += d * d;
    }
    var /= 16;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(EvalTest, InputShapeValidation) {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 8});
  b.Output({b.Relu(x)});
  EXPECT_FALSE(EvaluateGraph(g, {Tensor(DType::kF32, {2, 9})}).ok());
  EXPECT_FALSE(EvaluateGraph(g, {Tensor(DType::kF32, {8})}).ok());
  EXPECT_FALSE(EvaluateGraph(g, {}).ok());
  EXPECT_TRUE(EvaluateGraph(g, {Tensor(DType::kF32, {2, 8})}).ok());
}

}  // namespace
}  // namespace disc
