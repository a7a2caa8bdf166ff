// Launch-plan cache: hit/miss accounting, LRU bounds, observational
// equivalence of cached runs (bit-identical outputs, identical simulated
// device time), host-result replay, and concurrent Run safety.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "compiler/compiler.h"
#include "ir/builder.h"
#include "runtime/launch_plan.h"
#include "support/failpoint.h"
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

// Exact equality — cached replay must be bit-identical, not just close.
bool BitIdentical(const Tensor& a, const Tensor& b) {
  if (a.dtype() != b.dtype() || a.dims() != b.dims()) return false;
  if (a.dtype() == DType::kF32) {
    for (int64_t i = 0; i < a.num_elements(); ++i) {
      if (a.f32_data()[i] != b.f32_data()[i]) return false;
    }
    return true;
  }
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    if (a.i64_data()[i] != b.i64_data()[i]) return false;
  }
  return true;
}

// A model with every step kind: host shape program (Dim/Cast), a library
// call (MatMul), and fused kernels with specialization guards.
std::unique_ptr<Executable> CompileModel() {
  Graph g;
  GraphBuilder b(&g);
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, 32});
  Tensor w(DType::kF32, {32, 32});
  Rng rng(7);
  for (int64_t i = 0; i < w.num_elements(); ++i) {
    w.f32_data()[i] = rng.Normal() * 0.1f;
  }
  Value* y = b.MatMul(x, b.Constant(w));
  Value* total = b.ReduceSum(y, {1});                // [B]
  Value* len = b.Cast(b.Dim(x, 0), DType::kF32);     // host shape value
  b.Output({b.Softmax(b.Relu(y)), b.Div(total, len), b.ShapeOf(x)});
  auto exe = DiscCompiler::Compile(g, {{"B", ""}});
  EXPECT_TRUE(exe.ok()) << exe.status().ToString();
  return std::move(*exe);
}

TEST(ShapeSignatureTest, CanonicalAndCollisionFree) {
  EXPECT_EQ(ShapeSignature({{2, 3}, {4, 5}}), "2x3;4x5;");
  EXPECT_EQ(ShapeSignature({}), "");
  EXPECT_EQ(ShapeSignature({{}}), ";");  // rank-0
  // Rank boundaries must not collide: [2,3],[4] vs [2],[3,4].
  EXPECT_NE(ShapeSignature({{2, 3}, {4}}), ShapeSignature({{2}, {3, 4}}));
}

TEST(LaunchPlanCacheTest, LruEvictsBeyondCapacity) {
  LaunchPlanCache cache(8);
  for (int i = 0; i < 1000; ++i) {
    cache.Insert(std::to_string(i), std::make_shared<const LaunchPlan>());
  }
  LaunchPlanCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 8);
  EXPECT_EQ(stats.insertions, 1000);
  EXPECT_EQ(stats.evictions, 992);
  // Most-recent 8 survive; older keys are gone.
  EXPECT_NE(cache.Lookup("999"), nullptr);
  EXPECT_NE(cache.Lookup("992"), nullptr);
  EXPECT_EQ(cache.Lookup("991"), nullptr);
  EXPECT_EQ(cache.Lookup("0"), nullptr);
}

TEST(LaunchPlanCacheTest, LookupRefreshesRecency) {
  LaunchPlanCache cache(2);
  cache.Insert("a", std::make_shared<const LaunchPlan>());
  cache.Insert("b", std::make_shared<const LaunchPlan>());
  ASSERT_NE(cache.Lookup("a"), nullptr);  // bump "a" to front
  cache.Insert("c", std::make_shared<const LaunchPlan>());
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);  // "b" was LRU
  EXPECT_NE(cache.Lookup("c"), nullptr);
}

TEST(LaunchPlanCacheTest, ZeroCapacityDisables) {
  LaunchPlanCache cache(0);
  cache.Insert("a", std::make_shared<const LaunchPlan>());
  EXPECT_EQ(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.stats().entries, 0);
}

TEST(LaunchPlanTest, HitMissAccounting) {
  auto exe = CompileModel();
  auto miss = exe->RunWithShapes({{8, 32}});
  auto hit = exe->RunWithShapes({{8, 32}});
  auto other = exe->RunWithShapes({{16, 32}});
  ASSERT_TRUE(miss.ok() && hit.ok() && other.ok());
  EXPECT_FALSE(miss->profile.launch_plan_hit);
  EXPECT_TRUE(hit->profile.launch_plan_hit);
  EXPECT_FALSE(other->profile.launch_plan_hit);
  LaunchPlanCache::Stats stats = exe->plan_cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.entries, 2);
  // ToString surfaces the plan outcome for log scraping.
  EXPECT_NE(hit->profile.ToString().find("plan=hit"), std::string::npos);
  EXPECT_NE(miss->profile.ToString().find("plan=miss"), std::string::npos);
}

TEST(LaunchPlanTest, OptOutNeverTouchesTheCache) {
  auto exe = CompileModel();
  RunOptions off;
  off.use_launch_plan_cache = false;
  ASSERT_TRUE(exe->RunWithShapes({{8, 32}}, off).ok());
  ASSERT_TRUE(exe->RunWithShapes({{8, 32}}, off).ok());
  LaunchPlanCache::Stats stats = exe->plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 0);
  EXPECT_EQ(stats.entries, 0);
}

TEST(LaunchPlanTest, CachedRunsAreBitIdenticalOverRandomTrace) {
  // Two executables of the same model: one serves a repeat-heavy random
  // trace through its plan cache, the other runs every query cold. Outputs
  // must match bit-for-bit and simulated device time exactly.
  auto cached = CompileModel();
  auto cold = CompileModel();
  RunOptions with_cache;
  RunOptions no_cache;
  no_cache.use_launch_plan_cache = false;

  Rng rng(11);
  const std::vector<int64_t> batches = {1, 2, 5, 8};
  for (int i = 0; i < 32; ++i) {
    int64_t batch = batches[rng.Categorical({1, 1, 1, 1})];
    Tensor in = RandomF32(&rng, {batch, 32});
    auto a = cached->Run({in}, with_cache);
    auto b = cold->Run({in}, no_cache);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->outputs.size(), b->outputs.size());
    for (size_t o = 0; o < a->outputs.size(); ++o) {
      EXPECT_TRUE(BitIdentical(a->outputs[o], b->outputs[o]))
          << "output " << o << " diverged at query " << i;
    }
    EXPECT_DOUBLE_EQ(a->profile.device_time_us, b->profile.device_time_us);
    EXPECT_EQ(a->profile.kernel_launches, b->profile.kernel_launches);
    EXPECT_EQ(a->profile.bytes_read, b->profile.bytes_read);
    EXPECT_EQ(a->profile.peak_memory_bytes, b->profile.peak_memory_bytes);
  }
  EXPECT_GT(cached->plan_cache_stats().hits, 0);
}

TEST(LaunchPlanTest, HostResultsReplayCorrectlyOnHits) {
  // The graph's 2nd/3rd outputs come from the host shape program; a plan
  // hit replays recorded host tensors, which must still be correct and
  // must be fresh copies (mutating a returned output must not poison the
  // cache for the next hit).
  auto exe = CompileModel();
  Rng rng(13);
  Tensor in = RandomF32(&rng, {4, 32});
  auto first = exe->Run({in});
  ASSERT_TRUE(first.ok());
  auto second = exe->Run({in});
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->profile.launch_plan_hit);
  EXPECT_TRUE(BitIdentical(first->outputs[2], second->outputs[2]));
  EXPECT_EQ(second->outputs[2].i64_data()[0], 4);  // ShapeOf(x)[0] == B
  // Corrupt the returned tensor; a further hit must be unaffected.
  second->outputs[2].i64_data()[0] = -1;
  auto third = exe->Run({in});
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->outputs[2].i64_data()[0], 4);
}

TEST(LaunchPlanTest, TimingOnlyPlanUpgradesForDataRuns) {
  // A plan recorded by a timing-only run has no host results; the first
  // data-mode hit must still produce correct outputs (and upgrade the
  // cached plan in place rather than duplicating the entry).
  auto exe = CompileModel();
  ASSERT_TRUE(exe->RunWithShapes({{4, 32}}).ok());
  Rng rng(17);
  Tensor in = RandomF32(&rng, {4, 32});
  auto data = exe->Run({in});
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(data->profile.launch_plan_hit);
  EXPECT_EQ(data->outputs[2].i64_data()[0], 4);
  EXPECT_EQ(exe->plan_cache_stats().entries, 1);
  auto again = exe->Run({in});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->outputs[2].i64_data()[0], 4);
}

TEST(LaunchPlanTest, CapacityBoundRespectedThroughExecutable) {
  auto exe = CompileModel();
  exe->set_plan_cache_capacity(8);
  for (int64_t batch = 1; batch <= 1000; ++batch) {
    ASSERT_TRUE(exe->RunWithShapes({{batch, 32}}).ok());
  }
  LaunchPlanCache::Stats stats = exe->plan_cache_stats();
  EXPECT_LE(stats.entries, 8);
  EXPECT_EQ(stats.misses, 1000);  // adversarial trace: all distinct
  EXPECT_EQ(stats.evictions, 992);
}

TEST(LaunchPlanTest, ConcurrentRunsAreSafe) {
  // 4 threads hammer one Executable with overlapping signatures; every run
  // must succeed and every hit must produce the correct output shape.
  auto exe = CompileModel();
  std::atomic<int> failures{0};
  auto worker = [&](int seed) {
    Rng rng(seed);
    const std::vector<int64_t> batches = {1, 2, 3, 4};
    for (int i = 0; i < 50; ++i) {
      int64_t batch = batches[rng.Categorical({1, 1, 1, 1})];
      Tensor in = RandomF32(&rng, {batch, 32});
      auto r = exe->Run({in});
      if (!r.ok() || r->outputs[2].i64_data()[0] != batch) ++failures;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker, 100 + t);
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  LaunchPlanCache::Stats stats = exe->plan_cache_stats();
  EXPECT_EQ(stats.hits + stats.misses, 200);
  EXPECT_LE(stats.entries, 4);
  EXPECT_GT(stats.hits, 0);
}

TEST(LaunchPlanTest, ConcurrentPlanMissesShareOneShapeProgram) {
  // Every Run below misses the cache, so 4 threads evaluate the one
  // shape program concurrently; each plan must equal the tree walker's
  // (computed up front, single-threaded).
  auto exe = CompileModel();
  exe->set_plan_cache_capacity(0);
  std::vector<LaunchPlan> want;
  for (int64_t batch = 1; batch <= 64; ++batch) {
    auto plan = exe->BuildLaunchPlanByTreeWalk({{batch, 32}});
    ASSERT_TRUE(plan.ok());
    want.push_back(std::move(*plan));
  }
  std::atomic<int> mismatches{0};
  auto worker = [&](int64_t first) {
    for (int i = 0; i < 64; ++i) {
      int64_t batch = 1 + (first + i) % 64;
      auto plan = exe->BuildLaunchPlan({{batch, 32}});
      const LaunchPlan& w = want[batch - 1];
      if (!plan.ok() || plan->bindings != w.bindings ||
          plan->alloc_bytes != w.alloc_bytes ||
          plan->arena_bytes != w.arena_bytes) {
        ++mismatches;
      }
      if (!exe->RunWithShapes({{batch, 32}}).ok()) ++mismatches;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) threads.emplace_back(worker, 16 * t);
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// The `kernel.guard` failpoint (DESIGN.md §8) sits in guard evaluation,
// which only a plan miss performs.
class GuardFailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { FailpointRegistry::Global().DisarmAll(); }

  static int64_t Hits() {
    for (const auto& info : FailpointRegistry::Global().Snapshot()) {
      if (info.name == "kernel.guard") return info.hits;
    }
    return 0;
  }
  static int64_t Fires() {
    return FailpointRegistry::Global().fires("kernel.guard");
  }
  static void Arm(const std::string& trigger) {
    ASSERT_TRUE(FailpointRegistry::Global()
                    .ArmFromSpec("kernel.guard=" + trigger)
                    .ok());
  }
};

TEST_F(GuardFailpointTest, OnceFailsExactlyTheNextPlanMissAndIsNotCached) {
  auto exe = CompileModel();
  ASSERT_TRUE(exe->RunWithShapes({{8, 32}}).ok());
  Arm("once:code=data-loss");
  auto failed = exe->RunWithShapes({{9, 32}});
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(Fires(), 1);
  // The failed signature was not published: running it again is another
  // miss, and now succeeds.
  LaunchPlanCache::Stats before = exe->plan_cache_stats();
  EXPECT_EQ(before.entries, 1);
  auto retried = exe->RunWithShapes({{9, 32}});
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_FALSE(retried->profile.launch_plan_hit);
  EXPECT_EQ(exe->plan_cache_stats().misses, before.misses + 1);
  EXPECT_EQ(Fires(), 1);
}

TEST_F(GuardFailpointTest, PlanHitsDoNotEvaluateGuards) {
  auto exe = CompileModel();
  ASSERT_TRUE(exe->RunWithShapes({{8, 32}}).ok());
  Arm("always");
  auto hit = exe->RunWithShapes({{8, 32}});
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit->profile.launch_plan_hit);
  EXPECT_EQ(Hits(), 0);
  EXPECT_FALSE(exe->RunWithShapes({{12, 32}}).ok());  // a miss does
  EXPECT_EQ(Fires(), 1);
}

TEST_F(GuardFailpointTest, HitsMatchTheTreeWalkersGuardEvaluations) {
  auto exe = CompileModel();
  exe->set_plan_cache_capacity(0);
  std::vector<std::vector<std::vector<int64_t>>> signatures;
  std::vector<int64_t> evaluations;
  for (int64_t batch = 1; batch <= 24; ++batch) {
    signatures.push_back({{batch, 32}});
    // Guard::Evaluate calls of one tree-walk plan build: per kernel the
    // selection's (variant index + 1) plus the selected guard's re-check.
    auto bindings = exe->analysis().BindInputs(signatures.back());
    ASSERT_TRUE(bindings.ok());
    int64_t calls = 0;
    for (const auto& kernel : exe->kernels()) {
      auto index = kernel->SelectVariantIndex(*bindings);
      ASSERT_TRUE(index.ok());
      calls += *index + 2;
    }
    evaluations.push_back(calls);
  }
  // Armed but never firing, the hits count evaluations exactly.
  Arm("every:1000000");
  for (size_t i = 0; i < signatures.size(); ++i) {
    int64_t before = Hits();
    ASSERT_TRUE(exe->BuildLaunchPlanByTreeWalk(signatures[i]).ok());
    EXPECT_EQ(Hits() - before, evaluations[i]);
    before = Hits();
    ASSERT_TRUE(exe->RunWithShapes(signatures[i]).ok());
    EXPECT_EQ(Hits() - before, evaluations[i]);
  }
  // Firing every N-th hit, the tape path fails the same Runs with the
  // same status after the same number of fires as the tree walker.
  for (int n : {2, 3, 5, 7}) {
    Arm("every:" + std::to_string(n));
    std::vector<StatusCode> tree_codes;
    for (const auto& dims : signatures) {
      tree_codes.push_back(
          exe->BuildLaunchPlanByTreeWalk(dims).status().code());
    }
    const int64_t tree_fires = Fires();
    EXPECT_GT(tree_fires, 0);
    Arm("every:" + std::to_string(n));  // re-arming resets the counters
    for (size_t i = 0; i < signatures.size(); ++i) {
      auto run = exe->RunWithShapes(signatures[i]);
      EXPECT_EQ(run.status().code(), tree_codes[i]) << "every:" << n;
    }
    EXPECT_EQ(Fires(), tree_fires) << "every:" << n;
  }
}

}  // namespace
}  // namespace disc
