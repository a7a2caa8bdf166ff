// The replay core shared by request-level serving (SimulateServing) and
// iteration-level decode (SimulateDecode, src/decode/). Both replay a
// request stream on one simulated device and differ only in how they form
// a launch; the rest is here, once: the launch ladder (announce the
// simulated clock, Query, retry retryable errors with exponential backoff,
// plus an optional ResourceExhausted relief hook), failure and degraded
// booking, CompletedRequest recording with the ledger-sum check, and the
// run finalizer with the accounting invariant
//   submitted == completed + shed + deadline_missed + failed.
#ifndef DISC_SERVING_REPLAY_CORE_H_
#define DISC_SERVING_REPLAY_CORE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "baselines/engine.h"
#include "support/blame.h"
#include "support/metrics.h"
#include "support/status.h"

namespace disc {

/// Options of both loops (BatcherOptions and DecodeOptions derive).
struct ReplayOptions {
  /// Most requests per batch (serving) or sequences per step (decode).
  int64_t max_batch = 8;
  /// Retries per launch on a retryable Query error (IsRetryable). The
  /// first retry waits `retry_backoff_us` of simulated time, doubling on
  /// each subsequent attempt.
  int64_t max_retries = 2;
  double retry_backoff_us = 500.0;
  /// Load-shedding bound on the queue depth; each loop documents what it
  /// counts and sheds. 0 = never shed.
  int64_t max_queue_depth = 0;
  /// Memory-aware admission budget, checked against the engine's
  /// predicted peak footprint (Engine::PredictPeakBytes) before a launch
  /// is committed. 0 = no budget.
  int64_t memory_limit_bytes = 0;
};

/// The arrival order of both loops: arrival, then effective deadline
/// (tighter first; none sorts as +inf), then id — a total order, so a
/// stream replays byte-stable under any input permutation.
template <typename R>
bool ArrivesBefore(const R& a, const R& b) {
  auto deadline = [](const R& r) {
    if constexpr (requires { r.deadline_us; }) {
      if (r.deadline_us > 0.0) return r.deadline_us;
    }
    return std::numeric_limits<double>::infinity();
  };
  if (a.arrival_us != b.arrival_us) return a.arrival_us < b.arrival_us;
  const double da = deadline(a);
  const double db = deadline(b);
  if (da != db) return da < db;
  return a.id < b.id;
}

struct ServingStats {
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_us = 0.0;
  double throughput_qps = 0.0;     // completed requests / simulated second
  double padded_token_fraction = 0.0;  // padding waste across all batches
  int64_t batches = 0;
  /// Launch-plan cache hit rate over this simulation's queries (delta of
  /// the engine's counters, so earlier traffic on the engine is excluded).
  /// Under kBatchMax the padded shapes repeat heavily, so a plan-caching
  /// engine serves most batches on the fast path.
  double plan_hit_rate = 0.0;

  // Request accounting. Invariant (asserted by the chaos harness):
  //   submitted == completed + shed + deadline_missed + failed.
  int64_t submitted = 0;
  int64_t completed = 0;
  /// Dropped by load shedding (queue depth exceeded max_queue_depth, or
  /// predicted footprint exceeded memory_limit_bytes). Memory sheds are
  /// included here — `memory_shed` below is the informational sub-count —
  /// so the accounting invariant needs no extra term.
  int64_t shed = 0;
  /// Of `shed`: requests dropped by memory-aware admission (predicted
  /// peak footprint over BatcherOptions::memory_limit_bytes).
  int64_t memory_shed = 0;
  /// Dropped pre-execution because the deadline passed before launch.
  int64_t deadline_missed = 0;
  /// Batch query failed after exhausting retries (non-retryable or out of
  /// attempts); counts each request of the failed batch.
  int64_t failed = 0;
  /// Retry attempts across all batches (not requests).
  int64_t retries = 0;
  /// Requests served on a degraded path (the engine's fallback leg),
  /// attributed per batch via the delta of EngineStats::fallback_queries.
  int64_t degraded = 0;
  /// Generated-kernel launches this stream caused (delta of the runtime's
  /// mirrored `runtime.kernel.launches` counter — interpreter-degraded
  /// batches contribute nothing), and how many of all device launches
  /// (library calls included) the device model judged memory-bound. Both 0
  /// for engines that never reach the compiled runtime.
  int64_t kernel_launches = 0;
  int64_t memory_bound_launches = 0;
  /// Failed requests per StatusCode name (e.g. "Unavailable" -> 12).
  std::map<std::string, int64_t> error_counts;
  // Decode-serving extensions (filled by SimulateDecode in src/decode/;
  // all zero for request-level serving, so request-level output and every
  // committed baseline are unchanged).
  /// Generated tokens per simulated second across the whole replay — the
  /// decode-serving throughput headline.
  double tokens_per_sec = 0.0;
  int64_t generated_tokens = 0;
  /// Time-between-tokens percentiles: gaps between consecutive token
  /// completions of one sequence (the inter-token stutter a streaming
  /// client sees), pooled across sequences. Includes join->first-token.
  double p50_tbt_us = 0.0;
  double p99_tbt_us = 0.0;
  /// Fraction of per-step padded KV tokens that were padding (ragged
  /// lengths padded to the step signature, plus held slots of finished
  /// sequences under whole-request batching).
  double step_padding_waste = 0.0;
  int64_t decode_steps = 0;
  /// Sequences joined into / retired from the running batch mid-replay.
  int64_t decode_joins = 0;
  int64_t decode_retires = 0;
  /// Degradation-ladder actions specific to decode: sequences preempted
  /// (KV blocks released, requeued) under memory pressure, and resumed
  /// after preemption. A preempted-and-resumed sequence still completes,
  /// so the accounting invariant above is unchanged.
  int64_t preemptions = 0;
  int64_t resumes = 0;
  /// KV-cache pool occupancy high-water (blocks) and blocks recycled on
  /// sequence retire/preempt.
  int64_t kv_high_water_blocks = 0;
  int64_t kv_block_recycles = 0;

  /// Per-completed-request causal record: trace id, shape signature, and a
  /// PhaseLedger decomposing the end-to-end latency into batch_form /
  /// queue / backoff / decode_wait / compile_stall / host_plan / alloc /
  /// device. DISC_CHECKed by the replay core to sum to e2e exactly; feed
  /// to TailBlameAggregator for p99 blame attribution.
  std::vector<CompletedRequest> completed_requests;

  std::string ToString() const;
};

/// One launch through the ladder.
struct LaunchResult {
  Status status;        // OK, or the error that ended the ladder
  EngineTiming timing;  // valid when ok()
  /// First attempt and the attempt that ended the ladder; the gap is
  /// retry backoff.
  double first_start_us = 0.0;
  double start_us = 0.0;
  int64_t retries = 0;
  /// Served on the engine's fallback leg (EngineStats::fallback_queries
  /// moved during the ladder).
  bool degraded = false;

  bool ok() const { return status.ok(); }
  double backoff_us() const { return start_us - first_start_us; }
  double done_us() const { return start_us + timing.total_us; }
  /// \brief Adds the backoff and the engine's compile / host / alloc /
  /// device timings to a request's ledger.
  void Charge(PhaseLedger* ledger) const {
    ledger->backoff_us += backoff_us();
    ledger->compile_stall_us += timing.compile_us;
    ledger->host_plan_us += timing.host_us;
    ledger->alloc_us += timing.alloc_us;
    ledger->device_us += timing.device_us;
  }
};

/// \brief Answers ResourceExhausted at simulated time `at_us`, after
/// `backoff_us` of backoff in this launch. True = the launch was restaged;
/// the ladder re-queries at once without spending an attempt.
using PressureRelief = std::function<bool(double at_us, double backoff_us)>;

/// \brief One replay's shared state over `stats`: plan-hit and kernel
/// counter snapshots taken at construction, the latency sample and the
/// padding totals. `loop` ("serving", "decode") names invariant failures.
class ReplayCore {
 public:
  ReplayCore(Engine* engine, const DeviceSpec& device,
             const ReplayOptions& options, const char* loop,
             ServingStats* stats);

  /// \brief Runs the launch ladder from `start_us` and books its retries.
  /// `shapes` is re-read on every attempt, so `relieve` may restage it.
  LaunchResult Launch(const std::vector<std::vector<int64_t>>& shapes,
                      double start_us, const PressureRelief& relieve = {});

  /// \brief Books `requests` as failed with `error` (error_counts and the
  /// serving.errors.<code> counter).
  void BookFailure(const Status& error, int64_t requests);
  void BookDegraded(int64_t requests) {
    stats_->degraded += requests;
    CountMetric("serving.degraded", requests);
  }
  /// \brief Books the real vs padded tokens of one launch; returns its
  /// padding waste in percent.
  double AddTokens(int64_t real, int64_t padded);
  /// \brief Records a completed request; DISC_CHECKs that its ledger sums
  /// to record.e2e_us.
  void Complete(CompletedRequest record);

  /// completed + shed + deadline_missed + failed so far.
  int64_t accounted() const {
    return stats_->completed + stats_->shed + stats_->deadline_missed +
           stats_->failed;
  }

  /// \brief Fills percentiles, mean, throughput over `clock_us`, padding
  /// fraction, plan-hit rate and kernel deltas; DISC_CHECKs accounting.
  void Finalize(double clock_us);

 private:
  Engine* engine_;
  const DeviceSpec& device_;
  const ReplayOptions& options_;
  const char* loop_;
  ServingStats* stats_;
  const EngineStats engine_before_;
  Counter* launch_counter_;
  Counter* memory_bound_counter_;
  const int64_t launches_before_;
  const int64_t memory_bound_before_;
  std::vector<double> latencies_;
  int64_t real_tokens_ = 0;
  int64_t padded_tokens_ = 0;
};

}  // namespace disc

#endif  // DISC_SERVING_REPLAY_CORE_H_
