// Serving simulation: dynamic batching over a single simulated GPU.
//
// Production inference (the paper's deployment context) doesn't see one
// query at a time — a batcher groups concurrent requests. Batching forces
// padding *within* a batch (all sequences in one launch share S), and the
// padding policy is where shape flexibility pays off:
//   * kBatchMax   — pad only to the longest request in the batch; needs a
//                   compiler that accepts ANY (B, S) — i.e. DISC;
//   * kBucketPow2 — pad (B, S) up to powers of two; what static engines
//                   with a bucket grid must do;
//   * kNone       — no batching: every request runs alone (eager-style).
// The simulator advances a single-device clock: batches execute serially,
// requests accumulate queueing + execution latency; reported percentiles
// include both.
//
// The simulator degrades instead of dying (the launch ladder, failure
// booking and accounting are the replay core's, serving/replay_core.h,
// shared with decode). A query failure is not the end of the replay:
// retryable errors (Status::IsRetryable — unavailable,
// resource-exhausted) are retried with exponential backoff on the
// simulated clock, batches arriving to an over-deep queue are shed,
// requests whose deadline passed before launch are dropped pre-execution,
// and only a non-retryable exhaustion of retries marks a batch failed.
// Every request is accounted for exactly once:
//   submitted == completed + shed + deadline_missed + failed.
#ifndef DISC_SERVING_SERVING_H_
#define DISC_SERVING_SERVING_H_

#include <functional>
#include <vector>

#include "baselines/engine.h"
#include "serving/replay_core.h"
#include "support/status.h"

namespace disc {

/// One inference request.
struct Request {
  int64_t id = 0;
  int64_t seq_len = 1;
  double arrival_us = 0.0;
  /// Absolute simulated-time deadline; 0 = none. A request whose deadline
  /// has already passed when its batch launches is dropped pre-execution
  /// and counted in ServingStats::deadline_missed. A request that launches
  /// in time but completes late still counts completed — the simulator
  /// models a server that cannot recall work already on the device.
  double deadline_us = 0.0;
  /// Causal-trace id, minted by SimulateServing at submit (0 = unminted).
  /// Carried through batch formation into engine-query and compile-service
  /// spans, and printed by every retained flight record / histogram
  /// exemplar, so a tail sample links back to its full span tree.
  uint64_t trace_id = 0;
};

enum class PadPolicy {
  kNone,       // no batching, one request per launch
  kBatchMax,   // pad to the batch's longest sequence
  kBucketPow2, // pad batch and sequence to powers of two
};

const char* PadPolicyName(PadPolicy policy);

/// Request-level batching options. From ReplayOptions: `max_batch` caps a
/// batch; `max_queue_depth` sheds a whole batch when the queue depth at its
/// launch — arrived but not yet accounted requests — exceeds it;
/// `memory_limit_bytes` sheds a batch whose predicted peak footprint for
/// its padded shape exceeds it, instead of discovering ResourceExhausted
/// mid-run (engines without a prediction always admit).
struct BatcherOptions : ReplayOptions {
  /// A batch launches when full or when its oldest request has waited this
  /// long.
  double max_wait_us = 2000.0;
  PadPolicy pad = PadPolicy::kBatchMax;
};

/// One formed batch: the requests plus the padded launch shape.
struct Batch {
  std::vector<Request> requests;
  int64_t padded_batch = 0;
  int64_t padded_seq = 0;
  double ready_us = 0.0;  // when the batch could start (arrivals + wait)
};

/// \brief Groups requests into batches under the policy. Arrivals are
/// sorted internally by (arrival, effective deadline, id) — a total order,
/// so equal-arrival/equal-deadline requests batch identically for every
/// input permutation (decode traces replay byte-stable). Callers need not
/// pre-sort. Pure function — exposed for testing.
std::vector<Batch> FormBatches(const std::vector<Request>& requests,
                               const BatcherOptions& options);

/// Maps a padded (batch, seq) to the engine's input shapes.
using ShapeFn =
    std::function<std::vector<std::vector<int64_t>>(int64_t batch, int64_t seq)>;

/// \brief Replays the request stream through `engine` on one device.
/// `engine` must already be Prepared. Announces the simulated clock to the
/// engine (Engine::SetSimulatedTimeUs) before every attempt so time-based
/// engine state (circuit breakers) advances deterministically. Individual
/// query failures degrade the replay (see header comment) rather than
/// failing it; an error return means the simulation itself is broken.
Result<ServingStats> SimulateServing(Engine* engine, const ShapeFn& shape_fn,
                                     const std::vector<Request>& requests,
                                     const BatcherOptions& options,
                                     const DeviceSpec& device);

/// \brief Poisson-ish request stream with Zipf-ish sequence lengths.
std::vector<Request> SyntheticRequestStream(int64_t count, double mean_gap_us,
                                            uint64_t seed);

}  // namespace disc

#endif  // DISC_SERVING_SERVING_H_
