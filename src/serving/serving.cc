#include "serving/serving.h"

#include <algorithm>
#include <cmath>

#include "support/flight_recorder.h"
#include "support/math_util.h"
#include "support/metrics.h"
#include "support/rng.h"
#include "support/string_util.h"
#include "support/trace.h"

namespace disc {

const char* PadPolicyName(PadPolicy policy) {
  switch (policy) {
    case PadPolicy::kNone:
      return "none";
    case PadPolicy::kBatchMax:
      return "batch-max";
    case PadPolicy::kBucketPow2:
      return "bucket-pow2";
  }
  return "?";
}

namespace {

std::vector<Request> SortedByArrival(const std::vector<Request>& requests) {
  std::vector<Request> sorted = requests;
  // A total order, so stable_sort only breaks exact duplicates by caller
  // order. Through a lambda, not a function pointer, so the comparison
  // inlines.
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Request& a, const Request& b) {
                     return ArrivesBefore(a, b);
                   });
  return sorted;
}

}  // namespace

std::vector<Batch> FormBatches(const std::vector<Request>& requests,
                               const BatcherOptions& options) {
  std::vector<Batch> batches;
  if (requests.empty()) return batches;
  const std::vector<Request> sorted = SortedByArrival(requests);

  if (options.pad == PadPolicy::kNone) {
    for (const Request& r : sorted) {
      Batch batch;
      batch.requests = {r};
      batch.padded_batch = 1;
      batch.padded_seq = r.seq_len;
      batch.ready_us = r.arrival_us;
      batches.push_back(std::move(batch));
    }
    return batches;
  }

  Batch current;
  auto flush = [&]() {
    if (current.requests.empty()) return;
    int64_t batch_size = static_cast<int64_t>(current.requests.size());
    int64_t max_seq = 0;
    double last_arrival = 0.0;
    for (const Request& r : current.requests) {
      max_seq = std::max(max_seq, r.seq_len);
      last_arrival = std::max(last_arrival, r.arrival_us);
    }
    if (options.pad == PadPolicy::kBucketPow2) {
      current.padded_batch = NextPowerOfTwo(batch_size);
      current.padded_seq = NextPowerOfTwo(max_seq);
    } else {
      current.padded_batch = batch_size;
      current.padded_seq = max_seq;
    }
    // The batch is ready when its last member arrived, or when the oldest
    // member's wait budget expires — whichever is earlier — but never
    // before the last member it actually contains arrived.
    current.ready_us = last_arrival;
    batches.push_back(std::move(current));
    current = Batch();
  };

  for (const Request& r : sorted) {
    if (!current.requests.empty()) {
      double oldest = current.requests.front().arrival_us;
      // Close the batch if adding r would exceed the oldest member's wait.
      // Strict '>': a request arriving exactly at the wait bound still
      // joins the batch (tested in serving_test).
      if (r.arrival_us - oldest > options.max_wait_us) flush();
    }
    current.requests.push_back(r);
    if (static_cast<int64_t>(current.requests.size()) >= options.max_batch) {
      flush();
    }
  }
  flush();
  return batches;
}

Result<ServingStats> SimulateServing(Engine* engine, const ShapeFn& shape_fn,
                                     const std::vector<Request>& requests,
                                     const BatcherOptions& options,
                                     const DeviceSpec& device) {
  std::vector<Request> sorted = SortedByArrival(requests);
  // Mint the causal-trace id at submit (callers may pre-assign for tests;
  // 0 means "mint here"). FormBatches copies the minted requests into the
  // batches, so the id rides along through batch formation.
  for (Request& r : sorted) {
    if (r.trace_id == 0) r.trace_id = RequestContext::MintTraceId();
  }
  std::vector<Batch> batches = FormBatches(sorted, options);
  ServingStats stats;
  stats.batches = static_cast<int64_t>(batches.size());
  stats.submitted = static_cast<int64_t>(sorted.size());
  ReplayCore core(engine, device, options, "serving", &stats);
  TraceSession& trace = TraceSession::Global();
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram* queue_wait_hist = registry.GetHistogram("serving.queue_wait_us");
  Histogram* queue_depth_hist = registry.GetHistogram(
      "serving.queue_depth", {1, 2, 4, 8, 16, 32, 64, 128});
  Histogram* batch_size_hist = registry.GetHistogram(
      "serving.batch_size", {1, 2, 4, 8, 16, 32, 64});
  Histogram* pad_waste_hist = registry.GetHistogram(
      "serving.padding_waste_pct", {0, 5, 10, 20, 30, 40, 50, 75, 100});
  // End-to-end per-request latency; exemplars carry the trace ids the
  // flight recorder retained evidence for (see Histogram::Observe).
  Histogram* latency_hist = registry.GetHistogram("serving.request_latency_us");
  FlightRecorder& recorder = FlightRecorder::Global();
  CountMetric("serving.requests", stats.submitted);
  CountMetric("serving.batches", stats.batches);

  double clock_us = 0.0;
  // Queue depth at batch launch = arrived - accounted. Requests are sorted
  // by arrival and batches launch in order, so both counts are running
  // cursors over the simulated clock.
  size_t arrived_cursor = 0;
  for (const Batch& batch : batches) {
    const int64_t n = static_cast<int64_t>(batch.requests.size());
    // The launch attempt before any retry backoff.
    const double first_start = std::max(clock_us, batch.ready_us);

    while (arrived_cursor < sorted.size() &&
           sorted[arrived_cursor].arrival_us <= first_start) {
      ++arrived_cursor;
    }
    const int64_t depth =
        static_cast<int64_t>(arrived_cursor) - core.accounted();
    queue_depth_hist->Observe(static_cast<double>(depth));

    // Load shedding: an over-deep queue means the device has fallen behind
    // (e.g. every batch is paying a degraded-path stall); dropping whole
    // batches bounds the latency of the requests that remain.
    if (options.max_queue_depth > 0 && depth > options.max_queue_depth) {
      stats.shed += n;
      CountMetric("serving.shed", n);
      if (trace.enabled()) {
        trace.AddCompleteEvent(
            "shed", "serving.batch", first_start, /*dur_us=*/-1.0,
            TraceSession::kSimPid, /*tid=*/0,
            {{"requests", std::to_string(n)},
             {"queue_depth", std::to_string(depth)}});
      }
      continue;
    }

    // Deadline admission check: requests already past their deadline at
    // launch are dropped before the device is committed to them.
    std::vector<const Request*> live;
    live.reserve(batch.requests.size());
    for (const Request& r : batch.requests) {
      if (r.deadline_us > 0.0 && r.deadline_us < first_start) {
        ++stats.deadline_missed;
        CountMetric("serving.deadline_missed");
      } else {
        live.push_back(&r);
      }
    }
    if (live.empty()) continue;
    const int64_t live_n = static_cast<int64_t>(live.size());

    // Activate a request context for the batch's oldest live request so
    // the synchronous call chain below — PredictPeakBytes, engine Query,
    // Executable::Run spans, compile-service Submit — can attribute its
    // work to a concrete trace id (CurrentTraceId()).
    RequestContext batch_context(live.front()->trace_id);
    RequestContextScope context_scope(&batch_context);

    const auto shapes = shape_fn(batch.padded_batch, batch.padded_seq);
    const std::string signature =
        StrFormat("%lldx%lld", static_cast<long long>(batch.padded_batch),
                  static_cast<long long>(batch.padded_seq));

    // Memory-aware admission: evaluate the engine's symbolic peak formula
    // for the batch's padded shape and shed the batch when it would not
    // fit, instead of committing the device and failing mid-run. A failed
    // prediction admits — the run-time limit check is still in place.
    if (options.memory_limit_bytes > 0) {
      Result<int64_t> predicted = engine->PredictPeakBytes(shapes);
      if (predicted.ok() && *predicted > options.memory_limit_bytes) {
        stats.shed += live_n;
        stats.memory_shed += live_n;
        CountMetric("serving.shed", live_n);
        CountMetric("serving.memory_shed", live_n);
        if (trace.enabled()) {
          trace.AddCompleteEvent(
              "memory-shed", "serving.batch", first_start, /*dur_us=*/-1.0,
              TraceSession::kSimPid, /*tid=*/0,
              {{"requests", std::to_string(live_n)},
               {"predicted_peak_bytes", std::to_string(*predicted)},
               {"memory_limit_bytes",
                std::to_string(options.memory_limit_bytes)}});
        }
        continue;
      }
    }

    const LaunchResult launch = core.Launch(shapes, first_start);
    const double start = launch.start_us;
    if (!launch.ok()) {
      core.BookFailure(launch.status, live_n);
      clock_us = std::max(clock_us, start);
      if (trace.enabled()) {
        trace.AddCompleteEvent(
            "batch-failed", "serving.batch", start, /*dur_us=*/-1.0,
            TraceSession::kSimPid, /*tid=*/0,
            {{"requests", std::to_string(live_n)},
             {"error", launch.status.ToString()}});
      }
      continue;
    }
    const EngineTiming& timing = launch.timing;
    const double done = launch.done_us();
    clock_us = done;
    if (launch.degraded) core.BookDegraded(live_n);

    batch_size_hist->Observe(static_cast<double>(live_n));

    int64_t batch_real_tokens = 0;
    for (const Request* r : live) {
      const double e2e = done - r->arrival_us;
      batch_real_tokens += r->seq_len;
      queue_wait_hist->Observe(start - r->arrival_us);
      latency_hist->Observe(e2e, r->trace_id);

      // Itemized causal decomposition of this request's latency. The
      // serving segments (batch_form / queue) are geometry of the
      // simulated timeline; the launch charges backoff and the engine's
      // component timings — so the core's ledger check also pins the
      // engine invariant total == device + host + compile + alloc.
      PhaseLedger ledger;
      ledger.batch_form_us = batch.ready_us - r->arrival_us;
      ledger.queue_us = first_start - batch.ready_us;
      launch.Charge(&ledger);
      core.Complete({.trace_id = r->trace_id,
                     .request_id = r->id,
                     .signature = signature,
                     .arrival_us = r->arrival_us,
                     .e2e_us = e2e,
                     .ledger = ledger,
                     .degraded = launch.degraded,
                     .retries = launch.retries});
    }

    if (recorder.enabled()) {
      // One lock + one signature lookup per batch; annotation strings are
      // only built if the recorder actually retains an outlier.
      const size_t first_new = stats.completed_requests.size() - live.size();
      recorder.ObserveBatch(
          signature, done, &stats.completed_requests[first_new], live.size(),
          [&]() -> std::vector<std::pair<std::string, std::string>> {
            return {{"shape", signature},
                    {"policy", PadPolicyName(options.pad)},
                    {"retries", std::to_string(launch.retries)},
                    {"degraded", launch.degraded ? "1" : "0"},
                    {"compile_stall_us", StrFormat("%.1f", timing.compile_us)}};
          });
    }
    const double batch_waste_pct = core.AddTokens(
        batch_real_tokens, batch.padded_batch * batch.padded_seq);
    pad_waste_hist->Observe(batch_waste_pct);

    if (trace.enabled()) {
      // Simulated-clock timeline (pid kSimPid): the batch execution span,
      // and per request a span from arrival to completion split into
      // batch-formation wait, device-queue wait, and execution.
      trace.AddCompleteEvent(
          "batch", "serving.batch", start, timing.total_us,
          TraceSession::kSimPid, /*tid=*/0,
          {{"shape", signature},
           {"requests", std::to_string(live_n)},
           {"pad_waste_pct", StrFormat("%.0f", batch_waste_pct)},
           {"policy", PadPolicyName(options.pad)}});
      for (const Request* r : live) {
        // One row (tid) per in-flight slot keeps overlapping requests
        // readable; rows cycle, the id arg disambiguates.
        const int tid = 1 + static_cast<int>(r->id % 16);
        std::vector<TraceArg> args = {
            {"id", std::to_string(r->id)},
            {"trace_id", std::to_string(r->trace_id)},
            {"seq_len", std::to_string(r->seq_len)}};
        trace.AddCompleteEvent("request", "serving.request", r->arrival_us,
                               done - r->arrival_us, TraceSession::kSimPid,
                               tid, std::move(args));
        if (batch.ready_us > r->arrival_us) {
          trace.AddCompleteEvent("batch-form", "serving.request",
                                 r->arrival_us,
                                 batch.ready_us - r->arrival_us,
                                 TraceSession::kSimPid, tid);
        }
        if (first_start > batch.ready_us) {
          trace.AddCompleteEvent("queue", "serving.request", batch.ready_us,
                                 first_start - batch.ready_us,
                                 TraceSession::kSimPid, tid);
        }
        if (start > first_start) {
          trace.AddCompleteEvent("backoff", "serving.request", first_start,
                                 start - first_start, TraceSession::kSimPid,
                                 tid);
        }
        trace.AddCompleteEvent("execute", "serving.request", start,
                               timing.total_us, TraceSession::kSimPid, tid);
      }
    }
  }

  core.Finalize(clock_us);
  return stats;
}

std::vector<Request> SyntheticRequestStream(int64_t count, double mean_gap_us,
                                            uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> requests;
  double clock = 0.0;
  const std::vector<int64_t> lengths = {64, 32, 96, 17, 128, 48, 80, 24};
  std::vector<double> weights(lengths.size());
  for (size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
  }
  for (int64_t i = 0; i < count; ++i) {
    // Exponential-ish gap via inverse transform on a uniform sample.
    double u = std::max(1e-6, 1.0 - rng.Uniform());
    clock += -mean_gap_us * std::log(u);
    Request r;
    r.id = i;
    r.seq_len = lengths[rng.Categorical(weights)];
    r.arrival_us = clock;
    requests.push_back(r);
  }
  return requests;
}

}  // namespace disc
