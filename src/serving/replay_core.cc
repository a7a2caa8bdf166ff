#include "serving/replay_core.h"

#include <algorithm>
#include <cmath>

#include "support/logging.h"
#include "support/math_util.h"
#include "support/string_util.h"

namespace disc {

std::string ServingStats::ToString() const {
  std::string s = StrFormat(
      "p50=%.0fus p95=%.0fus p99=%.0fus mean=%.0fus qps=%.0f "
      "pad_waste=%.0f%% batches=%lld plan_hits=%.0f%%",
      p50_us, p95_us, p99_us, mean_us, throughput_qps,
      padded_token_fraction * 100, static_cast<long long>(batches),
      plan_hit_rate * 100);
  s += StrFormat(" ok=%lld/%lld", static_cast<long long>(completed),
                 static_cast<long long>(submitted));
  if (shed > 0) s += StrFormat(" shed=%lld", static_cast<long long>(shed));
  if (memory_shed > 0) {
    s += StrFormat(" memory_shed=%lld", static_cast<long long>(memory_shed));
  }
  if (deadline_missed > 0) {
    s += StrFormat(" deadline_missed=%lld",
                   static_cast<long long>(deadline_missed));
  }
  if (failed > 0) s += StrFormat(" failed=%lld", static_cast<long long>(failed));
  if (retries > 0) {
    s += StrFormat(" retries=%lld", static_cast<long long>(retries));
  }
  if (degraded > 0) {
    s += StrFormat(" degraded=%lld", static_cast<long long>(degraded));
  }
  if (kernel_launches > 0) {
    s += StrFormat(" kernel_launches=%lld memory_bound=%lld",
                   static_cast<long long>(kernel_launches),
                   static_cast<long long>(memory_bound_launches));
  }
  for (const auto& [code, count] : error_counts) {
    s += StrFormat(" err[%s]=%lld", code.c_str(),
                   static_cast<long long>(count));
  }
  if (decode_steps > 0) {
    s += StrFormat(
        "\n  decode: steps=%lld tokens=%lld tok/s=%.0f p50_tbt=%.1fus "
        "p99_tbt=%.1fus step_pad_waste=%.1f%% joins=%lld retires=%lld "
        "preemptions=%lld resumes=%lld kv_high_water_blocks=%lld "
        "kv_recycles=%lld",
        static_cast<long long>(decode_steps),
        static_cast<long long>(generated_tokens), tokens_per_sec, p50_tbt_us,
        p99_tbt_us, step_padding_waste * 100,
        static_cast<long long>(decode_joins),
        static_cast<long long>(decode_retires),
        static_cast<long long>(preemptions), static_cast<long long>(resumes),
        static_cast<long long>(kv_high_water_blocks),
        static_cast<long long>(kv_block_recycles));
  }
  return s;
}

// The launch counters are the runtime's per-run counters mirrored into the
// registry, so their delta across one replay is exactly the launches its
// stream caused (interpreter-degraded launches never reach ExecutePlan).
ReplayCore::ReplayCore(Engine* engine, const DeviceSpec& device,
                       const ReplayOptions& options, const char* loop,
                       ServingStats* stats)
    : engine_(engine),
      device_(device),
      options_(options),
      loop_(loop),
      stats_(stats),
      engine_before_(engine->stats()),
      launch_counter_(
          MetricsRegistry::Global().GetCounter("runtime.kernel.launches")),
      memory_bound_counter_(
          MetricsRegistry::Global().GetCounter("runtime.kernel.memory_bound")),
      launches_before_(launch_counter_->value()),
      memory_bound_before_(memory_bound_counter_->value()) {}

LaunchResult ReplayCore::Launch(
    const std::vector<std::vector<int64_t>>& shapes, double start_us,
    const PressureRelief& relieve) {
  LaunchResult launch;
  launch.first_start_us = start_us;
  launch.start_us = start_us;
  const int64_t fallback_before = engine_->stats().fallback_queries;
  // The backoff advances the simulated clock, so breaker cooldowns can
  // elapse between attempts.
  for (int64_t attempt = 0;;) {
    engine_->SetSimulatedTimeUs(launch.start_us);
    Result<EngineTiming> result = engine_->Query(shapes, device_);
    if (result.ok()) {
      launch.timing = *result;
      launch.degraded = engine_->stats().fallback_queries > fallback_before;
      return launch;
    }
    const Status& error = result.status();
    if (relieve && error.code() == StatusCode::kResourceExhausted &&
        relieve(launch.start_us, launch.backoff_us())) {
      continue;  // pressure relief, not a transient: no attempt spent
    }
    if (!error.IsRetryable() || attempt >= options_.max_retries) {
      launch.status = error;
      return launch;
    }
    ++launch.retries;
    ++stats_->retries;
    CountMetric("serving.retries");
    launch.start_us += options_.retry_backoff_us * std::pow(2.0, attempt);
    ++attempt;
  }
}

void ReplayCore::BookFailure(const Status& error, int64_t requests) {
  stats_->failed += requests;
  const std::string code = StatusCodeToString(error.code());
  stats_->error_counts[code] += requests;
  CountMetric("serving.errors." + code, requests);
}

double ReplayCore::AddTokens(int64_t real, int64_t padded) {
  real_tokens_ += real;
  padded_tokens_ += padded;
  return padded > 0 ? 100.0 * (1.0 - static_cast<double>(real) /
                                         static_cast<double>(padded))
                    : 0.0;
}

void ReplayCore::Complete(CompletedRequest record) {
  const double e2e = record.e2e_us;
  const double ledger_total = record.ledger.TotalUs();
  DISC_CHECK(std::abs(ledger_total - e2e) <= 1e-6 * std::max(1.0, e2e))
      << StrFormat("%s request %lld ledger drifted: phases sum to %.6f, "
                   "e2e is %.6f (%s)",
                   loop_, static_cast<long long>(record.request_id),
                   ledger_total, e2e, record.ledger.ToString().c_str());
  latencies_.push_back(e2e);
  stats_->completed_requests.push_back(std::move(record));
  ++stats_->completed;
}

void ReplayCore::Finalize(double clock_us) {
  ServingStats& s = *stats_;
  std::sort(latencies_.begin(), latencies_.end());
  s.p50_us = SortedPercentile(latencies_, 50);
  s.p95_us = SortedPercentile(latencies_, 95);
  s.p99_us = SortedPercentile(latencies_, 99);
  double total = 0.0;
  for (double l : latencies_) total += l;
  s.mean_us = latencies_.empty()
                  ? 0.0
                  : total / static_cast<double>(latencies_.size());
  s.throughput_qps =
      clock_us > 0 ? static_cast<double>(s.completed) / clock_us * 1e6 : 0.0;
  s.padded_token_fraction =
      padded_tokens_ > 0
          ? 1.0 - static_cast<double>(real_tokens_) /
                      static_cast<double>(padded_tokens_)
          : 0.0;
  const int64_t hits =
      engine_->stats().launch_plan_hits - engine_before_.launch_plan_hits;
  const int64_t misses =
      engine_->stats().launch_plan_misses - engine_before_.launch_plan_misses;
  s.plan_hit_rate =
      hits + misses > 0
          ? static_cast<double>(hits) / static_cast<double>(hits + misses)
          : 0.0;
  s.kernel_launches = launch_counter_->value() - launches_before_;
  s.memory_bound_launches =
      memory_bound_counter_->value() - memory_bound_before_;
  DISC_CHECK_EQ(accounted(), s.submitted) << loop_ << " accounting drifted";
}

}  // namespace disc
