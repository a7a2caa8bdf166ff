// Shared machinery of the wall-clock benchmark runner: the clock, seeded
// draws, in-memory layer spans with self-time accounting, percentiles and
// the metric sink. Workloads (workloads.h) plug into the op loop in
// runner.cc through the Workload interface below.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/status.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64 finalizer: derives independent per-op seeds from the run seed.
uint64_t Mix(uint64_t a, uint64_t b);

/// \brief Seeded balanced op order: ops are taken in blocks of `n`, each
/// block a seeded permutation of 0..n-1, so every kind of op appears
/// equally often whatever the seed.
class BlockOrder {
 public:
  BlockOrder(uint64_t seed, size_t n) : seed_(seed), perm_(n) {}
  size_t At(int64_t op);

 private:
  uint64_t seed_;
  std::vector<size_t> perm_;
  int64_t block_ = -1;
};

/// \brief Machine-speed gauge. Shared hosts change speed from second to
/// second as neighbours load the same cores; a fixed CPU kernel timed
/// between ops tracks that speed. Wall times are scaled by Factor(), so
/// they read as times on a machine where the kernel takes kReferenceNs.
class SpeedGauge {
 public:
  static constexpr double kReferenceNs = 180000.0;
  SpeedGauge();
  /// Runs the kernel once and records its time.
  void Measure();
  /// kReferenceNs over the median of the last `recent` kernel times.
  double Factor(size_t recent = 5) const;
  /// Median factor over every measurement so far.
  double MedianFactor() const;

 private:
  std::vector<uint32_t> buffer_;
  std::vector<double> times_ns_;
  uint64_t state_ = 0x9e3779b97f4a7c15ULL;
};

/// \brief Log-bucketed histogram of positive samples: fixed memory however
/// long the run (so peak RSS does not grow with it), quantiles within 0.05%.
class Histogram {
 public:
  Histogram();
  void Add(double value);
  /// Quantile (q in [0, 1]) by rank over the samples, as Quantile() below.
  double Quantile(double q) const;
  int64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  std::vector<int64_t> buckets_;
  int64_t count_ = 0;
  double sum_ = 0.0;
};

/// Linear-interpolated quantile (q in [0, 1]) of `values` (copied, sorted).
double Quantile(std::vector<double> values, double q);

/// \brief Layer spans of one run, kept in memory.
///
/// Each op is one root span ("bench.op"). Workloads open child spans around
/// their calls into the program's layers (ScopedSpan) and attach derived
/// children for time the program itself reports (RunProfile::host_plan_us,
/// CompileReport::phase_ms), laid out from the parent's start. When the op
/// ends, every span's self time (its duration minus its children's) is
/// added to its layer, after checking that children nest inside their
/// parent without overlapping, so the self times of an op sum exactly to
/// its wall time. Root self time is `bench.unattributed`.
class Tracer {
 public:
  struct Span {
    int32_t layer = 0;
    int32_t parent = -1;
    int64_t op = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    bool derived = false;
  };
  struct LayerTotals {
    int64_t spans = 0;
    double dur_ns = 0;
    double self_ns = 0;
  };

  Tracer();

  /// Interns a layer name; call outside the timed loop.
  int Layer(const std::string& name);

  void BeginOp(int64_t op, int64_t start_ns);
  /// Closes the op's root span and adds its spans to the layer totals,
  /// scaled by the speed factor; returns an error if they did not nest.
  disc::Status EndOp(int64_t end_ns, double factor);

  int Open(int layer);
  void Close(int span);
  /// Adds a child of the innermost open span, starting at `start_ns`.
  void AddDerived(int layer, int64_t start_ns, int64_t dur_ns);
  int64_t start_of(int span) const { return op_spans_[span].start_ns; }

  const std::vector<std::string>& layer_names() const { return names_; }
  const LayerTotals& totals(int layer) const { return totals_[layer]; }
  int64_t ops() const { return ops_; }
  int64_t dropped_spans() const { return dropped_; }

  /// Writes the retained spans as a Chrome trace (ph "X" events).
  disc::Status WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  std::vector<LayerTotals> totals_;
  std::vector<Span> op_spans_;
  std::vector<int> stack_;
  std::vector<Span> retained_;
  int64_t dropped_ = 0;
  int64_t ops_ = 0;
  int64_t op_ = 0;
};

/// RAII child span; a no-op when `tracer` is null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, int layer)
      : tracer_(tracer), span_(tracer ? tracer->Open(layer) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t start_ns() const { return tracer_->start_of(span_); }

 private:
  Tracer* tracer_;
  int span_;
};

/// Named metrics with units, in insertion order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }
  double Get(const std::string& name) const;

 private:
  std::vector<Metric> items_;
};

/// Everything a workload reports besides per-op wall times.
struct WorkloadReport {
  /// Modeled end-to-end metrics (deterministic for a seed).
  MetricSet modeled;
  /// Per-layer counts and ratios over the deterministic window, plus
  /// modeled serving/decode figures (deterministic for a seed).
  MetricSet counts;
};

/// \brief One benchmark workload. The runner constructs it, times Setup,
/// then drives ops 0, 1, 2, ... : Prepare (untimed) -> Run (timed) ->
/// Check (untimed).
class Workload {
 public:
  virtual ~Workload() = default;
  /// Model build, compilation of every executable the workload uses, and
  /// warm-up. Timed as setup_s.
  virtual disc::Status Setup() = 0;
  /// One-time output checks against the reference evaluator and the
  /// modeled audit replays, after setup and before the timed phase.
  virtual disc::Status Verify() = 0;
  /// Ops whose counts form the deterministic window.
  virtual int64_t window_ops() const = 0;
  /// Generates op `op`'s inputs from the seed.
  virtual void Prepare(int64_t op) = 0;
  /// The timed call(s). `tracer` is null on untraced ops.
  virtual disc::Status Run(int64_t op, Tracer* tracer) = 0;
  /// Checks op `op`'s outputs and, inside the window, accumulates counts.
  virtual disc::Status Check(int64_t op) = 0;
  /// Layer names the workload records (interned before the timed phase).
  virtual void RegisterLayers(Tracer* tracer) = 0;
  /// Fills modeled metrics and window counts.
  virtual void Report(WorkloadReport* report) const = 0;
  /// Percentile reported as latency_tail_us (fraction, e.g. 0.99).
  virtual double tail_quantile() const = 0;
  /// Kind of the op last prepared (its model), so the tracing overhead
  /// compares traced and untraced ops of the same kind.
  virtual int op_class() const { return 0; }
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
