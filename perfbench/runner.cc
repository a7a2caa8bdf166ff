// perfbench_runner: runs one benchmark workload for a fixed wall time and
// prints its metrics. Normally started by run.py, which builds it first:
//
//   perfbench_runner --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans-out <path>]
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// report the per-layer metrics. Both print a DETERMINISM line holding the
// modeled metrics and window counts, which must repeat exactly for a seed.
// The last line of stdout is the result object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 1 when any output check failed.
#include <sys/resource.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 7;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && argc % 2 == 1;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "numeric") return MakeNumeric(seed);
  if (name == "shape_storm") return MakeShapeStorm(seed);
  if (name == "serving_replay") return MakeServingReplay(seed);
  if (name == "compile_churn") return MakeCompileChurn(seed);
  return nullptr;
}

// Per-layer metrics, in the order of BENCHMARK.json. Metrics a workload
// does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"compiler.compile_us", "us"},
      {"opt.graph_passes_us", "us"},
      {"shape.analysis_us", "us"},
      {"fusion.planning_us", "us"},
      {"kernel.compile_us", "us"},
      {"compiler.step_schedule_us", "us"},
      {"runtime.buffer_assignment_us", "us"},
      {"runtime.memory_planning_us", "us"},
      {"compiler.unattributed_us", "us"},
      {"opt.nodes_removed", "count"},
      {"fusion.stitch_groups", "count"},
      {"kernel.kernels", "count"},
      {"kernel.variants", "count"},
      {"runtime.run_us", "us"},
      {"runtime.host_plan_us", "us"},
      {"runtime.execute_us", "us"},
      {"runtime.plan_hit_ratio", "ratio"},
      {"runtime.plan_lookups", "count"},
      {"runtime.plan_evictions", "count"},
      {"runtime.alloc_calls", "count"},
      {"runtime.alloc_cache_hit_ratio", "ratio"},
      {"runtime.run_us.bert", "us"},
      {"runtime.run_us.seq2seq-step", "us"},
      {"runtime.run_us.crnn", "us"},
      {"runtime.run_us.fastspeech2", "us"},
      {"runtime.run_us.dlrm", "us"},
      {"runtime.run_us.mlp", "us"},
      {"kernel.launches", "count"},
      {"kernel.library_calls", "count"},
      {"kernel.memory_bound_launches", "count"},
      {"kernel.bytes_moved", "bytes"},
      {"sim.device_us", "us"},
      {"engine.query_us", "us"},
      {"engine.predict_us", "us"},
      {"engine.plan_hit_ratio", "ratio"},
      {"engine.queries", "count"},
      {"serving.replay_us", "us"},
      {"serving.self_us", "us"},
      {"serving.batches", "count"},
      {"serving.padded_token_fraction", "ratio"},
      {"serving.modeled_goodput_per_s", "1/s"},
      {"decode.replay_us", "us"},
      {"decode.self_us", "us"},
      {"decode.self_us_per_step", "us"},
      {"decode.steps", "count"},
      {"decode.step_padding_waste", "ratio"},
      {"decode.preemptions", "count"},
      {"decode.kv_high_water_blocks", "count"},
      {"decode.modeled_tbt_p99_us", "us"},
      {"decode.modeled_tokens_per_s", "1/s"},
      {"bench.op_us", "us"},
      {"bench.unattributed_us", "us"},
      {"bench.trace_overhead_pct", "%"},
      {"bench.traced_ops", "count"},
  };
  return kMetrics;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Determinism guard: a fresh instance with the same seed must reproduce the
/// modeled metrics and window counts bit for bit. (run.py also compares
/// them across processes.)
disc::Status ReplayWindow(const Args& args, const WorkloadReport& want) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  DISC_RETURN_IF_ERROR(workload->Setup());
  DISC_RETURN_IF_ERROR(workload->Verify());
  for (int64_t op = 0; op < workload->window_ops(); ++op) {
    workload->Prepare(op);
    DISC_RETURN_IF_ERROR(workload->Run(op, nullptr));
    DISC_RETURN_IF_ERROR(workload->Check(op));
  }
  WorkloadReport got;
  workload->Report(&got);
  for (auto [a, b] : {std::pair{&want.modeled, &got.modeled},
                      std::pair{&want.counts, &got.counts}}) {
    if (a->items().size() != b->items().size()) {
      return disc::Status::Internal("replay reported a different metric set");
    }
    for (size_t i = 0; i < a->items().size(); ++i) {
      const Metric& x = a->items()[i];
      const Metric& y = b->items()[i];
      if (x.name != y.name || std::memcmp(&x.value, &y.value, sizeof(double))) {
        return disc::Status::Internal(
            "replay with the same seed changed " + x.name + ": " +
            std::to_string(x.value) + " vs " + std::to_string(y.value));
      }
    }
  }
  return disc::Status::OK();
}

/// Per-traced-op wall metrics derived from the layer spans.
void LayerTimes(const Tracer& tracer, MetricSet* out) {
  double ops = tracer.ops() > 0 ? static_cast<double>(tracer.ops()) : 1.0;
  std::map<std::string, const Tracer::LayerTotals*> by_name;
  for (size_t i = 0; i < tracer.layer_names().size(); ++i) {
    by_name[tracer.layer_names()[i]] = &tracer.totals(static_cast<int>(i));
  }
  auto dur = [&](const std::string& layer) {
    auto it = by_name.find(layer);
    return it == by_name.end() ? 0.0
                               : static_cast<double>(it->second->dur_ns) /
                                     1000.0 / ops;
  };
  auto self = [&](const std::string& layer) {
    auto it = by_name.find(layer);
    return it == by_name.end() ? 0.0
                               : static_cast<double>(it->second->self_ns) /
                                     1000.0 / ops;
  };
  out->Set("compiler.compile_us", dur("compiler.compile"), "us");
  for (const char* phase :
       {"opt.graph_passes", "shape.analysis", "fusion.planning",
        "kernel.compile", "compiler.step_schedule", "runtime.buffer_assignment",
        "runtime.memory_planning"}) {
    out->Set(std::string(phase) + "_us", dur(phase), "us");
  }
  out->Set("compiler.unattributed_us", self("compiler.compile"), "us");
  double run = 0.0;
  double execute = 0.0;
  for (const std::string& model : SuiteModelNames()) {
    std::string layer = "runtime.run." + model;
    run += dur(layer);
    execute += self(layer);
    auto it = by_name.find(layer);
    double per_call =
        it == by_name.end() || it->second->spans == 0
            ? 0.0
            : static_cast<double>(it->second->dur_ns) / 1000.0 /
                  static_cast<double>(it->second->spans);
    out->Set("runtime.run_us." + model, per_call, "us");
  }
  out->Set("runtime.run_us", run, "us");
  out->Set("runtime.host_plan_us", dur("runtime.host_plan"), "us");
  out->Set("runtime.execute_us", execute, "us");
  out->Set("engine.query_us", dur("engine.query"), "us");
  out->Set("engine.predict_us", dur("engine.predict"), "us");
  out->Set("serving.replay_us", dur("serving.replay"), "us");
  out->Set("serving.self_us", self("serving.replay"), "us");
  out->Set("decode.replay_us", dur("decode.replay"), "us");
  out->Set("decode.self_us", self("decode.replay"), "us");
  out->Set("bench.op_us", dur("bench.op"), "us");
  out->Set("bench.unattributed_us", self("bench.op"), "us");
  out->Set("bench.traced_ops", static_cast<double>(tracer.ops()), "count");
}

/// Reports (does not enforce) whether the traced run shows the workload
/// doing the work it was chosen for; see README.md.
void PrintPurpose(const std::string& workload, const MetricSet& m) {
  auto share = [&](const char* part, const char* whole) {
    double w = m.Get(whole);
    return w > 0 ? m.Get(part) / w : 0.0;
  };
  const char* what = nullptr;
  double value = 0.0, floor = 0.0;
  if (workload == "shape_storm") {
    what = "runtime.host_plan_us / runtime.run_us";
    value = share("runtime.host_plan_us", "runtime.run_us");
    floor = 0.70;
  } else if (workload == "numeric") {
    what = "runtime.plan_hit_ratio";
    value = m.Get("runtime.plan_hit_ratio");
    floor = 0.99;
  } else if (workload == "serving_replay") {
    what = "engine.query_us / bench.op_us";
    value = share("engine.query_us", "bench.op_us");
    floor = 0.50;
  } else {
    what = "compiler.compile_us / bench.op_us";
    value = share("compiler.compile_us", "bench.op_us");
    floor = 0.95;
  }
  std::printf("purpose %s: %s = %.4f (want >= %.2f): %s\n", workload.c_str(),
              what, value, floor, value >= floor ? "ok" : "NOT MET");
}

void PrintMetricsJson(const std::vector<Metric>& metrics, std::string* out) {
  *out += "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    *out += buf;
  }
  *out += "}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload <numeric|shape_storm|"
                 "serving_replay|compile_churn> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <path>]\n");
    return 2;
  }
  if (MakeWorkload(args.workload, args.seed) == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  auto fail = [&](const std::string& what, const disc::Status& status) {
    correct = false;
    std::fprintf(stderr, "FAIL %s: %s\n", what.c_str(),
                 status.ToString().c_str());
  };

  // Set-up, repeated; the last instance is kept for the timed phase. Each
  // set-up is scaled by the machine speed gauged around it.
  SpeedGauge gauge;
  constexpr int kGaugeRuns = 5;
  std::vector<double> setup_s;
  std::vector<double> raw_setup_s;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < kSetups; ++k) {
    workload.reset();
    workload = MakeWorkload(args.workload, args.seed);
    for (int g = 0; g < kGaugeRuns; ++g) gauge.Measure();
    int64_t t0 = NowNs();
    disc::Status status = workload->Setup();
    double seconds = static_cast<double>(NowNs() - t0) * 1e-9;
    for (int g = 0; g < kGaugeRuns; ++g) gauge.Measure();
    raw_setup_s.push_back(seconds);
    setup_s.push_back(seconds * gauge.Factor(2 * kGaugeRuns));
    if (!status.ok()) {
      fail("setup", status);
      return 1;
    }
  }
  if (disc::Status status = workload->Verify(); !status.ok()) {
    fail("verify", status);
    return 1;
  }

  Tracer tracer;
  workload->RegisterLayers(&tracer);

  // Timed phase. Ops past the deadline only complete the deterministic
  // window (slow machines) and are not timed. A traced run alternates
  // traced and untraced blocks to measure the tracing overhead. The speed
  // gauge runs between ops every few milliseconds; each op's wall time is
  // scaled by the speed gauged just before it.
  const int64_t kBlockNs = 250'000'000;
  const int64_t kGaugeEveryNs = 5'000'000;
  for (int g = 0; g < kGaugeRuns; ++g) gauge.Measure();
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  int64_t next_gauge = start + kGaugeEveryNs;
  Histogram latency_us;      // scaled
  Histogram raw_latency_us;  // as measured, for the summary line
  // Per op class: {traced ns, traced ops, untraced ns, untraced ops}.
  std::map<int, std::array<double, 4>> by_class;
  int64_t traced_ops = 0, untraced_ops = 0;
  for (int64_t op = 0;; ++op) {
    int64_t now = NowNs();
    bool timed = now < deadline;
    if (!timed && op >= workload->window_ops()) break;
    if (timed && now >= next_gauge) {
      gauge.Measure();
      next_gauge = NowNs() + kGaugeEveryNs;
    }
    const double factor = gauge.Factor();
    workload->Prepare(op);
    bool traced = args.trace && timed && ((now - start) / kBlockNs) % 2 == 0;
    int64_t t0 = NowNs();
    if (traced) tracer.BeginOp(op, t0);
    disc::Status status = workload->Run(op, traced ? &tracer : nullptr);
    int64_t t1 = NowNs();
    if (traced) {
      if (disc::Status spans = tracer.EndOp(t1, factor); !spans.ok()) {
        fail("spans", spans);
      }
    }
    ++attempted;
    if (status.ok()) status = workload->Check(op);
    if (!status.ok()) {
      if (failed < 5) fail("op " + std::to_string(op), status);
      ++failed;
      correct = false;
      continue;
    }
    if (!timed) continue;
    raw_latency_us.Add(static_cast<double>(t1 - t0) / 1000.0);
    double ns = static_cast<double>(t1 - t0) * factor;
    latency_us.Add(ns / 1000.0);
    std::array<double, 4>& c = by_class[workload->op_class()];
    c[traced ? 0 : 2] += ns;
    c[traced ? 1 : 3] += 1.0;
    ++(traced ? traced_ops : untraced_ops);
  }

  WorkloadReport report;
  workload->Report(&report);
  std::vector<Metric> metrics;
  double tail_q = workload->tail_quantile();
  if (!args.trace) {
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    double busy_s = latency_us.sum() * 1e-6;
    MetricSet e2e;
    e2e.Set("setup_s", Median(setup_s), "s");
    e2e.Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
    e2e.Set("throughput_per_s",
            busy_s > 0 ? static_cast<double>(latency_us.count()) / busy_s : 0.0,
            "1/s");
    e2e.Set("latency_p50_us", latency_us.Quantile(0.5), "us");
    e2e.Set("latency_tail_us", latency_us.Quantile(tail_q), "us");
    for (const Metric& m : report.modeled.items()) e2e.Set(m.name, m.value, m.unit);
    metrics = e2e.items();
  } else {
    MetricSet layers;
    LayerTimes(tracer, &layers);
    for (const Metric& m : report.counts.items()) layers.Set(m.name, m.value, m.unit);
    double steps = layers.Get("decode.steps");
    layers.Set("decode.self_us_per_step",
               steps > 0 ? layers.Get("decode.self_us") / steps : 0.0, "us");
    // Traced against untraced mean op time, per op class, weighted by the
    // class's op count.
    double weighted = 0.0, weight = 0.0;
    for (const auto& [cls, c] : by_class) {
      if (c[1] == 0 || c[3] == 0) continue;
      double n = c[1] + c[3];
      weighted += n * (c[0] / c[1]) / (c[2] / c[3]);
      weight += n;
    }
    layers.Set("bench.trace_overhead_pct",
               weight > 0 ? 100.0 * (weighted / weight - 1.0) : 0.0, "%");
    // Unattributed time is the share of op wall time no layer span covers.
    double op_us = layers.Get("bench.op_us");
    double unattributed = op_us > 0 ? layers.Get("bench.unattributed_us") / op_us
                                    : 1.0;
    if (unattributed >= 0.05) {
      fail("spans", disc::Status::Internal(
                        "bench.unattributed_us is " +
                        std::to_string(100.0 * unattributed) +
                        "% of op wall time (limit 5%)"));
    }
    for (const auto& [name, unit] : PerLayerMetrics()) {
      metrics.push_back({name, layers.Get(name), unit});
    }
    PrintPurpose(args.workload, layers);
    if (!args.spans_out.empty()) {
      if (disc::Status s = tracer.WriteChromeTrace(args.spans_out); !s.ok()) {
        fail("spans-out", s);
      }
    }
  }

  workload.reset();
  if (disc::Status status = ReplayWindow(args, report); !status.ok()) {
    fail("determinism", status);
  }

  // Human-readable summary, then the determinism record, then the result.
  size_t beyond = static_cast<size_t>(
      std::floor((1.0 - tail_q) * static_cast<double>(latency_us.count())));
  std::printf("workload %s seed %llu: %lld ops timed, %lld attempted, "
              "%lld failed; tail = p%.1f with %zu samples beyond; setups %d "
              "(median of %zu)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<long long>(latency_us.count()),
              static_cast<long long>(attempted),
              static_cast<long long>(failed), 100.0 * tail_q, beyond,
              kSetups, setup_s.size());
  std::printf("speed factor median %.4f; raw (unscaled) latency p50 %.2f us, "
              "tail %.2f us, setup %.4f s\n",
              gauge.MedianFactor(), raw_latency_us.Quantile(0.5),
              raw_latency_us.Quantile(tail_q), Median(raw_setup_s));
  std::printf("scaled latency quantiles (us): p90 %.2f, p99 %.2f, p99.5 %.2f, "
              "p99.9 %.2f, p99.97 %.2f\n",
              latency_us.Quantile(0.9), latency_us.Quantile(0.99),
              latency_us.Quantile(0.995), latency_us.Quantile(0.999),
              latency_us.Quantile(0.9997));
  if (args.trace) {
    std::printf("traced ops %lld, untraced ops %lld, dropped spans %lld\n",
                static_cast<long long>(traced_ops),
                static_cast<long long>(untraced_ops),
                static_cast<long long>(tracer.dropped_spans()));
  }
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::vector<Metric> deterministic = report.modeled.items();
  for (const Metric& m : report.counts.items()) deterministic.push_back(m);
  std::string det;
  PrintMetricsJson(deterministic, &det);
  std::printf("DETERMINISM %s\n", det.c_str());
  std::string json;
  PrintMetricsJson(metrics, &json);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
