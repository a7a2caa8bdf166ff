// serving_replay: one op is a round of two warm replays on DISC engines —
// a request-level SimulateServing replay (kBatchMax) of a seeded BERT
// request stream, then a continuous-batching SimulateDecode replay of a
// seeded decode stream on BuildGptStepBatch. Simulated arrivals are open
// loop at a fixed rate; the rounds themselves are a closed loop with one
// caller. Launch plans hit almost always, so the time goes to
// Engine::Query on the plan-hit path and to the two scheduling loops.
#include "baselines/dynamic_engine.h"
#include "decode/decode_replay.h"
#include "decode/decode_scheduler.h"
#include "serving/serving.h"
#include "workloads.h"

namespace perfbench {
namespace {

using disc::Status;

constexpr int64_t kWindowOps = 200;
// Round size: each half takes at least a third of the round's wall time.
constexpr int64_t kRoundRequests = 256;
constexpr int64_t kRoundSequences = 12;
// Arrival rates (mean gaps) of the timed rounds and the modeled audits.
constexpr double kRequestGapUs = 200.0;
constexpr double kDecodeGapUs = 40.0;
constexpr int64_t kAuditRequests = 16384;
constexpr int64_t kAuditSequences = 384;
// Goodput: highest rate of the ladder whose modeled request p99 stays
// under the limit with nothing shed or failed.
constexpr double kGoodputGapsUs[] = {400.0, 200.0, 100.0, 50.0, 25.0,
                                     16.0,  12.5,  10.0,  8.0};
constexpr int64_t kGoodputRequests = 1024;
constexpr double kGoodputP99LimitUs = 3000.0;
// Admission is consulted on every batch and step but never binds.
constexpr int64_t kMemoryLimitBytes = int64_t{1} << 32;

class ServingReplay : public Workload {
 public:
  explicit ServingReplay(uint64_t seed) : seed_(seed) {}

  Status Setup() override {
    disc::ModelConfig config = SuiteConfig();
    hidden_ = config.hidden;
    bert_ = disc::BuildBert(config);
    gpt_ = disc::BuildGptStepBatch(config);
    bert_engine_ = std::make_unique<disc::DynamicCompilerEngine>(
        disc::DynamicProfile::Disc());
    gpt_engine_ = std::make_unique<disc::DynamicCompilerEngine>(
        disc::DynamicProfile::Disc());
    DISC_RETURN_IF_ERROR(
        bert_engine_->Prepare(*bert_.graph, bert_.input_dim_labels));
    DISC_RETURN_IF_ERROR(
        gpt_engine_->Prepare(*gpt_.graph, gpt_.input_dim_labels));
    bert_fwd_ = std::make_unique<ForwardingEngine>(bert_engine_.get());
    gpt_fwd_ = std::make_unique<ForwardingEngine>(gpt_engine_.get());
    // Warm-up rounds.
    for (uint64_t k = 0; k < 4; ++k) {
      auto serving = Serve(bert_engine_.get(),
                           disc::SyntheticRequestStream(
                               kRoundRequests, kRequestGapUs, Mix(seed_, 7000 + k)));
      if (!serving.ok()) return serving.status();
      auto decode = Decode(gpt_engine_.get(),
                           disc::SyntheticDecodeStream(
                               kRoundSequences, kDecodeGapUs, Mix(seed_, 8000 + k)));
      if (!decode.ok()) return decode.status();
    }
    return Status::OK();
  }

  /// The modeled audits: one long request replay and one long decode
  /// replay through counting forwarders, and the goodput ladder.
  Status Verify() override {
    auto serving =
        Serve(bert_fwd_.get(), disc::SyntheticRequestStream(
                                   kAuditRequests, kRequestGapUs, Mix(seed_, 1)));
    if (!serving.ok()) return serving.status();
    DISC_RETURN_IF_ERROR(Accounted("audit serving", *serving));
    auto decode = Decode(gpt_fwd_.get(),
                         disc::SyntheticDecodeStream(kAuditSequences,
                                                     kDecodeGapUs, Mix(seed_, 2)));
    if (!decode.ok()) return decode.status();
    DISC_RETURN_IF_ERROR(Accounted("audit decode", decode->serving));
    audit_.Set("modeled_latency_p99_us", serving->p99_us, "us");
    audit_.Set("modeled_throughput_per_s", serving->throughput_qps, "1/s");
    audit_counts_.Set("decode.modeled_tbt_p99_us", decode->serving.p99_tbt_us,
                      "us");
    audit_counts_.Set("decode.modeled_tokens_per_s",
                      decode->serving.tokens_per_sec, "1/s");

    int64_t queries = bert_fwd_->queries() + gpt_fwd_->queries();
    int64_t kernels = serving->kernel_launches + decode->serving.kernel_launches;
    int64_t memory_bound = serving->memory_bound_launches +
                           decode->serving.memory_bound_launches;
    int64_t all_launches = bert_fwd_->launches() + gpt_fwd_->launches();
    double q = static_cast<double>(queries);
    audit_counts_.Set("kernel.launches", static_cast<double>(kernels) / q,
                      "count");
    audit_counts_.Set("kernel.library_calls",
                      static_cast<double>(all_launches - kernels) / q, "count");
    audit_counts_.Set("kernel.memory_bound_launches",
                      static_cast<double>(memory_bound) / q, "count");
    audit_counts_.Set(
        "kernel.bytes_moved",
        static_cast<double>(bert_fwd_->bytes_moved() + gpt_fwd_->bytes_moved()) /
            q,
        "bytes");
    audit_counts_.Set("sim.device_us",
                      (bert_fwd_->device_us() + gpt_fwd_->device_us()) / q, "us");

    double goodput = 0.0;
    for (double gap : kGoodputGapsUs) {
      auto step = Serve(bert_engine_.get(),
                        disc::SyntheticRequestStream(kGoodputRequests, gap,
                                                     Mix(seed_, 3)));
      if (!step.ok()) return step.status();
      if (step->shed == 0 && step->failed == 0 &&
          step->completed == step->submitted &&
          step->p99_us <= kGoodputP99LimitUs) {
        goodput = 1e6 / gap;
      }
    }
    audit_counts_.Set("serving.modeled_goodput_per_s", goodput, "1/s");
    return Status::OK();
  }

  int64_t window_ops() const override { return kWindowOps; }

  void Prepare(int64_t op) override {
    uint64_t h = Mix(seed_, static_cast<uint64_t>(op));
    requests_ =
        disc::SyntheticRequestStream(kRoundRequests, kRequestGapUs, Mix(h, 1));
    sequences_ =
        disc::SyntheticDecodeStream(kRoundSequences, kDecodeGapUs, Mix(h, 2));
    lookups_before_ = PlanLookups();
  }

  Status Run(int64_t, Tracer* tracer) override {
    disc::Engine* bert = bert_engine_.get();
    disc::Engine* gpt = gpt_engine_.get();
    if (tracer != nullptr) {
      bert_fwd_->set_tracer(tracer, query_layer_, predict_layer_);
      gpt_fwd_->set_tracer(tracer, query_layer_, predict_layer_);
      bert = bert_fwd_.get();
      gpt = gpt_fwd_.get();
    }
    {
      ScopedSpan span(tracer, serving_layer_);
      auto serving = Serve(bert, requests_);
      if (!serving.ok()) return serving.status();
      serving_ = std::move(*serving);
    }
    ScopedSpan span(tracer, decode_layer_);
    auto decode = Decode(gpt, sequences_);
    if (!decode.ok()) return decode.status();
    decode_ = std::move(decode->serving);
    return Status::OK();
  }

  Status Check(int64_t op) override {
    DISC_RETURN_IF_ERROR(Accounted("serving", serving_));
    DISC_RETURN_IF_ERROR(Accounted("decode", decode_));
    if (op < kWindowOps) {
      auto [hits, misses] = PlanLookups();
      window_.plan_hits += hits - lookups_before_.first;
      window_.plan_lookups += hits + misses - lookups_before_.first -
                              lookups_before_.second;
      window_.batches += serving_.batches;
      window_.padded_token_fraction += serving_.padded_token_fraction;
      window_.steps += decode_.decode_steps;
      window_.step_padding_waste += decode_.step_padding_waste;
      window_.preemptions += decode_.preemptions;
      window_.kv_high_water_blocks += decode_.kv_high_water_blocks;
      ++window_.rounds;
    }
    return Status::OK();
  }

  void RegisterLayers(Tracer* tracer) override {
    serving_layer_ = tracer->Layer("serving.replay");
    decode_layer_ = tracer->Layer("decode.replay");
    query_layer_ = tracer->Layer("engine.query");
    predict_layer_ = tracer->Layer("engine.predict");
  }

  void Report(WorkloadReport* report) const override {
    report->modeled = audit_;
    report->counts = audit_counts_;
    double n = window_.rounds > 0 ? static_cast<double>(window_.rounds) : 1.0;
    MetricSet& c = report->counts;
    c.Set("engine.queries", static_cast<double>(window_.plan_lookups), "count");
    c.Set("engine.plan_hit_ratio",
          window_.plan_lookups > 0
              ? static_cast<double>(window_.plan_hits) /
                    static_cast<double>(window_.plan_lookups)
              : 0.0,
          "ratio");
    c.Set("serving.batches", static_cast<double>(window_.batches) / n, "count");
    c.Set("serving.padded_token_fraction", window_.padded_token_fraction / n,
          "ratio");
    c.Set("decode.steps", static_cast<double>(window_.steps) / n, "count");
    c.Set("decode.step_padding_waste", window_.step_padding_waste / n,
          "ratio");
    c.Set("decode.preemptions", static_cast<double>(window_.preemptions) / n,
          "count");
    c.Set("decode.kv_high_water_blocks",
          static_cast<double>(window_.kv_high_water_blocks) / n, "count");
  }

  double tail_quantile() const override { return 0.99; }

 private:
  disc::Result<disc::ServingStats> Serve(
      disc::Engine* engine, const std::vector<disc::Request>& requests) {
    int64_t hidden = hidden_;
    disc::BatcherOptions options;
    options.pad = disc::PadPolicy::kBatchMax;
    options.memory_limit_bytes = kMemoryLimitBytes;
    return disc::SimulateServing(
        engine,
        [hidden](int64_t batch, int64_t seq) {
          return std::vector<std::vector<int64_t>>{{batch, seq, hidden}};
        },
        requests, options, disc::DeviceSpec::A10());
  }

  disc::Result<disc::DecodeStats> Decode(
      disc::Engine* engine, const std::vector<disc::DecodeRequest>& requests) {
    disc::DecodeOptions options;
    options.policy = disc::DecodePolicy::kContinuous;
    options.max_batch = 8;
    options.kv.capacity_blocks = 160;
    options.kv.block_tokens = 16;
    options.kv.bytes_per_token = 2 * hidden_ * static_cast<int64_t>(sizeof(float));
    options.memory_limit_bytes = kMemoryLimitBytes;
    return disc::SimulateDecode(engine, disc::GptStepBatchShapeFn(hidden_),
                                requests, options, disc::DeviceSpec::A10());
  }

  static Status Accounted(const std::string& what,
                          const disc::ServingStats& stats) {
    if (stats.completed != stats.submitted) {
      return Status::Internal(what + ": completed " +
                              std::to_string(stats.completed) + " of " +
                              std::to_string(stats.submitted) + " submitted");
    }
    return Status::OK();
  }

  std::pair<int64_t, int64_t> PlanLookups() const {
    const disc::EngineStats& a = bert_engine_->stats();
    const disc::EngineStats& b = gpt_engine_->stats();
    return {a.launch_plan_hits + b.launch_plan_hits,
            a.launch_plan_misses + b.launch_plan_misses};
  }

  struct WindowCounts {
    int64_t rounds = 0;
    int64_t plan_hits = 0;
    int64_t plan_lookups = 0;
    int64_t batches = 0;
    double padded_token_fraction = 0.0;
    int64_t steps = 0;
    double step_padding_waste = 0.0;
    int64_t preemptions = 0;
    int64_t kv_high_water_blocks = 0;
  };

  uint64_t seed_;
  int64_t hidden_ = 0;
  disc::Model bert_;
  disc::Model gpt_;
  std::unique_ptr<disc::DynamicCompilerEngine> bert_engine_;
  std::unique_ptr<disc::DynamicCompilerEngine> gpt_engine_;
  std::unique_ptr<ForwardingEngine> bert_fwd_;
  std::unique_ptr<ForwardingEngine> gpt_fwd_;
  std::vector<disc::Request> requests_;
  std::vector<disc::DecodeRequest> sequences_;
  std::pair<int64_t, int64_t> lookups_before_;
  disc::ServingStats serving_;
  disc::ServingStats decode_;
  MetricSet audit_;
  MetricSet audit_counts_;
  WindowCounts window_;
  int serving_layer_ = 0;
  int decode_layer_ = 0;
  int query_layer_ = 0;
  int predict_layer_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServingReplay(uint64_t seed) {
  return std::make_unique<ServingReplay>(seed);
}

}  // namespace perfbench
