// Dynamic-shape compiler engines: DISC (the paper's system) and a Torch
// Inductor (dynamic-shapes mode) archetype.
//
// Both compile once and serve any shape. They differ in the compiler
// configuration and the per-query host cost:
//   * DISC: full pipeline (symbolic fusion incl. kStitch, multi-version
//     specialization), negligible host cost — launch-dim computation is a
//     handful of integer expressions.
//   * Inductor-dynamic: fusion without stitching, single generic variant
//     per kernel, plus a per-query guard-evaluation overhead (Python-side
//     guards re-checked on every call) — the overheads the paper measures
//     on Inductor's dynamic mode.
//
// One engine covers both deployments of the compiled path:
//   * Standalone (no CompileService): Prepare compiles on the caller and
//     shape-profile feedback respecializes inline on the query thread.
//   * Served (with a CompileService): Prepare submits a background
//     prefetch and returns. Compiles and respecializations run as service
//     jobs (consulting the persistent artifact cache) and are hot-swapped
//     in on a later query. Until an executable is installed, queries run
//     on the fallback engine (any Engine computes identical math); with no
//     fallback the first query waits for the compile and is charged it as
//     a stall.
// Every executable — inline compile, job outcome or disk restore — enters
// through one install path: the shadow-validation admission gate when
// `validate_adoptions` is set, otherwise a direct ExecutableSlot::Swap. A
// runtime kDataLoss (guard violation, corruption) poisons the installed
// artifact and rolls back one generation when a fallback engine exists to
// catch what rollback cannot; without one it is returned to the caller.
//
// Determinism (served mode): compiled-vs-ready is a wall-clock race,
// useless for gated benchmarks. With `simulated_compile_latency_us >= 0`
// adoption is gated on the *simulated* clock instead — the executable is
// adopted at submit_sim_time + latency (disk restores at + cache-load
// latency), independent of real worker speed (we Wait on the wall clock if
// the worker is slower than its simulated deadline, charging no query).
// The default -1 adopts as soon as the worker finishes (production mode).
#ifndef DISC_BASELINES_DYNAMIC_ENGINE_H_
#define DISC_BASELINES_DYNAMIC_ENGINE_H_

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "baselines/engine.h"
#include "compile_service/compile_service.h"
#include "compile_service/profile_feedback.h"
#include "compile_service/shadow_validate.h"
#include "compiler/compiler.h"

namespace disc {

struct DynamicProfile {
  std::string name = "DISC";
  CompileOptions compile_options;
  /// Host cost per query (guard re-evaluation etc.) when the launch plan
  /// must be built — i.e. on a plan-cache miss or with the cache disabled.
  double per_query_host_us = 1.0;
  /// Host cost per query when a memoized launch plan is replayed: the
  /// symbol solve / guard eval / buffer planning is skipped, leaving a
  /// signature hash lookup.
  double plan_hit_host_us = 0.1;
  /// Additional host cost per kernel launch.
  double per_launch_host_us = 0.0;
  /// Host cost per device-allocator call, reported separately as
  /// EngineTiming::alloc_us so the serving ledger can blame allocator
  /// traffic. Default 0 keeps every committed baseline byte-stable; the
  /// F12 blame bench prices it to make the alloc phase visible (arena-mode
  /// runs then show it collapsing to one call).
  double per_alloc_host_us = 0.0;
  /// Memoize launch plans per shape signature in the Executable (off for
  /// archetypes that re-check guards on every call, e.g. Inductor).
  bool use_plan_cache = true;
  /// Shape-speculation feedback (nullopt = off): observed dim-value
  /// frequencies are fed back into a recompilation so hot shapes get
  /// exact-shape speculative kernels (BladeDISC's shape speculation).
  /// `min_observations` is the query count before the first
  /// respecialization. The feedback is continuous: a later shift of the
  /// hot-value profile triggers a fresh respecialization.
  std::optional<ShapeProfileOptions> feedback;
  /// CUDA-Graph capture: repeated shape signatures replay a captured graph,
  /// paying the driver launch latency once per query. Shape-static by
  /// nature — a fresh signature always takes the normal launch path.
  bool use_cuda_graph = false;
  /// Memory-planning strategy per Run (see RunOptions::memory_mode). The
  /// default keeps the caching allocator so existing gated baselines stay
  /// byte-stable; DiscArena() opts into the single-allocation arena.
  MemoryMode memory_mode = MemoryMode::kCachingAllocator;
  /// Device-memory capacity forwarded to every Run (0 = unlimited).
  int64_t memory_limit_bytes = 0;

  // --- Served mode only (ignored without a CompileService). ---
  /// >= 0: adopt a finished job once the simulated clock passes submit +
  /// this many us (deterministic). < 0: adopt when the worker finishes.
  double simulated_compile_latency_us = -1.0;
  /// Adoption latency when the job was restored from the persistent cache
  /// instead of compiled (with simulated_compile_latency_us >= 0).
  double simulated_cache_load_latency_us = 0.0;
  /// Differential admission gate: every candidate executable (compile,
  /// respecialization, regret-driven or not, or disk restore) is
  /// shadow-validated off-thread before Swap() may install it. A caught
  /// candidate is rejected and its CacheKey poisoned in the persistent
  /// quarantine. Requires a CompileService (validation runs on it). Off by
  /// default — the gate adds one validation job per adoption and delays
  /// installs by `simulated_validation_latency_us`.
  bool validate_adoptions = false;
  ShadowValidateOptions validation;
  /// Simulated-clock delay between validation submit and adoption (the
  /// off-thread probe-replay time). The serving thread is never charged.
  double simulated_validation_latency_us = 0.0;

  static DynamicProfile Disc();
  /// DISC with runtime shape-speculation feedback enabled.
  static DynamicProfile DiscWithSpeculation();
  /// DISC running on the symbolic arena plan: one allocator call per Run,
  /// footprint predictable before execution.
  static DynamicProfile DiscArena();
  static DynamicProfile TorchInductorDynamic();
};

class DynamicCompilerEngine : public Engine {
 public:
  /// `service` (nullable, non-owning, must outlive the engine; shared
  /// across engines — one worker pool per process) moves compilation off
  /// the query thread. `fallback` (nullable) serves while no executable is
  /// installed; it must compute identical math (any Engine does).
  explicit DynamicCompilerEngine(DynamicProfile profile,
                                 CompileService* service = nullptr,
                                 std::unique_ptr<Engine> fallback = nullptr);

  const std::string& name() const override { return name_; }

  /// \brief Standalone: compiles inline. Served: submits a prefetch job
  /// (nothing is waiting yet) and returns without blocking.
  Status Prepare(const Graph& graph,
                 std::vector<std::vector<std::string>> labels) override;

  Result<EngineTiming> Query(const std::vector<std::vector<int64_t>>& input_dims,
                             const DeviceSpec& device) override;

  /// \brief Numeric execution through the installed executable (not the
  /// reference evaluator) — exercises the real kernels.
  Result<std::vector<Tensor>> Execute(
      const std::vector<Tensor>& inputs) override;

  /// \brief Evaluates the installed executable's symbolic peak formula for
  /// this signature (memoized launch plans answer without size
  /// arithmetic); 0 while nothing is installed.
  Result<int64_t> PredictPeakBytes(
      const std::vector<std::vector<int64_t>>& input_dims) override;

  void SetSimulatedTimeUs(double now_us) override;

  /// \brief Kernel-observatory back-channel: the regret audit proved the
  /// compiled variant choice at `input_dims` is leaving device time on the
  /// table. Feeds the shape into the profile with regret weighting and
  /// takes the per-query feedback path (inline or service respecialization,
  /// through the admission gate when it is on). No-op unless the profile
  /// enables feedback.
  Status NoteKernelRegret(const std::vector<std::vector<int64_t>>& input_dims,
                          double regret_us);

  /// Hint sets acted on so far; at least 1 after the first feedback
  /// application, more after profile shifts.
  int64_t respecializations() const { return feedback_.respecializations(); }
  /// Simulated time at which the first executable (any) / the first
  /// hint-specialized executable was installed; -1 = not yet. F10's
  /// time-to-first-specialized-kernel.
  double first_executable_sim_us() const { return first_executable_sim_us_; }
  double first_specialized_sim_us() const { return first_specialized_sim_us_; }
  int64_t swaps() const { return slot_.generation(); }
  int64_t disk_restores() const { return disk_restores_; }
  const ExecutableSlot& slot() const { return slot_; }

  /// Admission-gate observability. `last_validation_report` is null until
  /// the first validation resolves; it reflects the most recent one (pass
  /// or caught).
  int64_t validations_run() const { return validations_run_; }
  int64_t validations_caught() const { return validations_caught_; }
  int64_t rollbacks() const { return slot_.rollbacks(); }
  /// Runtime kDataLoss events handled (guard violations / corruption
  /// detected while serving) — each triggers poison + rollback (or slot
  /// clear).
  int64_t data_loss_events() const { return data_loss_events_; }
  /// Compile submissions refused because the CacheKey is quarantined.
  int64_t poisoned_skips() const { return poisoned_skips_; }
  const ValidationReport* last_validation_report() const {
    return last_validation_report_.get();
  }

 private:
  /// Compiles `hints` (empty = plain compile) on top of the profile's
  /// options: inline and installed now without a service, else submitted
  /// as a job at `priority`. A quarantined CacheKey is never resubmitted —
  /// not in this process and not after a warm restart.
  Status Compile(JobPriority priority, LikelyDimValues hints);
  /// Served mode: resolves a finished validation, then adopts a finished
  /// compile job whose simulated-clock gate has passed. Returns the stall
  /// charged to the caller (waiting is only done with no fallback engine
  /// and nothing installed).
  double AdoptFinished();
  /// The one feedback path (per-query and regret): observe, and when the
  /// hot-value profile is confident or shifted, respecialize.
  Status ObserveAndRespecialize(
      const std::vector<std::vector<int64_t>>& input_dims);
  /// The one install path: admission gate when validate_adoptions is set,
  /// else AdoptNow.
  void Install(CompileJobOutcome candidate, bool had_hints);
  /// Swap + bookkeeping for a validated (or validation-exempt) candidate.
  void AdoptNow(const CompileJobOutcome& adopted, bool had_hints);
  /// Submits the kValidate shadow job for `candidate` (probe build happens
  /// on the serving thread — cheap; replay happens on the worker).
  void StartValidation(CompileJobOutcome candidate, bool had_hints);
  /// Resolves a finished validation: adopt on pass, poison + reject on
  /// caught.
  void MaybeResolveValidation(bool sync_wait);
  /// kDataLoss while serving: poison the installed key, roll back to the
  /// previous generation (or clear the slot when there is none).
  void OnDataLoss(const Status& status);
  /// Probe fodder for the validator (only kept with validate_adoptions).
  void RememberForProbes(const std::vector<std::vector<int64_t>>& input_dims);
  /// Runs `run` on the installed executable, recovering from kDataLoss
  /// (rollback + one retry) when a fallback engine exists. nullopt = the
  /// fallback engine must serve.
  template <typename RunFn>
  std::optional<Result<RunResult>> RunInstalled(const RunFn& run);
  /// Nothing installed and no fallback engine to serve on.
  Status NoExecutable() const;
  void CountFallbackQuery();

  DynamicProfile profile_;
  CompileService* service_;
  std::unique_ptr<Engine> fallback_;
  std::string name_;

  ExecutableSlot slot_;
  CompileJobHandle pending_job_;
  double pending_submit_sim_us_ = 0.0;
  bool pending_has_hints_ = false;
  double sim_now_us_ = 0.0;

  /// In-flight shadow validation (at most one, like pending_job_).
  CompileJobHandle pending_validation_;
  CompileJobOutcome validation_candidate_;
  bool validation_had_hints_ = false;
  double validation_submit_sim_us_ = 0.0;
  /// Written by the worker task before it finishes; read only after the
  /// job resolves (the handle's done-latch orders the accesses).
  std::shared_ptr<ValidationReport> validation_inflight_report_;
  std::shared_ptr<ValidationReport> last_validation_report_;

  /// CacheKeys of the installed / previous-generation executables, so a
  /// runtime kDataLoss can poison the offending artifact.
  std::optional<CacheKey> current_key_;
  std::optional<CacheKey> previous_key_;

  /// Recently served bindings (most recent last), probe fodder for the
  /// validator. Bounded; only maintained when validate_adoptions is on.
  std::deque<std::vector<std::vector<int64_t>>> recent_observed_dims_;

  ShapeProfileFeedback feedback_;
  double first_executable_sim_us_ = -1.0;
  double first_specialized_sim_us_ = -1.0;
  int64_t disk_restores_ = 0;
  int64_t validations_run_ = 0;
  int64_t validations_caught_ = 0;
  int64_t data_loss_events_ = 0;
  int64_t poisoned_skips_ = 0;
  // Shape signatures with a captured CUDA graph (per-executable state).
  std::set<std::string> captured_signatures_;
};

}  // namespace disc

#endif  // DISC_BASELINES_DYNAMIC_ENGINE_H_
