// Compilation-introspection CLI: "why was (or wasn't) this pair fused,
// and which shape constraint decided it?"
//
// Compiles a named model with decision recording on, optionally dumps the
// full artifact set, and answers queries against the decision and
// constraint logs:
//
//   $ disc_explain --model=bert --dump-dir=/tmp/bert_dump
//   $ disc_explain --model=softmax --why-not-fused=3,5
//   $ disc_explain --model=softmax --static-shapes-only --why-not-fused=3,5
//   $ disc_explain --model=layernorm --decisions
//   $ disc_explain --model=bert --constraints
//   $ disc_explain --model=bert --memory-plan
//   $ disc_explain --model=gelu-glue --hotspots
//   $ disc_explain --model=gelu-glue --no-specialization --regret
//   $ disc_explain --model=softmax --no-compile-cache --validation
//   $ disc_explain --decode [--decode-json=decode_timeline.json]
//
// --decode prints the continuous-batching step timeline — per-step batch
// occupancy, joins/retires/preemptions, KV-pool blocks with the
// high-water step flagged — from a decode_timeline.json dump written by
// `trace_inspect --decode` or bench_decode_serving. When the dump does
// not exist yet, a small synthetic decode replay is run first to produce
// one, so the flag also works standalone.
//
// --hotspots replays the model's shape trace with the kernel observatory
// enabled and prints the per-(kernel, variant, signature) device-time
// ledger: top entries, the variant admission histogram, and the
// launch-bound vs memory-bound split. --regret additionally runs the
// counterfactual variant-regret audit (joined to the fusion decisions
// that formed each kernel's group). Both write kernel_profile.json.
//
// Node ids are the %N value ids shown in the IR dumps (module_*.ir) and in
// `--decisions` output. Models: the F2 micro workloads (softmax, layernorm,
// gelu-glue) plus the full model suite (mlp, bert, seq2seq-step, crnn,
// fastspeech2, dlrm, ...).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "baselines/dynamic_engine.h"
#include "compile_service/compile_service.h"
#include "compile_service/shadow_validate.h"
#include "compiler/compiler.h"
#include "decode/decode_scheduler.h"
#include "decode_demo.h"
#include "ir/builder.h"
#include "models/models.h"
#include "support/artifact_dump.h"
#include "support/failpoint.h"
#include "support/kernel_profile.h"
#include "support/string_util.h"

namespace disc {
namespace {

struct Workload {
  std::string name;
  std::unique_ptr<Graph> graph;
  std::vector<std::vector<std::string>> labels;
  /// Per-query input shapes replayed by --hotspots / --regret.
  std::vector<ShapeSet> trace;
};

// Shape traffic for the micro workloads (the suite models carry their own
// serving trace): a hot power-of-two batch plus ragged stragglers, so the
// ledger shows both the vectorized and the fallback variants. The hot batch
// is large enough that the vec4 variant is modeled faster than generic —
// under --no-specialization the regret audit then names the denied variant
// with positive regret.
std::vector<ShapeSet> MicroTrace(int64_t inner) {
  std::vector<ShapeSet> trace;
  const int64_t batches[] = {1024, 1024, 1024, 1024, 1024, 1024,
                             768,  257,  1024, 431,  1024, 1024};
  for (int64_t b : batches) trace.push_back({{b, inner}});
  return trace;
}

// The F2 micro workloads, built exactly as bench_fusion_ablation does, so
// a why-not-fused answer here explains the corresponding F2 table row.
Workload MakeSoftmax() {
  Workload w;
  w.name = "softmax";
  w.graph = std::make_unique<Graph>("softmax");
  GraphBuilder b(w.graph.get());
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kDynamicDim});
  b.Output({b.Softmax(x)});
  w.labels = {{"B", "S"}};
  w.trace = MicroTrace(128);
  return w;
}

Workload MakeLayerNorm() {
  Workload w;
  w.name = "layernorm";
  w.graph = std::make_unique<Graph>("layernorm");
  GraphBuilder b(w.graph.get());
  const int64_t kHidden = 512;
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kHidden});
  Value* scale = b.Constant(Tensor::F32({kHidden},
                                        std::vector<float>(kHidden, 1.0f)));
  Value* bias = b.Constant(Tensor::F32({kHidden},
                                       std::vector<float>(kHidden, 0.0f)));
  b.Output({b.LayerNorm(x, scale, bias)});
  w.labels = {{"B", ""}};
  w.trace = MicroTrace(kHidden);
  return w;
}

Workload MakeGeluGlue() {
  Workload w;
  w.name = "gelu-glue";
  w.graph = std::make_unique<Graph>("gelu_glue");
  GraphBuilder b(w.graph.get());
  const int64_t kHidden = 512;
  Value* x = b.Input("x", DType::kF32, {kDynamicDim, kHidden});
  Value* h = b.Gelu(b.Add(x, b.Constant(Tensor::F32(
                                 {kHidden},
                                 std::vector<float>(kHidden, 0.5f)))));
  b.Output({b.Mul(h, b.ScalarF32(1.1f))});
  w.labels = {{"B", ""}};
  w.trace = MicroTrace(kHidden);
  return w;
}

Result<Workload> BuildWorkload(const std::string& name) {
  if (name == "softmax") return MakeSoftmax();
  if (name == "layernorm") return MakeLayerNorm();
  if (name == "gelu-glue") return MakeGeluGlue();
  ModelConfig config;
  for (Model& m : BuildModelSuite(config)) {
    if (m.name == name) {
      Workload w;
      w.name = m.name;
      w.graph = std::move(m.graph);
      w.labels = std::move(m.input_dim_labels);
      w.trace = std::move(m.trace);
      return w;
    }
  }
  return Status::InvalidArgument(
      "unknown model '" + name +
      "'; available: softmax, layernorm, gelu-glue, plus the model suite "
      "(mlp, bert, seq2seq-step, ...)");
}

// Finds the node whose output(0) value id is `id` (the %N in IR dumps).
const Node* FindNode(const Graph& graph, int id) {
  for (const Node* node : graph.nodes()) {
    if (!node->outputs().empty() && node->output(0)->id() == id) return node;
  }
  return nullptr;
}

// Explains one node's standing when no recorded decision covers the pair:
// the planner never *considered* it, and the reason is structural.
void ExplainStanding(const Executable& exe, const Node* node, int id) {
  if (node == nullptr) {
    std::printf("  %%%d: no such node in the optimized graph (note: the "
                "pass pipeline renumbers; read ids from module_optimized.ir "
                "or --decisions)\n",
                id);
    return;
  }
  auto it = exe.plan().group_of.find(node);
  if (it == exe.plan().group_of.end()) {
    const char* why = "not fusable compute";
    switch (node->op_class()) {
      case OpClass::kLibrary:
        why = "library op (matmul/conv dispatch to vendor kernels)";
        break;
      case OpClass::kShape:
        why = "host shape computation, never a device kernel";
        break;
      case OpClass::kCreation:
        why = "materialized constant, baked as a kernel parameter";
        break;
      default:
        break;
    }
    std::printf("  %%%d (%s): outside every fusion group — %s\n", id,
                OpName(node->kind()), why);
  } else {
    std::printf("  %%%d (%s): in group#%d (%s)\n", id, OpName(node->kind()),
                it->second,
                FusionKindName(exe.plan().groups[it->second].kind));
  }
}

void WhyNotFused(const Executable& exe, int a, int b) {
  const Node* na = FindNode(exe.graph(), a);
  const Node* nb = FindNode(exe.graph(), b);
  std::printf("why-not-fused %%%d, %%%d:\n", a, b);

  if (na != nullptr && nb != nullptr) {
    auto ga = exe.plan().group_of.find(na);
    auto gb = exe.plan().group_of.find(nb);
    if (ga != exe.plan().group_of.end() && gb != exe.plan().group_of.end() &&
        ga->second == gb->second) {
      std::printf("  they ARE fused: both in group#%d (%s)\n", ga->second,
                  FusionKindName(exe.plan().groups[ga->second].kind));
    }
  }
  auto decisions = exe.plan().DecisionsFor(a, b);
  if (!decisions.empty()) {
    for (const FusionDecision* d : decisions) {
      std::printf("  decision: %s\n", d->ToString().c_str());
    }
    return;
  }
  // No direct decision: the pair shares no producer->consumer edge, or one
  // side was structurally excluded before planning.
  std::printf("  no producer->consumer decision was recorded for this pair "
              "(fusion only merges adjacent nodes; non-adjacent nodes join "
              "a group only transitively). Standing of each node:\n");
  ExplainStanding(exe, na, a);
  ExplainStanding(exe, nb, b);
}

// Renders the symbolic arena layout: which values share which slot, the
// offset/size formula per slot, and why any value got its own fresh slot
// (the fallback set is where peak-memory wins are still on the table).
void PrintMemoryPlan(const Executable& exe) {
  const MemoryPlan& plan = exe.memory_plan();
  std::printf("== symbolic arena memory plan ==\n");
  if (!plan.planned) {
    std::printf("  (not planned — memory-planning phase did not run)\n\n");
    return;
  }
  std::printf("  %s\n", plan.ToString().c_str());
  std::printf("  peak bytes = %s\n", plan.peak_bytes.ToString().c_str());

  // Group values by slot so sharing is visible at a glance.
  std::vector<std::vector<int>> occupants(plan.slots.size());
  for (const auto& [value, slot] : plan.slot_of) {
    occupants[static_cast<size_t>(slot)].push_back(value->id());
  }
  for (size_t s = 0; s < plan.slots.size(); ++s) {
    std::sort(occupants[s].begin(), occupants[s].end());
    std::string ids;
    for (int id : occupants[s]) {
      if (!ids.empty()) ids += " ";
      ids += "%" + std::to_string(id);
    }
    std::printf("  slot#%zu @ %s : %s bytes  <- %s\n", s,
                plan.slots[s].offset.ToString().c_str(),
                plan.slots[s].bytes.ToString().c_str(), ids.c_str());
  }
  if (!plan.fallbacks.empty()) {
    std::printf("  fresh-slot fallbacks (no provable fit):\n");
    for (const ArenaFallback& f : plan.fallbacks) {
      std::printf("    %%%d (%s bytes): %s\n", f.value_id, f.bytes.c_str(),
                  f.reason.c_str());
    }
  }
  std::printf("\n");
}

// Replays the workload's shape trace with the kernel observatory enabled,
// prints the hotspot ledger (and, with `with_regret`, the counterfactual
// audit joined to fusion provenance), and writes kernel_profile.json.
int RunObservatory(const Executable& exe, const Workload& workload,
                   bool with_regret, const std::string& json_path) {
  KernelProfileLedger& ledger = KernelProfileLedger::Global();
  ledger.Clear();
  ledger.Enable();
  for (const ShapeSet& shapes : workload.trace) {
    auto run = exe.RunWithShapes(shapes);
    if (!run.ok()) {
      std::fprintf(stderr, "trace replay failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
  }

  std::vector<KernelProfileEntry> entries = ledger.Snapshot();
  std::vector<KernelProfileEntry> by_time = entries;
  std::sort(by_time.begin(), by_time.end(),
            [](const KernelProfileEntry& a, const KernelProfileEntry& b) {
              if (a.total_time_us != b.total_time_us) {
                return a.total_time_us > b.total_time_us;
              }
              return a.kernel < b.kernel;
            });

  std::printf("== kernel hotspots (%zu trace queries) ==\n",
              workload.trace.size());
  double device_total = 0.0, body_total = 0.0;
  int64_t launches = 0, memory_bound = 0;
  for (const KernelProfileEntry& e : entries) {
    device_total += e.total_time_us;
    body_total += e.total_body_us;
    launches += e.launches;
    memory_bound += e.memory_bound_launches;
  }
  const size_t top = std::min<size_t>(by_time.size(), 10);
  for (size_t i = 0; i < top; ++i) {
    const KernelProfileEntry& e = by_time[i];
    std::printf("  #%zu %5.1f%%  %s\n", i + 1,
                device_total > 0.0 ? 100.0 * e.total_time_us / device_total
                                   : 0.0,
                e.ToString().c_str());
  }

  std::printf("  variant admission (launches per compiled variant):\n");
  std::map<std::string, std::map<std::string, int64_t>> admission;
  for (const KernelProfileEntry& e : entries) {
    admission[e.kernel][e.variant] += e.launches;
  }
  for (const auto& [kernel, variants] : admission) {
    std::string line;
    for (const auto& [variant, count] : variants) {
      if (!line.empty()) line += "  ";
      line += StrFormat("%s:%lld", variant.c_str(),
                        static_cast<long long>(count));
    }
    std::printf("    %-24s %s\n", kernel.c_str(), line.c_str());
  }
  std::printf(
      "  split: %lld/%lld launches memory-bound; launch overhead %.1fus of "
      "%.1fus device (%.1f%%)\n",
      static_cast<long long>(memory_bound), static_cast<long long>(launches),
      device_total - body_total, device_total,
      device_total > 0.0 ? 100.0 * (device_total - body_total) / device_total
                         : 0.0);

  std::vector<KernelRegret> regrets;
  if (with_regret) {
    regrets = ledger.AuditRegret(DeviceSpec::A10());
    std::printf("\n== variant-regret audit (counterfactual: full "
                "specialization) ==\n");
    for (const KernelRegret& r : regrets) {
      std::printf("  %s\n", r.ToString().c_str());
      for (const VariantAssessment& a : r.candidates) {
        std::printf("    rank %d %-12s %s%s%s  modeled=%.2fus\n", a.rank,
                    a.variant.c_str(),
                    a.admissible ? "admissible" : "rejected  ",
                    a.compiled ? "" : " NOT-COMPILED",
                    a.selected ? " <selected>" : "", a.modeled_us);
      }
      // Fusion provenance: the decisions that formed this kernel's group —
      // regret names a variant choice, these name the fusion choices that
      // shaped the kernel it happened in.
      if (r.group >= 0 &&
          r.group < static_cast<int>(exe.plan().groups.size())) {
        std::set<int> member_ids;
        for (const Node* node : exe.plan().groups[r.group].nodes) {
          if (!node->outputs().empty()) {
            member_ids.insert(node->output(0)->id());
          }
        }
        for (const FusionDecision& d : exe.plan().decisions) {
          if (d.fused && member_ids.count(d.producer) &&
              member_ids.count(d.consumer)) {
            std::printf("    formed-by: %s\n", d.ToString().c_str());
          }
        }
      }
    }
    if (regrets.empty()) std::printf("  (no audited entries)\n");
  }

  Status written =
      WriteKernelProfileJson(json_path, entries, regrets, ledger.stats());
  if (!written.ok()) {
    std::fprintf(stderr, "writing %s failed: %s\n", json_path.c_str(),
                 written.ToString().c_str());
    return 1;
  }
  double top_regret_share = regrets.empty() ? 0.0 : regrets[0].regret_share;
  // Greppable summary for the CI smoke (and for humans scanning logs).
  std::printf(
      "\nkernel_profile=ok path=%s entries=%zu regrets=%zu "
      "top_regret_share=%.4f\n\n",
      json_path.c_str(), entries.size(), regrets.size(), top_regret_share);
  ledger.Disable();
  ledger.Clear();
  return 0;
}

// Prints the decode step timeline from a decode_timeline.json dump. A
// missing dump is produced on the spot by a small synthetic replay (real
// compiled GPT step-batch model), so `disc_explain --decode` works both
// as a viewer for another tool's dump and standalone.
int ShowDecodeTimeline(const std::string& path) {
  auto text = ReadFileToString(path);
  if (!text.ok()) {
    std::printf("no dump at %s — running a synthetic decode replay to "
                "produce one\n\n",
                path.c_str());
    auto stats = RunDecodeDemoReplay();
    if (!stats.ok()) {
      std::fprintf(stderr, "decode replay failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    Status wrote = stats->WriteTimelineJson(path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 1;
    }
    text = ReadFileToString(path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s\n", text.status().ToString().c_str());
      return 1;
    }
  }
  auto rendered = FormatDecodeTimelineJson(*text);
  if (!rendered.ok()) {
    std::fprintf(stderr, "decode_timeline=invalid: %s\n",
                 rendered.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", rendered->c_str());
  std::printf("\ndecode_timeline=ok path=%s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace disc

int main(int argc, char** argv) {
  using namespace disc;
  std::string model_name = "softmax";
  std::string dump_dir;
  std::string filter;
  std::string why_pair;
  std::string cache_dir = "disc_explain.cache";
  bool no_compile_cache = false;
  bool static_only = false;
  bool list_decisions = false;
  bool list_constraints = false;
  bool show_memory_plan = false;
  bool show_hotspots = false;
  bool show_regret = false;
  bool no_specialization = false;
  bool run_validation = false;
  bool show_decode = false;
  std::string decode_json = "decode_timeline.json";
  std::string profile_json = "kernel_profile.json";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--model=", 8) == 0) {
      model_name = arg + 8;
    } else if (std::strncmp(arg, "--dump-dir=", 11) == 0) {
      dump_dir = arg + 11;
    } else if (std::strncmp(arg, "--dump-filter=", 14) == 0) {
      filter = arg + 14;
    } else if (std::strncmp(arg, "--why-not-fused=", 16) == 0) {
      why_pair = arg + 16;
    } else if (std::strncmp(arg, "--cache-dir=", 12) == 0) {
      cache_dir = arg + 12;
    } else if (std::strcmp(arg, "--no-compile-cache") == 0) {
      no_compile_cache = true;
    } else if (std::strcmp(arg, "--static-shapes-only") == 0) {
      static_only = true;
    } else if (std::strcmp(arg, "--decisions") == 0) {
      list_decisions = true;
    } else if (std::strcmp(arg, "--constraints") == 0) {
      list_constraints = true;
    } else if (std::strcmp(arg, "--memory-plan") == 0) {
      show_memory_plan = true;
    } else if (std::strcmp(arg, "--hotspots") == 0) {
      show_hotspots = true;
    } else if (std::strcmp(arg, "--regret") == 0) {
      show_regret = true;
    } else if (std::strcmp(arg, "--no-specialization") == 0) {
      no_specialization = true;
    } else if (std::strcmp(arg, "--validation") == 0) {
      run_validation = true;
    } else if (std::strcmp(arg, "--decode") == 0) {
      show_decode = true;
    } else if (std::strncmp(arg, "--decode-json=", 14) == 0) {
      show_decode = true;
      decode_json = arg + 14;
    } else if (std::strncmp(arg, "--profile-json=", 15) == 0) {
      profile_json = arg + 15;
    } else {
      std::fprintf(
          stderr,
          "usage: disc_explain --model=<name> [--dump-dir=<dir>]\n"
          "           [--dump-filter=<substr>] [--why-not-fused=A,B]\n"
          "           [--static-shapes-only] [--decisions] [--constraints]\n"
          "           [--memory-plan] [--hotspots] [--regret]\n"
          "           [--no-specialization] [--profile-json=<path>]\n"
          "           [--cache-dir=<dir>] [--no-compile-cache]\n"
          "           [--validation] [--decode] [--decode-json=<path>]\n");
      return 2;
    }
  }
  // --decode is a pure dump viewer: no model compile involved.
  if (show_decode) return ShowDecodeTimeline(decode_json);
  // Introspection artifacts are written only by a real compile, so a dump
  // request disables the artifact cache (a disk restore would silently
  // skip the dump).
  if (!dump_dir.empty()) no_compile_cache = true;

  auto workload = BuildWorkload(model_name);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }

  CompileOptions options = static_only ? CompileOptions::NoSymbolicShapes()
                           : no_specialization
                               ? CompileOptions::NoSpecialization()
                               : CompileOptions();
  options.dump.dir = dump_dir;
  options.dump.filter = filter;

  // The compile goes through the service so a previous invocation's
  // artifact (same model, same options) restores from the persistent
  // cache instead of recompiling — the job timeline printed at the end
  // shows which happened.
  CompileServiceOptions service_options;
  if (!no_compile_cache) service_options.cache.dir = cache_dir;
  CompileService service(service_options);
  CompileJobRequest request;
  request.model_name = workload->name;
  request.graph = workload->graph.get();
  request.labels = workload->labels;
  request.options = options;
  request.priority = JobPriority::kForegroundMiss;
  CompileJobHandle job = service.Submit(std::move(request));
  const CompileJobOutcome& outcome = job.Wait();
  if (!outcome.status.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 outcome.status.ToString().c_str());
    // A failed compile with failpoints armed is usually the failpoint
    // firing — say so, with hit/fire counts.
    std::string failpoints = FailpointRegistry::Global().Summary();
    if (!failpoints.empty()) {
      std::fprintf(stderr, "active failpoints (DISC_FAILPOINTS):\n%s",
                   failpoints.c_str());
    }
    return 1;
  }
  std::shared_ptr<const Executable> exe = outcome.executable;

  std::printf("model %s%s: %zu nodes -> %zu fusion groups%s\n",
              workload->name.c_str(),
              static_only ? " (static-shapes-only ablation)" : "",
              exe->graph().nodes().size(), exe->plan().groups.size(),
              outcome.from_disk_cache ? " (restored from artifact cache)"
                                      : "");
  if (!dump_dir.empty()) {
    std::printf("artifacts dumped to %s/\n", dump_dir.c_str());
  }
  std::printf("\n");

  if (show_memory_plan) PrintMemoryPlan(*exe);

  if (list_decisions ||
      (why_pair.empty() && !list_constraints && !show_memory_plan &&
       !show_hotspots && !show_regret && !run_validation)) {
    std::printf("== fusion decisions (final verdict per considered pair) ==\n");
    for (const FusionDecision& d : exe->plan().decisions) {
      std::printf("  %s\n", d.ToString().c_str());
    }
    if (exe->plan().decisions.empty()) {
      std::printf("  (none — fusion disabled or nothing adjacent)\n");
    }
    std::printf("\n== fusion groups ==\n%s\n", exe->plan().ToString().c_str());
  }

  if (list_constraints) {
    std::printf("== excavated shape constraints (discovery order) ==\n");
    for (const ConstraintRecord& r : exe->analysis().constraint_log()) {
      std::printf("  %s\n", r.ToString().c_str());
    }
    std::printf("\n");
  }

  if (!why_pair.empty()) {
    size_t comma = why_pair.find(',');
    if (comma == std::string::npos) {
      std::fprintf(stderr, "--why-not-fused wants two ids: A,B\n");
      return 2;
    }
    // Accept both "3,5" and the IR-dump spelling "%3,%5".
    auto parse_id = [](std::string s) {
      if (!s.empty() && s[0] == '%') s.erase(0, 1);
      return std::atoi(s.c_str());
    };
    int a = parse_id(why_pair.substr(0, comma));
    int b = parse_id(why_pair.substr(comma + 1));
    WhyNotFused(*exe, a, b);
  }

  if (show_hotspots || show_regret) {
    int rc = RunObservatory(*exe, *workload, show_regret, profile_json);
    if (rc != 0) return rc;
  }

  // Differential validation: replay the workload's shape trace (plus the
  // guard-boundary probes derived from the compiled variants) through the
  // executable and the IR reference evaluator. With DISC_FAILPOINTS
  // arming kernel.miscompile / kernel.guard.mispredict at compile time,
  // this is the from-the-outside proof that the admission gate catches a
  // wrong executable before it could serve.
  if (run_validation) {
    ShadowValidator validator;
    std::vector<std::vector<std::vector<int64_t>>> observed(
        workload->trace.begin(), workload->trace.end());
    std::vector<ProbeBinding> probes = validator.BuildProbes(
        *exe, workload->labels, observed, {}, {});
    ValidationReport vreport =
        validator.Validate(*exe, /*incumbent=*/nullptr, *workload->graph,
                           probes, workload->name, outcome.key.ToId());
    std::printf("\n== differential validation (vs reference evaluator) ==\n");
    std::printf("%s\n", vreport.Summary().c_str());
    for (const ProbeOutcome& po : vreport.outcomes) {
      std::printf("  probe %-18s %-9s %s%s%s\n", po.signature.c_str(),
                  po.source.c_str(), po.outcome.c_str(),
                  po.detail.empty() ? "" : ": ", po.detail.c_str());
    }
  }

  std::printf("\n== compile service ==\n%s",
              service.JobTimelineString().c_str());
  ArtifactCacheStats cache_stats = service.cache().stats();
  std::printf(
      "cache: hits=%lld misses=%lld stores=%lld evictions=%lld "
      "quarantined=%lld\n",
      static_cast<long long>(cache_stats.hits),
      static_cast<long long>(cache_stats.misses),
      static_cast<long long>(cache_stats.stores),
      static_cast<long long>(cache_stats.evictions),
      static_cast<long long>(cache_stats.quarantined));
  std::printf("%s", service.cache().ManifestSummary().c_str());

  std::string failpoints = FailpointRegistry::Global().Summary();
  if (!failpoints.empty()) {
    std::printf("\n== active failpoints (DISC_FAILPOINTS) ==\n%s",
                failpoints.c_str());
  }
  return 0;
}
