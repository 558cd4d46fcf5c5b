//===-- perfbench/src/replay.cpp - Traced per-layer replay -----*- C++ -*-===//

#include "replay.h"

#include "query/flow_index.h"
#include "query/query_engine.h"
#include "serve/serve.h"

#include <algorithm>
#include <memory>
#include <mutex>

using namespace spidey;

namespace perfbench {
namespace {

/// Times the constraint store from outside: every probe, hit and byte
/// the analyzer's step-1 workers load through it. Workers call it
/// concurrently, so the counters sit behind a mutex.
class TimedStore final : public ConstraintStore {
public:
  struct Counts {
    uint64_t Probes = 0, Hits = 0, LoadedBytes = 0;
    double LoadMs = 0;
  };

  explicit TimedStore(MemoryConstraintStore &Backing) : Backing(Backing) {}

  std::optional<std::string> load(const std::string &Key) override {
    double T0 = nowMs();
    std::optional<std::string> Text = Backing.load(Key);
    double Ms = nowMs() - T0;
    std::lock_guard<std::mutex> Lock(M);
    ++Cur.Probes;
    Cur.LoadMs += Ms;
    if (Text) {
      ++Cur.Hits;
      Cur.LoadedBytes += Text->size();
    }
    return Text;
  }
  void store(const std::string &Key, const std::string &Text) override {
    Backing.store(Key, Text);
  }

  /// The counts since the previous take().
  Counts take() {
    std::lock_guard<std::mutex> Lock(M);
    Counts Out = Cur;
    Cur = Counts{};
    return Out;
  }

private:
  MemoryConstraintStore &Backing;
  std::mutex M;
  Counts Cur;
};

/// The serve session's analysis state, rebuilt from public layer calls
/// in the order ServeSession::ensureAnalyzed makes them.
struct ReplaySession {
  MemoryConstraintStore Store;
  TimedStore View{Store};
  std::unique_ptr<CancelToken> Token = std::make_unique<CancelToken>();
  std::vector<SourceFile> Files;
  std::unique_ptr<Program> Prog;
  std::unique_ptr<ComponentialAnalyzer> CA;
  QueryEngine Queries; ///< borrows Prog and CA; destroyed first
  bool Dirty = true;
  /// Per component, the text its last probe sweep saw.
  std::vector<std::string> SweptText;
  /// Mean reconstruct + runChecks cost of one component this generation.
  double PerComponentMs = 0;
};

double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / double(V.size());
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

/// Per-layer metrics: name -> unit, every one reported on every workload.
const std::vector<std::pair<const char *, const char *>> LayerMetrics = {
    {"lang.parse_ms", "ms"},
    {"lang.parsed_bytes", "bytes"},
    {"analysis.derive_ms", "ms"},
    {"analysis.instantiated_constraints", "count"},
    {"analysis.bulk_cloned_constraints", "count"},
    {"analysis.schema_intern_hits", "count"},
    {"simplify.kept_ratio", "ratio"},
    {"simplify.file_bytes", "bytes"},
    {"componential.run_ms", "ms"},
    {"componential.run_unattributed_ms", "ms"},
    {"componential.merge_ms", "ms"},
    {"componential.close_ms", "ms"},
    {"componential.rederived", "count"},
    {"componential.reused", "count"},
    {"componential.combined_constraints", "count"},
    {"componential.store_load_ms", "ms"},
    {"componential.store_hit_ratio", "ratio"},
    {"componential.store_loaded_bytes", "bytes"},
    {"componential.store_bytes", "bytes"},
    {"componential.reconstruct_ms", "ms"},
    {"componential.reconstruct_sweep_ms", "ms"},
    {"componential.reconstruct_constraints", "count"},
    {"debugger.run_checks_ms", "ms"},
    {"constraints.combines_attempted", "count"},
    {"constraints.combines_inserted", "count"},
    {"constraints.dedup_hit_rate", "ratio"},
    {"constraints.eps_sccs_collapsed", "count"},
    {"constraints.tasks_drained", "count"},
    {"query.index_build_ms", "ms"},
    {"query.first_flow_ms", "ms"},
    {"query.flow_ms", "ms"},
    {"query.memo_hit_ratio", "ratio"},
    {"query.check_summary_ms", "ms"},
    {"query.rechecked", "count"},
    {"query.verdicts_reused", "count"},
};

const char *const Kinds[] = {"analyze", "check_summary", "flow", "first_flow"};

} // namespace

std::map<std::string, Metric> replayTraced(const Workload &W, RunResult &Run) {
  // Samples per metric; each metric reports the mean of its samples.
  std::map<std::string, std::vector<double>> S;
  // Per request kind: end-to-end latency, and the time of the named
  // phases the replay attributed to the same request.
  std::map<std::string, std::vector<double>> E2E, Attributed;
  double TracedMs = 0, UntracedMs = 0;
  uint64_t Flows = 0, MemoHits = 0;

  auto mismatch = [&](const std::string &What) {
    noteFailure(Run, "traced replay differs from the session: " + What);
  };

  std::unique_ptr<ReplaySession> RS;
  auto fresh = [&](const std::vector<SourceFile> &Files) {
    RS.reset();
    double T0 = nowMs();
    RS = std::make_unique<ReplaySession>();
    RS->Files = Files;
    return nowMs() - T0;
  };
  // One analyze pass, as ServeSession::ensureAnalyzed makes it. Records
  // the layer samples when \p WantHash is set (the session's combined
  // text hash to match); returns the time of the named phases.
  auto analyze = [&](const uint64_t *WantHash) -> double {
    auto NewProg = std::make_unique<Program>();
    DiagnosticEngine Diags;
    double T0 = nowMs();
    bool Parsed = parseProgram(*NewProg, Diags, RS->Files);
    double ParseMs = nowMs() - T0;
    if (!Parsed) {
      mismatch("parse failed");
      return 0.0;
    }
    RS->CA.reset();
    RS->Prog = std::move(NewProg);
    RS->Token = std::make_unique<CancelToken>();
    RS->View.take();
    ComponentialOptions CO = sessionOptions(&RS->View, RS->Token.get());
    double T1 = nowMs();
    RS->CA = std::make_unique<ComponentialAnalyzer>(*RS->Prog, CO);
    RS->CA->run();
    double RunMs = nowMs() - T1;
    const ComponentialRunInfo &Info = RS->CA->runInfo();
    RS->Dirty = Info.Cancelled || Info.MergedOffText;
    double T2 = nowMs();
    RS->Queries.rebind(*RS->Prog, *RS->CA, RS->Token.get(), RS->Dirty,
                       CO.Derive.Poly == PolyMode::Mono,
                       RS->CA->optionsFingerprint());
    double RebindMs = nowMs() - T2;
    TracedMs += ParseMs + RunMs + RebindMs;

    // Counters, read outside the timed calls.
    size_t Bytes = 0;
    for (const SourceFile &F : RS->Files)
      Bytes += F.Text.size();
    S["lang.parse_ms"].push_back(ParseMs);
    S["lang.parsed_bytes"].push_back(double(Bytes));
    S["analysis.derive_ms"].push_back(Info.DeriveMs);
    S["analysis.instantiated_constraints"].push_back(
        double(Info.Derive.InstantiatedConstraints));
    S["analysis.bulk_cloned_constraints"].push_back(
        double(Info.Derive.BulkClonedConstraints));
    S["analysis.schema_intern_hits"].push_back(
        double(Info.Derive.SchemaInternHits));
    S["componential.run_ms"].push_back(RunMs);
    S["componential.run_unattributed_ms"].push_back(
        RunMs - Info.DeriveMs - Info.MergeMs - Info.CloseMs);
    S["componential.merge_ms"].push_back(Info.MergeMs);
    S["componential.close_ms"].push_back(Info.CloseMs);
    S["componential.combined_constraints"].push_back(
        double(RS->CA->combined().size()));
    const ClosureStats &CS = Info.Closure;
    S["constraints.combines_attempted"].push_back(
        double(CS.CombinesAttempted));
    S["constraints.combines_inserted"].push_back(
        double(CS.CombinesInserted));
    S["constraints.dedup_hit_rate"].push_back(CS.dedupHitRate());
    S["constraints.eps_sccs_collapsed"].push_back(
        double(CS.EpsSccsCollapsed));
    S["constraints.tasks_drained"].push_back(double(CS.TasksDrained));
    double Rederived = 0, Reused = 0, Raw = 0, Kept = 0;
    for (const ComponentRunStats &C : RS->CA->componentStats()) {
      if (C.ReusedFile) {
        ++Reused;
        continue;
      }
      ++Rederived;
      Raw += double(C.RawConstraints);
      Kept += double(C.SimplifiedConstraints);
      S["simplify.file_bytes"].push_back(double(C.FileBytes));
    }
    S["componential.rederived"].push_back(Rederived);
    S["componential.reused"].push_back(Reused);
    if (Raw > 0)
      S["simplify.kept_ratio"].push_back(Kept / Raw);
    TimedStore::Counts Store = RS->View.take();
    S["componential.store_load_ms"].push_back(Store.LoadMs);
    if (Store.Probes)
      S["componential.store_hit_ratio"].push_back(double(Store.Hits) /
                                                  double(Store.Probes));
    S["componential.store_loaded_bytes"].push_back(
        double(Store.LoadedBytes));
    S["componential.store_bytes"].push_back(double(RS->Store.bytes()));

    if (WantHash && fnv1a(RS->CA->combined().str()) != *WantHash)
      mismatch("combined text after analyze");
    RS->PerComponentMs = 0;
    return ParseMs + Info.DeriveMs + Info.MergeMs + Info.CloseMs;
  };

  // The resident workloads start from the session's warm set-up: one
  // analyze and one check summary over the original sources.
  if (W.resident()) {
    fresh(W.programs().front().Files);
    analyze(nullptr);
    RS->Queries.checkSummary();
    for (const Component &C : RS->Prog->Components)
      RS->SweptText.push_back(C.SourceText);
    S.clear();
    TracedMs = 0;
  }

  double PendingE2E = 0, PendingTraced = 0;
  for (size_t I = 0; I < Run.Steps.size(); ++I) {
    const Step &St = Run.Steps[I];
    UntracedMs += Run.StepMs[I];
    std::optional<json::Value> Resp;
    if (St.Kind != StepKind::Open)
      Resp = json::Value::parse(Run.Responses[I]);

    switch (St.Kind) {
    case StepKind::Open: {
      double Ms = fresh(W.programs()[St.Program].Files);
      TracedMs += Ms;
      PendingE2E += Run.StepMs[I];
      PendingTraced += Ms;
      break;
    }
    case StepKind::Edit: {
      double T0 = nowMs();
      for (SourceFile &F : RS->Files)
        if (F.Name == St.File && F.Text != St.Text) {
          F.Text = St.Text;
          RS->Dirty = true;
        }
      double Ms = nowMs() - T0;
      TracedMs += Ms;
      PendingE2E += Run.StepMs[I];
      PendingTraced += Ms;
      break;
    }
    case StepKind::Analyze: {
      double Attr = 0;
      if (RS->Dirty || !RS->CA)
        Attr = analyze(&Run.CombinedHash[I]);
      E2E["analyze"].push_back(PendingE2E + Run.StepMs[I]);
      Attributed["analyze"].push_back(PendingTraced + Attr);
      PendingE2E = PendingTraced = 0;
      break;
    }
    case StepKind::CheckSummary: {
      RS->Token->rearm(0, 0);
      double T0 = nowMs();
      QueryEngine::SummaryAnswer Ans = RS->Queries.checkSummary();
      double Ms = nowMs() - T0;
      TracedMs += Ms;
      S["query.check_summary_ms"].push_back(Ms);
      S["query.rechecked"].push_back(Ans.Rechecked);
      S["query.verdicts_reused"].push_back(Ans.Reused);
      const json::Value *Text = Resp ? Resp->find("summary") : nullptr;
      if (!Text || Text->asString() != Ans.Summary)
        mismatch("check-summary text");

      // The engine hides which components it re-checked. Probe the ones
      // whose text changed since the last probe with the same public
      // reconstruct + runChecks calls, and attribute their per-component
      // cost to each component the engine re-checked.
      const Program &P = *RS->Prog;
      RS->SweptText.resize(P.Components.size());
      std::vector<uint32_t> Changed;
      for (uint32_t C = 0; C < P.Components.size(); ++C)
        if (RS->SweptText[C] != P.Components[C].SourceText)
          Changed.push_back(C);
      if (Ans.Rechecked && !Changed.empty()) {
        SweepTimes T;
        referenceSweep(P, *RS->CA, Changed, &T);
        for (size_t K = 0; K < Changed.size(); ++K) {
          RS->SweptText[Changed[K]] = P.Components[Changed[K]].SourceText;
          S["componential.reconstruct_ms"].push_back(T.ReconstructMs[K]);
          S["debugger.run_checks_ms"].push_back(T.ChecksMs[K]);
          S["componential.reconstruct_constraints"].push_back(
              T.ReconstructConstraints[K]);
        }
        S["componential.reconstruct_sweep_ms"].push_back(sum(T.ReconstructMs));
        RS->PerComponentMs =
            (sum(T.ReconstructMs) + sum(T.ChecksMs)) / double(Changed.size());
      }
      E2E["check_summary"].push_back(Run.StepMs[I]);
      Attributed["check_summary"].push_back(RS->PerComponentMs *
                                            Ans.Rechecked);
      break;
    }
    case StepKind::Flow: {
      RS->Token->rearm(0, 0);
      uint64_t BuildsBefore = RS->Queries.stats().IndexBuilds;
      double T0 = nowMs();
      QueryEngine::FlowAnswer Ans = RS->Queries.flow(St.Name);
      double Ms = nowMs() - T0;
      TracedMs += Ms;
      ++Flows;
      MemoHits += Ans.FromSummary;
      S["query.flow_ms"].push_back(Ms);
      json::Value A = json::Value::object();
      A.set("var", Ans.Var);
      json::Value K = json::Value::array();
      for (const std::string &N : Ans.Kinds)
        K.push(N);
      A.set("kinds", std::move(K));
      A.set("parents", Ans.Parents);
      A.set("children", Ans.Children);
      A.set("ancestors", Ans.Ancestors);
      A.set("descendants", Ans.Descendants);
      if (!Resp || flowPayload(*Resp) != flowPayload(A))
        mismatch("flow " + St.Name);

      // Named phases of a flow: the index build, when this query made the
      // engine build its index (timed on a replay-owned twin), and the two
      // reachability walks unless the answer was memoized (timed on the
      // engine's own index).
      double Attr = 0;
      if (RS->Queries.stats().IndexBuilds > BuildsBefore) {
        FlowIndex Twin;
        double B0 = nowMs();
        Twin.build(RS->CA->combined());
        double BuildMs = nowMs() - B0;
        S["query.index_build_ms"].push_back(BuildMs);
        Attr += BuildMs;
      }
      if (!Ans.FromSummary && Ans.Var != NoSetVar) {
        double W0 = nowMs();
        RS->Queries.index().ancestors(Ans.Var, nullptr);
        RS->Queries.index().descendants(Ans.Var, nullptr);
        Attr += nowMs() - W0;
      }
      E2E["flow"].push_back(Run.StepMs[I]);
      Attributed["flow"].push_back(Attr);
      if (St.FirstFlow) {
        S["query.first_flow_ms"].push_back(Ms);
        E2E["first_flow"].push_back(Run.StepMs[I]);
        Attributed["first_flow"].push_back(Attr);
      }
      break;
    }
    }
  }
  RS.reset();

  std::map<std::string, Metric> Out;
  for (const auto &[Name, Unit] : LayerMetrics)
    Out[Name] = Metric{mean(S[Name]), Unit};
  Out["query.memo_hit_ratio"].Value =
      Flows ? double(MemoHits) / double(Flows) : 0;
  for (const char *Kind : Kinds) {
    double E = median(E2E[Kind]), A = median(Attributed[Kind]);
    Out[std::string("serve.unattributed_ms.") + Kind] = Metric{E - A, "ms"};
    Out[std::string("serve.attributed_share.") + Kind] =
        Metric{E > 0 ? A / E : 0, "ratio"};
  }
  Out["trace.overhead_share"] =
      Metric{UntracedMs > 0 ? TracedMs / UntracedMs - 1 : 0, "ratio"};
  return Out;
}

} // namespace perfbench
