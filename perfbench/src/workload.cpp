//===-- perfbench/src/workload.cpp - Seeded serve workloads ----*- C++ -*-===//

#include "workload.h"

#include "constraints/const_kind.h"
#include "corpus/corpus.h"
#include "debugger/checks.h"
#include "debugger/flow.h"
#include "serve/serve.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <unordered_set>

using namespace spidey;

namespace perfbench {

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xCBF29CE484222325ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001B3ull;
  }
  return H;
}

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

unsigned nproc() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return 1;
}



ComponentialOptions sessionOptions(ConstraintStore *Store,
                                   CancelToken *Cancel) {
  ServeOptions Serve; // the serve defaults, field by field
  ComponentialOptions CO;
  CO.Simplify = Serve.Simplify;
  CO.Derive = Serve.Derive;
  CO.Threads = BenchThreads;
  CO.MemStore = Store;
  CO.MergeViaFiles = true;
  CO.Cancel = Cancel;
  return CO;
}

std::string referenceSweep(const Program &P, ComponentialAnalyzer &CA,
                           const std::vector<uint32_t> &Comps,
                           SweepTimes *Times) {
  DebugReport All;
  for (uint32_t I : Comps) {
    double T0 = nowMs();
    std::unique_ptr<ConstraintSystem> Full = CA.reconstruct(I);
    double T1 = nowMs();
    DebugReport Part = runChecks(P, CA.maps(), *Full);
    double T2 = nowMs();
    if (Times) {
      Times->ReconstructMs.push_back(T1 - T0);
      Times->ChecksMs.push_back(T2 - T1);
      Times->ReconstructConstraints.push_back(double(Full->size()));
    }
    for (CheckResult &CR : Part.Results)
      if (CR.Loc.File == I)
        All.Results.push_back(std::move(CR));
  }
  return All.summary(P);
}

std::string flowPayload(const json::Value &R) {
  auto num = [&](const char *Key) {
    const json::Value *V = R.find(Key);
    return json::Value(V ? V->asNumber() : -1.0).dump();
  };
  std::string Out = "var=" + num("var") + " kinds=";
  if (const json::Value *K = R.find("kinds"))
    for (const json::Value &E : K->items())
      Out += E.asString() + ",";
  for (const char *Key : {"parents", "children", "ancestors", "descendants"})
    Out += std::string(" ") + Key + "=" + num(Key);
  return Out;
}

void noteFailure(RunResult &Res, std::string What) {
  ++Res.Failed;
  if (Res.Failures.size() < 8)
    Res.Failures.push_back(std::move(What));
}

//===----------------------------------------------------------------------===//
// Programs and scripts
//===----------------------------------------------------------------------===//

namespace {

const char *const AppendMarker = "\n;; perfbench edit\n";

/// cold-open opens programs from shuffled decks of twenty distinct
/// programs in this size mix, and a run ends only between decks: every
/// run opens the same mix, the same program is rarely opened twice in a
/// row, and each latency percentile lands inside one size class instead
/// of between two. The p50s fall among the zodiac opens; sba is the top
/// fifth, so analyze_ms.p90 is the median of the sba opens. sba comes
/// first, so programs().front() is the calibrated sba program on every
/// workload.
const std::vector<std::pair<const char *, unsigned>> OpenDeck = {
    {"sba", 4}, {"zodiac", 13}, {"scanner", 3}};

constexpr unsigned OpenFlows = 8;      ///< flows per cold-open program
constexpr unsigned EditFlows = 4;      ///< flows per edit-loop cycle
constexpr unsigned MixReads = 100;     ///< reads per query-mix cycle
constexpr unsigned MixSummaryEvery = 25; ///< every 25th read is a summary
/// peak_rss_mb is read after this many cycles, which every timed run
/// reaches (it needs 100 analyze samples). The session's store keeps every
/// component image an edit makes, so a peak read at the end of the run
/// would grow with the number of cycles, and a faster analyze would read
/// as a higher peak.
constexpr uint64_t RssCycles = 100;

std::string requestLine(const char *Cmd) {
  json::Value R = json::Value::object();
  R.set("cmd", Cmd);
  return R.dump();
}

std::string flowLine(const std::string &Name) {
  json::Value R = json::Value::object();
  R.set("cmd", "flow");
  R.set("name", Name);
  return R.dump();
}

template <typename T> void shuffle(std::vector<T> &V, Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[R.below(I)]);
}

/// Variant \p Variant of the calibrated program of a size (corpus
/// benchmarkConfig: the paper's line and file counts; variant 0 is the
/// calibrated program itself). Its names are ordered by \p R, so the
/// workload seed decides which names are hot.
BenchProgram makeProgram(const std::string &Size, unsigned Variant, Rng &R) {
  GeneratorConfig G = benchmarkConfig(Size);
  G.Seed += Variant;
  BenchProgram BP;
  BP.Size = Size;
  BP.Files = generateProgram(G);
  Program P;
  DiagnosticEngine Diags;
  if (parseProgram(P, Diags, BP.Files)) {
    for (const VarInfo &V : P.Vars)
      if (V.TopLevel)
        BP.Names.push_back(P.Syms.name(V.Name));
  }
  std::sort(BP.Names.begin(), BP.Names.end());
  BP.Names.erase(std::unique(BP.Names.begin(), BP.Names.end()),
                 BP.Names.end());
  shuffle(BP.Names, R);
  return BP;
}

/// Positions of the integer literals of \p Text outside comments.
std::vector<std::pair<size_t, size_t>> literalSpans(const std::string &Text) {
  std::vector<std::pair<size_t, size_t>> Spans;
  auto Delim = [](char C) {
    return C == ' ' || C == '\n' || C == '\t' || C == '(' || C == ')' ||
           C == '[' || C == ']';
  };
  size_t I = 0, N = Text.size();
  while (I < N) {
    if (Text[I] == ';') {
      while (I < N && Text[I] != '\n')
        ++I;
      continue;
    }
    if (Delim(Text[I])) {
      ++I;
      continue;
    }
    size_t Start = I;
    bool Digits = true;
    while (I < N && !Delim(Text[I]) && Text[I] != ';') {
      Digits &= Text[I] >= '0' && Text[I] <= '9';
      ++I;
    }
    if (Digits)
      Spans.emplace_back(Start, I - Start);
  }
  return Spans;
}

} // namespace

bool Workload::known(const std::string &Name) {
  return Name == "cold-open" || Name == "edit-loop" || Name == "query-mix";
}

Workload::Workload(std::string N, uint64_t S) : Name(std::move(N)), Seed(S) {}

void Workload::setUp() {
  R = Rng(Seed * 0x9E3779B97F4A7C15ull + fnv1a(Name));
  Programs.clear();
  Current.clear();
  History.clear();
  Deck.clear();
  Asked.clear();
  ColdCursor = 0;
  EditCount = 0;
  if (!resident()) {
    for (const auto &[Size, Count] : OpenDeck)
      for (unsigned V = 0; V < Count; ++V)
        Programs.push_back(makeProgram(Size, V, R));
    return;
  }
  Programs.push_back(makeProgram("sba", 0, R));
  for (const SourceFile &F : Programs.front().Files) {
    Current.push_back(F.Text);
    History.push_back({F.Text});
  }
}

void Workload::nextCycle(std::vector<Step> &Out) {
  if (resident())
    residentCycle(Out);
  else
    openCycle(Out);
}

std::string Workload::pickName(const std::vector<std::string> &Names) {
  // Zipf(1) over the seeded name order: a few hot names, a long tail.
  double Total = 0;
  for (size_t I = 0; I < Names.size(); ++I)
    Total += 1.0 / double(I + 1);
  double U = R.unit() * Total;
  size_t Pick = Names.size() - 1;
  for (size_t I = 0; I < Names.size(); ++I) {
    U -= 1.0 / double(I + 1);
    if (U < 0) {
      Pick = I;
      break;
    }
  }
  Asked.insert(Names[Pick]);
  return Names[Pick];
}

std::string Workload::freshName(const std::vector<std::string> &Names) {
  // Walk the name order from its cold end, skipping names this session
  // has asked for: the engine has no memoized answer for the result, so
  // every first flow pays the same index build and walks.
  for (size_t Tries = 0; Tries < Names.size(); ++Tries) {
    const std::string &N = Names[Names.size() - 1 - ColdCursor % Names.size()];
    ++ColdCursor;
    if (Asked.insert(N).second)
      return N;
  }
  Asked.clear();
  return freshName(Names);
}

void Workload::openCycle(std::vector<Step> &Out) {
  if (Deck.empty()) {
    for (uint32_t I = 0; I < Programs.size(); ++I)
      Deck.push_back(I);
    shuffle(Deck, R);
  }
  uint32_t Index = Deck.back();
  Deck.pop_back();
  const BenchProgram &BP = Programs[Index];
  Asked.clear(); // a fresh session has answered nothing yet

  Step Open;
  Open.Kind = StepKind::Open;
  Open.Program = Index;
  Out.push_back(Open);
  Step Analyze;
  Analyze.Line = requestLine("analyze");
  Analyze.Check = R.below(10) == 0;
  Out.push_back(Analyze);
  Step Summary;
  Summary.Kind = StepKind::CheckSummary;
  Summary.Line = requestLine("check-summary");
  Out.push_back(Summary);
  for (unsigned I = 0; I < OpenFlows; ++I) {
    Step F;
    F.Kind = StepKind::Flow;
    F.Name = I == 0 ? freshName(BP.Names) : pickName(BP.Names);
    F.Line = flowLine(F.Name);
    F.FirstFlow = I == 0;
    Out.push_back(F);
  }
}

Step Workload::makeEdit() {
  const BenchProgram &BP = Programs.front();
  size_t F = R.below(BP.Files.size());
  std::string &Text = Current[F];
  std::string New;
  uint64_t Kind = R.below(4); // 0,1: body; 2: new define; 3: undo
  if (Kind == 3) {
    std::vector<const std::string *> Earlier;
    for (const std::string &H : History[F])
      if (H != Text)
        Earlier.push_back(&H);
    if (Earlier.empty())
      Kind = 0;
    else
      New = *Earlier[R.below(Earlier.size())];
  }
  if (Kind == 2) {
    size_t Cut = Text.find(AppendMarker);
    New = Text.substr(0, Cut) + AppendMarker + "(define (perfbench-edit-" +
          std::to_string(++EditCount) + " x) (+ x " +
          std::to_string(R.below(100)) + "))\n";
  }
  if (Kind < 2) {
    // A body edit: one integer literal changes, the interface does not.
    std::vector<std::pair<size_t, size_t>> Spans = literalSpans(Text);
    auto [Pos, Len] = Spans[R.below(Spans.size())];
    std::string Old = Text.substr(Pos, Len);
    std::string Lit = std::to_string(R.below(100));
    if (Lit == Old)
      Lit += "1";
    New = Text.substr(0, Pos) + Lit + Text.substr(Pos + Len);
  }
  Text = New;
  History[F].push_back(New);
  if (History[F].size() > 6)
    History[F].erase(History[F].begin() + 1); // keep the original text

  Step E;
  E.Kind = StepKind::Edit;
  E.File = BP.Files[F].Name;
  E.Text = New;
  json::Value Req = json::Value::object();
  Req.set("cmd", "edit");
  Req.set("file", E.File);
  Req.set("text", E.Text);
  E.Line = Req.dump();
  return E;
}

void Workload::residentCycle(std::vector<Step> &Out) {
  const BenchProgram &BP = Programs.front();
  Out.push_back(makeEdit());
  Step Analyze;
  Analyze.Line = requestLine("analyze");
  Analyze.Check = R.below(Name == "edit-loop" ? 25 : 20) == 0;
  Out.push_back(Analyze);

  Step Summary;
  Summary.Kind = StepKind::CheckSummary;
  Summary.Line = requestLine("check-summary");
  auto pushFlow = [&](bool First) {
    Step F;
    F.Kind = StepKind::Flow;
    F.Name = First ? freshName(BP.Names) : pickName(BP.Names);
    F.Line = flowLine(F.Name);
    F.FirstFlow = First;
    Out.push_back(F);
  };
  if (Name == "edit-loop") {
    Out.push_back(Summary);
    for (unsigned I = 0; I < EditFlows; ++I)
      pushFlow(I == 0);
    return;
  }
  for (unsigned I = 0; I < MixReads; ++I) {
    if (I % MixSummaryEvery == MixSummaryEvery - 1)
      Out.push_back(Summary);
    else
      pushFlow(I == 0);
  }
}

//===----------------------------------------------------------------------===//
// The closed loop
//===----------------------------------------------------------------------===//

namespace {

/// What a verified generation must reproduce. Texts are kept as FNV-1a
/// hashes and sources not at all (they are rebuilt from the script after
/// the loop), so the checkpoints add next to nothing to peak_rss_mb.
struct Checkpoint {
  uint32_t Program = 0;  ///< cold-open: the program opened
  uint64_t Cycle = 0;    ///< resident workloads: script cycles applied
  uint64_t Combined = 0; ///< resident workloads: hash of combinedText()
  uint64_t Summary = 0;  ///< hash of the check-summary text
  bool HaveSummary = false;
  /// name -> normalized flow payload, in first-asked order.
  std::vector<std::pair<std::string, std::string>> Flows;
};

/// The flow payload of the debugger's whole-program FlowGraph browser.
std::string referencePayload(const Program &P, ComponentialAnalyzer &CA,
                             const FlowGraph &FG, const std::string &Name) {
  VarId Def = NoVar;
  for (VarId V = 0; V < P.numVars() && Def == NoVar; ++V)
    if (P.var(V).TopLevel && P.Syms.name(P.var(V).Name) == Name)
      Def = V;
  if (Def == NoVar)
    return "unknown name";
  SetVar A = CA.maps().varVar(Def);
  const ConstraintSystem &S = CA.combined();
  std::vector<std::string> Kinds;
  if (A != NoSetVar)
    for (Constant C : S.constantsOf(A))
      Kinds.push_back(constKindName(S.context().Constants.kind(C)));
  std::sort(Kinds.begin(), Kinds.end());
  Kinds.erase(std::unique(Kinds.begin(), Kinds.end()), Kinds.end());
  json::Value R = json::Value::object();
  R.set("var", A);
  json::Value KV = json::Value::array();
  for (const std::string &K : Kinds)
    KV.push(K);
  R.set("kinds", std::move(KV));
  bool Bound = A != NoSetVar;
  R.set("parents", Bound ? FG.parents(A).size() : 0);
  R.set("children", Bound ? FG.children(A).size() : 0);
  R.set("ancestors", Bound ? FG.ancestors(A).size() : 0);
  R.set("descendants", Bound ? FG.descendants(A).size() : 0);
  return flowPayload(R);
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  return 0;
}

bool parseProgramOrNote(RunResult &Res, Program &P,
                        const std::vector<SourceFile> &Files) {
  DiagnosticEngine Diags;
  if (parseProgram(P, Diags, Files))
    return true;
  noteFailure(Res, "reference parse failed: " + Diags.str());
  return false;
}

void compare(RunResult &Res, const std::string &What, const std::string &Got,
             const std::string &Want) {
  ++Res.Checked;
  if (Got != Want)
    noteFailure(Res, What + ": session answer differs from the reference");
}

/// Compares a hash the session's answer recorded with a reference text.
void compare(RunResult &Res, const std::string &What, uint64_t Got,
             const std::string &Want) {
  ++Res.Checked;
  if (Got != fnv1a(Want))
    noteFailure(Res, What + ": session answer differs from the reference");
}

/// Checks one cold-open program: the summary against a fresh analyzer's
/// reconstruct + runChecks sweep, the flows against a FlowGraph.
void checkOpen(RunResult &Res, const Checkpoint &CP,
               const BenchProgram &BP) {
  Program P;
  if (!parseProgramOrNote(Res, P, BP.Files))
    return;
  ComponentialAnalyzer CA(P, sessionOptions(nullptr, nullptr));
  CA.run();
  std::vector<uint32_t> All(P.Components.size());
  for (uint32_t I = 0; I < All.size(); ++I)
    All[I] = I;
  std::string Ref = referenceSweep(P, CA, All, nullptr);
  compare(Res, "cold-open check-summary", CP.Summary, Ref);
  FlowGraph FG(CA.combined());
  for (const auto &[Name, Payload] : CP.Flows)
    compare(Res, "cold-open flow " + Name, Payload,
            referencePayload(P, CA, FG, Name));
}

/// Checks one edit-loop generation against a fresh cold session over the
/// same sources: combined text, check summary and flows.
void checkEdit(RunResult &Res, const Checkpoint &CP,
               const std::vector<SourceFile> &Files) {
  ServeOptions Opts;
  Opts.Threads = BenchThreads;
  ServeSession Cold(Opts);
  Cold.setFiles(Files);
  compare(Res, "edit-loop combined text", CP.Combined, Cold.combinedText());
  std::optional<json::Value> Sum = json::Value::parse(
      Cold.handleLine(requestLine("check-summary")));
  const json::Value *Text = Sum ? Sum->find("summary") : nullptr;
  compare(Res, "edit-loop check-summary", CP.Summary,
          Text ? Text->asString() : std::string("no summary"));
  for (const auto &[Name, Payload] : CP.Flows) {
    std::optional<json::Value> F =
        json::Value::parse(Cold.handleLine(flowLine(Name)));
    compare(Res, "edit-loop flow " + Name, Payload,
            F ? flowPayload(*F) : std::string("no answer"));
  }
}

/// Checks one query-mix generation: the combined system equals a fresh
/// analyzer's, and every flow answer matches a FlowGraph over it.
void checkMix(RunResult &Res, const Checkpoint &CP,
              const std::vector<SourceFile> &Files) {
  Program P;
  if (!parseProgramOrNote(Res, P, Files))
    return;
  ComponentialAnalyzer CA(P, sessionOptions(nullptr, nullptr));
  CA.run();
  compare(Res, "query-mix combined system", CP.Combined, CA.combined().str());
  FlowGraph FG(CA.combined());
  for (const auto &[Name, Payload] : CP.Flows)
    compare(Res, "query-mix flow " + Name, Payload,
            referencePayload(P, CA, FG, Name));
}

std::string openLogLine(uint32_t Index, const BenchProgram &BP) {
  std::string All;
  for (const SourceFile &F : BP.Files)
    All += F.Name + '\0' + F.Text + '\0';
  char Hash[17];
  std::snprintf(Hash, sizeof(Hash), "%016llx",
                static_cast<unsigned long long>(fnv1a(All)));
  json::Value R = json::Value::object();
  R.set("open", Index);
  R.set("size", BP.Size);
  R.set("files", BP.Files.size());
  R.set("fnv1a", std::string(Hash));
  return R.dump();
}

} // namespace

RunResult runWorkload(const RunConfig &C, Workload &W) {
  RunResult Res;
  ServeOptions Opts;
  Opts.Threads = BenchThreads;
  std::unique_ptr<ServeSession> S;
  auto expectOk = [&](const std::string &Resp, const char *What) {
    std::optional<json::Value> V = json::Value::parse(Resp);
    const json::Value *Ok = V ? V->find("ok") : nullptr;
    if (!Ok || !Ok->asBool() || V->find("degraded"))
      noteFailure(Res, std::string(What) + " failed: " + Resp.substr(0, 200));
    return V;
  };

  // Set-up, repeated so its median is steady: a session over the
  // calibrated sba program, its first analyze and its first check summary.
  // Resident workloads keep the last one; cold-open uses them to warm the
  // process.
  // Generating the programs is input preparation and is not timed.
  W.setUp();
  for (unsigned Rep = 0; Rep < SetupReps; ++Rep) {
    S.reset();
    double T0 = nowMs();
    S = std::make_unique<ServeSession>(Opts);
    S->setFiles(W.programs().front().Files);
    expectOk(S->handleLine(requestLine("analyze")), "set-up analyze");
    expectOk(S->handleLine(requestLine("check-summary")),
             "set-up check-summary");
    Res.SetupS.push_back((nowMs() - T0) / 1000.0);
  }
  if (!W.resident())
    S.reset();

  std::ofstream Log;
  if (!C.LogPath.empty())
    Log.open(C.LogPath, std::ios::binary | std::ios::trunc);

  std::vector<Checkpoint> Checks;
  Checkpoint Gen;
  bool GenChecked = false;
  auto closeGeneration = [&](bool Force) {
    if (GenChecked || Force)
      Checks.push_back(std::move(Gen));
    Gen = Checkpoint{};
    GenChecked = false;
  };

  const double BudgetMs = C.Seconds * 1000.0;
  const double WallCapMs = BudgetMs + 90'000.0;
  const double LoopStart = nowMs();
  double PendingMs = 0; // open/edit time charged to the next analyze
  uint64_t Cycles = 0;
  std::vector<Step> Cycle;
  for (;;) {
    if (C.Cycles) {
      if (Cycles >= C.Cycles)
        break;
    } else {
      // Run the budget, then on until every reported percentile has at
      // least ten samples beyond it (p90: 100 samples; p50: 20) and the
      // script is between blocks.
      bool Enough = Res.AnalyzeMs.size() >= 100 && Res.FlowMs.size() >= 100 &&
                    Res.CheckSummaryMs.size() >= 20 &&
                    Res.FirstFlowMs.size() >= 20;
      double Measured = Res.MeasuredS * 1000.0;
      if ((Measured >= BudgetMs && Enough && W.atBlockEnd()) ||
          nowMs() - LoopStart > WallCapMs)
        break;
    }
    Cycle.clear();
    W.nextCycle(Cycle);
    ++Cycles;
    for (Step &St : Cycle) {
      std::string Resp;
      double Ms = 0;
      if (St.Kind == StepKind::Open) {
        S.reset();
        double T0 = nowMs();
        S = std::make_unique<ServeSession>(Opts);
        S->setFiles(W.programs()[St.Program].Files);
        Ms = nowMs() - T0;
      } else {
        double T0 = nowMs();
        Resp = S->handleLine(St.Line);
        Ms = nowMs() - T0;
        ++Res.Requests;
      }
      Res.MeasuredS += Ms / 1000.0;

      // Everything below is outside the timed region.
      if (Log.is_open())
        Log << (St.Kind == StepKind::Open
                    ? openLogLine(St.Program, W.programs()[St.Program])
                    : St.Line)
            << '\n';
      std::optional<json::Value> V;
      if (St.Kind != StepKind::Open)
        V = expectOk(Resp, St.Line.substr(0, 40).c_str());
      uint64_t Hash = 0;
      switch (St.Kind) {
      case StepKind::Open:
      case StepKind::Edit:
        PendingMs += Ms;
        break;
      case StepKind::Analyze:
        Res.AnalyzeMs.push_back(PendingMs + Ms);
        PendingMs = 0;
        closeGeneration(false);
        GenChecked = St.Check;
        Gen.Program = Cycle.front().Program;
        Gen.Cycle = Cycles;
        if (C.Trace || (W.resident() && St.Check))
          Hash = fnv1a(S->combinedText());
        Gen.Combined = Hash;
        break;
      case StepKind::CheckSummary: {
        Res.CheckSummaryMs.push_back(Ms);
        const json::Value *T = V ? V->find("summary") : nullptr;
        uint64_t Text = fnv1a(T ? T->asString() : std::string());
        if (!Gen.HaveSummary) {
          Gen.Summary = Text;
          Gen.HaveSummary = true;
        } else {
          ++Res.Checked;
          if (Text != Gen.Summary)
            noteFailure(Res, "repeated check-summary differs");
        }
        break;
      }
      case StepKind::Flow: {
        Res.FlowMs.push_back(Ms);
        if (St.FirstFlow)
          Res.FirstFlowMs.push_back(Ms);
        std::string Payload = V ? flowPayload(*V) : std::string();
        auto It = std::find_if(Gen.Flows.begin(), Gen.Flows.end(),
                               [&](const auto &E) { return E.first == St.Name; });
        if (It == Gen.Flows.end())
          Gen.Flows.emplace_back(St.Name, Payload);
        else
          compare(Res, "repeated flow " + St.Name, Payload, It->second);
        break;
      }
      }
      if (C.Trace) {
        Res.Steps.push_back(St);
        Res.Responses.push_back(Resp);
        Res.StepMs.push_back(Ms);
        Res.CombinedHash.push_back(Hash);
      }
    }
    if (Cycles == RssCycles)
      Res.PeakRssMb = peakRssMb();
  }
  if (Cycles < RssCycles)
    Res.PeakRssMb = peakRssMb();
  // The last generation is always verified.
  if (W.resident() && !GenChecked)
    Gen.Combined = fnv1a(S->combinedText());
  closeGeneration(true);
  S.reset();

  if (C.PlantWrong) {
    // A deliberately wrong answer: the checker must count it.
    for (Checkpoint &CP : Checks)
      if (!CP.Flows.empty()) {
        CP.Flows.front().second += " planted";
        break;
      }
  }
  if (!W.resident()) {
    for (const Checkpoint &CP : Checks)
      checkOpen(Res, CP, W.programs()[CP.Program]);
    return Res;
  }
  // Rebuild each checked generation's sources by replaying the script.
  Workload Script(W.name(), C.Seed);
  Script.setUp();
  std::vector<SourceFile> Files = Script.programs().front().Files;
  uint64_t Applied = 0;
  for (const Checkpoint &CP : Checks) {
    for (; Applied < CP.Cycle; ++Applied) {
      Cycle.clear();
      Script.nextCycle(Cycle);
      for (const Step &St : Cycle)
        for (SourceFile &F : Files)
          if (St.Kind == StepKind::Edit && F.Name == St.File)
            F.Text = St.Text;
    }
    if (W.name() == "edit-loop")
      checkEdit(Res, CP, Files);
    else
      checkMix(Res, CP, Files);
  }
  return Res;
}

} // namespace perfbench
