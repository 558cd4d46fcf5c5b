//===-- perfbench/src/workload.h - Seeded serve workloads -------*- C++ -*-===//
///
/// \file
/// The repository benchmark's request side: seeded programs, seeded
/// request scripts for the three workloads (cold-open, edit-loop,
/// query-mix), the closed-loop client that sends them to an in-process
/// ServeSession as ndjson lines, and the correctness checks that run after
/// the timed loop. The traced per-layer replay (replay.h) consumes the
/// step log recorded here.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOAD_H
#define PERFBENCH_WORKLOAD_H

#include "componential/componential.h"
#include "lang/parser.h"
#include "serve/json.h"

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace perfbench {

/// Deterministic 64-bit generator (splitmix64). Its output and every
/// draw below are pure functions of the seed on every platform, unlike
/// the standard library's distributions.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N); N > 0.
  uint64_t below(uint64_t N) { return next() % N; }
  /// Uniform in [0, 1).
  double unit() { return double(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

uint64_t fnv1a(const std::string &S);
double nowMs();

/// One program: its files plus the distinct top-level names the flow
/// queries draw from, in a seeded order (rank 0 is the hottest).
struct BenchProgram {
  std::string Size; ///< "scanner", "zodiac" or "sba"
  std::vector<spidey::SourceFile> Files;
  std::vector<std::string> Names;
};

/// The kind of one step of a workload script.
enum class StepKind { Open, Edit, Analyze, CheckSummary, Flow };

/// One step. Every step but Open is an ndjson request line sent through
/// ServeSession::handleLine; Open starts a fresh session over a program
/// (cold-open), which is how an editor hands the daemon its files.
struct Step {
  StepKind Kind = StepKind::Analyze;
  std::string Line;       ///< the request line (empty for Open)
  uint32_t Program = 0;   ///< Open: index into Workload::programs()
  std::string File;       ///< Edit: file name
  std::string Text;       ///< Edit: new text
  std::string Name;       ///< Flow: queried name
  bool FirstFlow = false; ///< Flow: first flow of its analysis generation
  bool Check = false;     ///< Analyze: verify this generation afterwards
};

/// A seeded request script. nextCycle() appends one closed-loop cycle;
/// the sequence is a pure function of the seed (no step depends on a
/// response or on timing), so the request log repeats byte for byte.
class Workload {
public:
  static bool known(const std::string &Name);

  Workload(std::string Name, uint64_t Seed);

  const std::string &name() const { return Name; }
  bool resident() const { return Name != "cold-open"; }

  /// Resets the script and builds the initial programs: the calibrated sba
  /// program first, then on cold-open the rest of the deck.
  void setUp();

  void nextCycle(std::vector<Step> &Out);

  /// True between blocks of the script, where a timed run may end:
  /// cold-open between decks, the resident workloads after every cycle.
  bool atBlockEnd() const { return resident() || Deck.empty(); }

  const std::vector<BenchProgram> &programs() const { return Programs; }

private:
  void openCycle(std::vector<Step> &Out);
  void residentCycle(std::vector<Step> &Out);
  Step makeEdit();
  std::string pickName(const std::vector<std::string> &Names);
  std::string freshName(const std::vector<std::string> &Names);

  std::string Name;
  uint64_t Seed;
  Rng R{0};
  std::vector<BenchProgram> Programs;
  /// Resident workloads: current text and recent history per file.
  std::vector<std::string> Current;
  std::vector<std::vector<std::string>> History;
  uint64_t EditCount = 0;
  /// Names the current session has been asked about, and the walk
  /// position of freshName().
  std::unordered_set<std::string> Asked;
  size_t ColdCursor = 0;
  /// cold-open: program indices still to draw from the current deck.
  std::vector<uint32_t> Deck;
};

/// CPUs this process may run on (what `nproc` prints).
unsigned nproc();

/// The ServeSession worker threads every workload runs with. Set
/// explicitly, because the default (hardware concurrency) makes results
/// depend on the machine. One thread: a second worker made cold-open's
/// analyze p90 spread across seeds 0.29 instead of 0.02 on a 4-vCPU VM,
/// and warm edits run no faster with it.
constexpr unsigned BenchThreads = 1;

/// The componential options a ServeSession analyzes with (serve.cpp's
/// ensureAnalyzed), for the references and the replay.
spidey::ComponentialOptions sessionOptions(spidey::ConstraintStore *Store,
                                           spidey::CancelToken *Cancel);

/// Per-call timings of a reconstruct + runChecks sweep.
struct SweepTimes {
  std::vector<double> ReconstructMs, ChecksMs;
  std::vector<double> ReconstructConstraints;
};

/// Reconstructs and checks components \p Comps of an analyzed program, in
/// order. With every component, the returned text is the whole-program
/// check summary rendered by DebugReport::summary — the reference the
/// demand-driven engine must match.
std::string referenceSweep(const spidey::Program &P,
                           spidey::ComponentialAnalyzer &CA,
                           const std::vector<uint32_t> &Comps,
                           SweepTimes *Times);

/// Everything one run measures and checks.
struct RunResult {
  // End-to-end samples: milliseconds per request, seconds per set-up.
  std::vector<double> AnalyzeMs, CheckSummaryMs, FlowMs, FirstFlowMs;
  std::vector<double> SetupS;
  double MeasuredS = 0; ///< sum of all timed request regions
  uint64_t Requests = 0;
  double PeakRssMb = 0;
  uint64_t Failed = 0;
  uint64_t Checked = 0; ///< answers compared against a reference
  std::vector<std::string> Failures; ///< the first few, for the log
  /// Trace mode: the steps sent, the session's answers, each step's
  /// latency and, after each Analyze, the FNV-1a of the combined text.
  std::vector<Step> Steps;
  std::vector<std::string> Responses;
  std::vector<double> StepMs;
  std::vector<uint64_t> CombinedHash;
};

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;      ///< record what the replay needs
  uint64_t Cycles = 0;     ///< nonzero: run exactly this many cycles
  bool PlantWrong = false; ///< corrupt one recorded answer (checker test)
  std::string LogPath;     ///< append every request line here when set
};

/// Set-ups per run; setup_s is their median.
constexpr unsigned SetupReps = 5;

/// Runs the workload: set-up repetitions, the timed closed loop, then the
/// correctness checks, which run outside every timed region.
RunResult runWorkload(const RunConfig &Config, Workload &W);

void noteFailure(RunResult &Res, std::string What);

/// The comparable part of a flow answer: var, kinds and the four counts.
std::string flowPayload(const spidey::json::Value &Answer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H
