//===-- perfbench/src/main.cpp - The repository benchmark ------*- C++ -*-===//
///
/// \file
/// spidey_perfbench --workload NAME --seed N --seconds S --trace 0|1
///                  [--cycles N] [--log FILE] [--plant-wrong]
///                  [--commit ID]
///
/// Drives ServeSession::handleLine in-process with a seeded closed-loop
/// script (see README.md) and checks every answer. With --trace 0 the
/// last stdout line carries the end-to-end metrics; with --trace 1 the run
/// is replayed layer by layer and the line carries the per-layer metrics.
/// Exits 1 when any answer was wrong, 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include "replay.h"
#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using spidey::json::Value;

namespace {

/// Linear-interpolated quantile of \p V (0 when empty).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "spidey_perfbench: %s\nusage: spidey_perfbench --workload "
               "cold-open|edit-loop|query-mix --seed N --seconds S --trace "
               "0|1 [--cycles N] [--log FILE] [--plant-wrong] "
               "[--commit ID]\n",
               Why);
  std::exit(2);
}

uint64_t parseCount(const char *S, const char *Flag) {
  char *End = nullptr;
  unsigned long long N = std::strtoull(S, &End, 10);
  if (!*S || *End)
    usage((std::string("bad number for ") + Flag).c_str());
  return N;
}

} // namespace

int main(int argc, char **argv) {
  RunConfig C;
  std::string Commit = "unknown";
  int Trace = -1;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto value = [&]() -> const char * {
      if (I + 1 >= argc)
        usage(("missing value for " + A).c_str());
      return argv[++I];
    };
    if (A == "--workload")
      C.Workload = value();
    else if (A == "--seed")
      C.Seed = parseCount(value(), "--seed");
    else if (A == "--seconds")
      C.Seconds = double(parseCount(value(), "--seconds"));
    else if (A == "--trace")
      Trace = static_cast<int>(parseCount(value(), "--trace"));
    else if (A == "--cycles")
      C.Cycles = parseCount(value(), "--cycles");
    else if (A == "--log")
      C.LogPath = value();
    else if (A == "--commit")
      Commit = value();
    else if (A == "--plant-wrong")
      C.PlantWrong = true;
    else
      usage(("unknown argument " + A).c_str());
  }
  if (!Workload::known(C.Workload))
    usage("unknown or missing --workload");
  if (Trace != 0 && Trace != 1)
    usage("--trace must be 0 or 1");
  if (C.Seconds <= 0 && !C.Cycles)
    usage("--seconds must be positive");
  C.Trace = Trace == 1;
  // A traced run spends half its time in the session, half in the replay.
  if (C.Trace)
    C.Seconds /= 2;

  Value Stamp = Value::object();
  Stamp.set("workload", C.Workload);
  Stamp.set("seed", C.Seed);
  Stamp.set("trace", Trace);
  Stamp.set("nproc", nproc());
  Stamp.set("threads", BenchThreads);
  Stamp.set("compiler", PERFBENCH_COMPILER);
  Stamp.set("build_type", PERFBENCH_BUILD_TYPE);
#ifdef NDEBUG
  Stamp.set("ndebug", true);
#else
  Stamp.set("ndebug", false);
#endif
  Stamp.set("commit", Commit);
  Value StampLine = Value::object();
  StampLine.set("stamp", std::move(Stamp));
  std::printf("%s\n", StampLine.dump().c_str());
  std::fflush(stdout);

  Workload W(C.Workload, C.Seed);
  RunResult Run = runWorkload(C, W);

  Value Metrics = Value::object();
  auto put = [&](const std::string &Name, double V, const char *Unit) {
    Value M = Value::object();
    M.set("value", V);
    M.set("unit", Unit);
    Metrics.set(Name, std::move(M));
  };
  if (C.Trace) {
    for (const auto &[Name, M] : replayTraced(W, Run))
      put(Name, M.Value, M.Unit.c_str());
  } else {
    put("setup_s", quantile(Run.SetupS, 0.5), "s");
    put("requests_per_s",
        Run.MeasuredS > 0 ? double(Run.Requests) / Run.MeasuredS : 0, "1/s");
    put("peak_rss_mb", Run.PeakRssMb, "MB");
    put("analyze_ms.p50", quantile(Run.AnalyzeMs, 0.5), "ms");
    put("analyze_ms.p90", quantile(Run.AnalyzeMs, 0.9), "ms");
    put("check_summary_ms.p50", quantile(Run.CheckSummaryMs, 0.5), "ms");
    put("flow_ms.p50", quantile(Run.FlowMs, 0.5), "ms");
    put("flow_ms.p90", quantile(Run.FlowMs, 0.9), "ms");
    put("first_flow_ms.p50", quantile(Run.FirstFlowMs, 0.5), "ms");
  }

  // Sample counts and failures, for the reader; the result line is last.
  Value Detail = Value::object();
  Value Samples = Value::object();
  Samples.set("analyze_ms", Run.AnalyzeMs.size());
  Samples.set("check_summary_ms", Run.CheckSummaryMs.size());
  Samples.set("flow_ms", Run.FlowMs.size());
  Samples.set("first_flow_ms", Run.FirstFlowMs.size());
  Samples.set("setup_s", Run.SetupS.size());
  Detail.set("samples", std::move(Samples));
  Value Setups = Value::array();
  for (double Sec : Run.SetupS)
    Setups.push(Sec);
  Detail.set("setup_s", std::move(Setups));
  Detail.set("measured_s", Run.MeasuredS);
  Detail.set("checked_answers", Run.Checked);
  Detail.set("failed_ratio",
             Run.Requests ? double(Run.Failed) / double(Run.Requests) : 0.0);
  Value Failures = Value::array();
  for (const std::string &F : Run.Failures)
    Failures.push(F);
  Detail.set("failures", std::move(Failures));
  std::printf("%s\n", Detail.dump().c_str());

  bool Correct = Run.Failed == 0 && Run.Requests > 0;
  Value Result = Value::object();
  Result.set("correct", Correct);
  Result.set("attempted", std::max<uint64_t>(Run.Requests, 1));
  Result.set("failed", Run.Failed);
  Result.set("metrics", std::move(Metrics));
  std::printf("%s\n", Result.dump().c_str());
  return Correct ? 0 : 1;
}
