//===-- perfbench/src/replay.h - Traced per-layer replay --------*- C++ -*-===//
///
/// \file
/// Replays a recorded request sequence by calling each layer's public
/// functions directly — parseProgram, ComponentialAnalyzer::run and
/// reconstruct, runChecks, FlowIndex::build, QueryEngine::flow and
/// checkSummary — and times every call from outside. Counters come from
/// what the layers already expose (runInfo, componentStats, QueryEngine
/// stats, MemoryConstraintStore::bytes) plus a timing ConstraintStore
/// decorator. The replay's combined text, summaries and flow answers are
/// cross-checked against the session's, so the per-layer numbers describe
/// the same work as the end-to-end ones.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "workload.h"

#include <map>
#include <string>

namespace perfbench {

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// Replays \p Run (recorded with RunConfig::Trace) and returns the
/// per-layer metrics. Cross-check mismatches are added to Run's failures.
std::map<std::string, Metric> replayTraced(const Workload &W, RunResult &Run);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
