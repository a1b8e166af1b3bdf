// The production pipeline, driven through public entry points only:
// core::Controller bootstrap -> sim::ReplaySimulator ->
// online::ControlLoop::run_interval, as a closed loop (the next interval's
// replay starts only after the previous rollout returned).
//
// Two runs exist.  The untraced run times whole run_interval() calls and
// yields the end-to-end metrics.  The traced run repeats run_interval()'s
// five steps through the same public calls, with a clock around each, and
// yields the per-layer metrics; it must reproduce the untraced run's
// ReplayStats and generation sequence byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"
#include "workloads.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  int seconds = 10;
  int workers = 1;        // Replay workers (ReplayOptions::num_workers).
};

/// What one invocation produced.
struct RunResult {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;         // Control intervals run.
  std::uint64_t failed = 0;            // Intervals that failed (see README).
  std::vector<std::string> violations; // Failed output checks; empty = correct.
  std::string details_json;            // Extra report fields, a JSON object body.
};

/// Untraced run: end-to-end metrics.
RunResult run_end_to_end(const Workload& workload, const RunOptions& options);

/// Untraced reference run, then the traced run: per-layer metrics.
RunResult run_traced(const Workload& workload, const RunOptions& options);

}  // namespace perfbench
