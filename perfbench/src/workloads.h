// The benchmark's workloads and the inputs they generate from a seed.
//
// A workload fixes the deployment (topology, provisioning matrix, trace
// shape, interval size, rollout drain); the seed fixes the traffic the
// deployment sees.  A bursty workload's self-similar windows are computed
// before any clock starts, and each interval's sessions are generated
// before that interval's clock starts, so the timed loop measures the
// system and not the workload generator.  See perfbench/README.md for why each workload
// exists.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/trace.h"
#include "topo/topology.h"
#include "traffic/classes.h"
#include "traffic/matrix.h"
#include "traffic/selfsimilar.h"

namespace perfbench {

struct Workload {
  std::string name;
  nwlb::topo::Topology topology;
  /// Provisioning matrix: the controller's initial traffic matrix and the
  /// estimator's scale anchor (and the burst process's mean, when bursty).
  nwlb::traffic::TrafficMatrix mean_tm{1};
  nwlb::sim::TraceConfig trace;
  int sessions_per_interval = 0;  // Before the burst scale.
  double hurst = 0.0;             // > 0: self-similar interval traffic.
  std::uint64_t drain_sessions = 0;
  /// Intervals an invocation runs per requested second.  The interval
  /// count is a pure function of --seconds, so every count the benchmark
  /// reports repeats exactly for a fixed seed.
  double intervals_per_second = 1.0;
  /// Set-ups an end-to-end run times for setup_s (the median is reported).
  /// The first runs the loop; the rest are spread across the loop.
  int setup_repeats = 3;
};

std::span<const std::string_view> workload_names();

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(std::string_view name);

/// Interval count for a run of `seconds`: at least 42, so that after the
/// warm-up intervals the tail percentile is the 75th or higher.
int interval_count(const Workload& workload, int seconds);

/// One run's traffic, generated interval by interval from the seed.  The
/// caller draws an interval with next() before starting that interval's
/// clock, so generation is never timed and only one interval's sessions
/// are resident at a time.  Two sources built from the same arguments
/// yield identical intervals.  Not movable: the generator points into
/// classes_.
class TrafficSource {
 public:
  TrafficSource(const Workload& workload, std::vector<nwlb::traffic::TrafficClass> classes,
                std::uint64_t seed, int intervals);
  TrafficSource(const TrafficSource&) = delete;
  TrafficSource& operator=(const TrafficSource&) = delete;

  /// The next interval's sessions (call at most `intervals` times).
  std::vector<nwlb::sim::SessionSpec> next();

  const nwlb::sim::TraceGenerator& generator() const { return generator_; }
  const std::vector<nwlb::traffic::TrafficClass>& classes() const { return classes_; }

 private:
  const Workload* workload_;
  std::vector<nwlb::traffic::TrafficClass> classes_;
  nwlb::sim::TraceGenerator generator_;
  std::optional<nwlb::traffic::SelfSimilarTraffic> bursts_;
  int next_window_ = 0;
};

/// Payload bytes the sessions offer the data plane, both directions.
double payload_bytes(std::span<const nwlb::sim::SessionSpec> sessions);

}  // namespace perfbench
