// Metric declarations and the pure arithmetic that turns one run's raw
// records into named metrics.
//
// Everything here is deterministic arithmetic over plain records, so the
// rules the benchmark's numbers rest on — the tail-percentile rule and the
// zero-denominator guard of every ratio — are unit-tested apart from the
// pipeline that produces the records (tests/metrics_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

enum class MetricKind { kEndToEnd, kPerLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  MetricKind kind;
};

/// Every metric the benchmark can emit, in emission order.  BENCHMARK.json
/// declares the same names and units; perfbench/test_run.py keeps the two
/// in sync.
std::span<const MetricSpec> declared_metrics();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// `v` with all 17 significant digits, as a JSON number.
std::string json_number(double v);

/// `num / den`, or 0 when the denominator is not positive (an empty run
/// reports 0, never NaN or infinity).
double safe_ratio(double num, double den);

double mean(std::span<const double> xs);
double median(std::vector<double> xs);

/// The highest order statistic that still has at least `min_beyond`
/// samples strictly above its rank: with n sorted samples it is the
/// (n - min_beyond)-th smallest, i.e. the 100·(n - min_beyond)/n
/// percentile.  Empty when n <= min_beyond (no percentile qualifies).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  // In [0, 100).
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
std::optional<Tail> tail_percentile(std::vector<double> xs, std::size_t min_beyond = 10);

/// One control interval of the untraced (production) run.
struct IntervalRecord {
  double wall_s = 0.0;             // ControlLoop::run_interval wall time.
  std::uint64_t sessions = 0;      // Sessions replayed in the interval.
  double payload_bytes = 0.0;      // Payload bytes offered to the data plane.
  double load_cost = 0.0;          // Epoch plan's Assignment::load_cost.
  int lp_iterations = 0;           // EpochResult::iterations.
  bool failed = false;             // Solver-degraded epoch or unassigned session.
  bool warmup = false;             // Excluded from the timing metrics.
};

/// The untraced run: set-up samples, the intervals, and the final data-plane
/// state.
struct EndToEndRecord {
  std::vector<double> setup_s;          // One per set-up repetition.
  std::vector<IntervalRecord> intervals;
  std::vector<double> node_work;        // Final ReplayStats::node_work.
  double peak_rss_mb = 0.0;
};

/// Derived end-to-end values, including the ones only the report carries
/// (tail percentile and sample count, failed share).
struct EndToEndSummary {
  std::vector<Metric> metrics;  // Exactly the declared end-to-end names.
  Tail tail;
  double failed_share = 0.0;
  std::uint64_t failed_intervals = 0;
};
EndToEndSummary summarize(const EndToEndRecord& record);

/// Per-interval spans of the traced run (seconds) and its counts.
struct TracedInterval {
  double wall_s = 0.0;
  double replay_s = 0.0;
  double estimate_s = 0.0;
  double epoch_s = 0.0;
  double solve_s = 0.0;  // EpochResult::solve_seconds (inside epoch_s).
  double rollout_s = 0.0;
  int iterations = 0;
  bool delta_resolve = false;
  bool warm_started = false;
  bool installed = false;       // Rollout installed (not skipped).
  double moved_fraction = 0.0;  // Rollout churn vs the installed bundle.
};

struct TracedRecord {
  // Set-up split (one set-up).
  double controller_init_s = 0.0;
  double bootstrap_epoch_s = 0.0;
  int bootstrap_iterations = 0;
  double sim_init_s = 0.0;

  std::vector<TracedInterval> intervals;

  // Layer kernels timed on one thread over the intervals' inputs.
  double synth_s = 0.0;
  std::uint64_t synth_packets = 0;
  double signature_s = 0.0;
  std::uint64_t signature_bytes = 0;
  double decide_s = 0.0;
  std::uint64_t decides = 0;

  // Rollout accounting at the end of the traced run.
  std::uint64_t sessions_draining = 0;
  std::uint64_t sessions_replayed = 0;
  double miss_rate = 0.0;  // Final ReplayStats::miss_rate().

  // The untraced run's interval wall times, for the tracing overhead.
  std::vector<double> untraced_wall_s;
};

/// Exactly the declared per-layer names.
std::vector<Metric> summarize(const TracedRecord& record);

}  // namespace perfbench
