#include "metrics.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace perfbench {

namespace {

constexpr auto E = MetricKind::kEndToEnd;
constexpr auto L = MetricKind::kPerLayer;

constexpr std::array kMetrics = {
    // End to end (untraced run).
    MetricSpec{"setup_s", "s", E},
    MetricSpec{"sessions_per_s", "1/s", E},
    MetricSpec{"payload_mb_per_s", "MB/s", E},
    MetricSpec{"interval_ms_p50", "ms", E},
    MetricSpec{"interval_ms_tail", "ms", E},
    MetricSpec{"max_load", "ratio", E},
    MetricSpec{"load_imbalance", "ratio", E},
    MetricSpec{"peak_rss_mb", "MB", E},
    // Per layer (traced run).
    MetricSpec{"core.controller_init_ms", "ms", L},
    MetricSpec{"core.bootstrap_epoch_s", "s", L},
    MetricSpec{"lp.bootstrap_iterations", "count", L},
    MetricSpec{"sim.init_ms", "ms", L},
    MetricSpec{"loop.interval_ms", "ms", L},
    MetricSpec{"sim.replay_ms", "ms", L},
    MetricSpec{"online.estimate_ms", "ms", L},
    MetricSpec{"core.epoch_ms", "ms", L},
    MetricSpec{"lp.solve_ms", "ms", L},
    MetricSpec{"core.build_decode_ms", "ms", L},
    MetricSpec{"online.rollout_ms", "ms", L},
    MetricSpec{"loop.other_ms", "ms", L},
    MetricSpec{"traffic.synth_ns_per_packet", "ns", L},
    MetricSpec{"nids.signature_ns_per_byte", "ns", L},
    MetricSpec{"shim.decide_ns", "ns", L},
    MetricSpec{"lp.iterations", "count", L},
    MetricSpec{"core.delta_resolve_share", "ratio", L},
    MetricSpec{"core.warm_share", "ratio", L},
    MetricSpec{"online.install_share", "ratio", L},
    MetricSpec{"online.churn_mean", "ratio", L},
    MetricSpec{"sim.draining_share", "ratio", L},
    MetricSpec{"sim.miss_rate", "ratio", L},
    MetricSpec{"trace.overhead_ms", "ms", L},
};

/// Looks the unit up in the declared table so a metric can never be
/// emitted under a unit other than its declaration.
Metric make(const char* name, double value) {
  for (const MetricSpec& spec : kMetrics)
    if (std::string_view(spec.name) == name) return {spec.name, value, spec.unit};
  return {name, value, "undeclared"};
}

}  // namespace

std::span<const MetricSpec> declared_metrics() { return kMetrics; }

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double safe_ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double mean(std::span<const double> xs) {
  return safe_ratio(std::accumulate(xs.begin(), xs.end(), 0.0),
                    static_cast<double>(xs.size()));
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

std::optional<Tail> tail_percentile(std::vector<double> xs, std::size_t min_beyond) {
  const std::size_t n = xs.size();
  if (n <= min_beyond) return std::nullopt;
  std::sort(xs.begin(), xs.end());
  const std::size_t rank = n - min_beyond;  // 1-based rank of the statistic.
  Tail tail;
  tail.value = xs[rank - 1];
  tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  tail.samples = n;
  tail.beyond = min_beyond;
  return tail;
}

EndToEndSummary summarize(const EndToEndRecord& record) {
  EndToEndSummary out;
  std::vector<double> wall_ms;
  std::vector<double> sessions_per_s;
  std::vector<double> mb_per_s;
  std::vector<double> load_costs;
  for (const IntervalRecord& iv : record.intervals) {
    load_costs.push_back(iv.load_cost);
    if (iv.failed) ++out.failed_intervals;
    if (iv.warmup) continue;
    wall_ms.push_back(iv.wall_s * 1e3);
    sessions_per_s.push_back(safe_ratio(static_cast<double>(iv.sessions), iv.wall_s));
    mb_per_s.push_back(safe_ratio(iv.payload_bytes / 1e6, iv.wall_s));
  }
  out.tail = tail_percentile(wall_ms).value_or(Tail{});
  out.failed_share = safe_ratio(static_cast<double>(out.failed_intervals),
                                static_cast<double>(record.intervals.size()));

  const double max_work =
      record.node_work.empty()
          ? 0.0
          : *std::max_element(record.node_work.begin(), record.node_work.end());

  out.metrics = {
      make("setup_s", median(record.setup_s)),
      make("sessions_per_s", median(sessions_per_s)),
      make("payload_mb_per_s", median(mb_per_s)),
      make("interval_ms_p50", median(wall_ms)),
      make("interval_ms_tail", out.tail.value),
      make("max_load", mean(load_costs)),
      make("load_imbalance", safe_ratio(max_work, mean(record.node_work))),
      make("peak_rss_mb", record.peak_rss_mb),
  };
  return out;
}

std::vector<Metric> summarize(const TracedRecord& record) {
  std::vector<double> wall, replay, estimate, epoch, solve, rollout;
  double iterations = 0.0;
  double delta = 0.0;
  double warm = 0.0;
  double installed = 0.0;
  std::vector<double> churn;
  for (const TracedInterval& iv : record.intervals) {
    wall.push_back(iv.wall_s * 1e3);
    replay.push_back(iv.replay_s * 1e3);
    estimate.push_back(iv.estimate_s * 1e3);
    epoch.push_back(iv.epoch_s * 1e3);
    solve.push_back(iv.solve_s * 1e3);
    rollout.push_back(iv.rollout_s * 1e3);
    iterations += iv.iterations;
    delta += iv.delta_resolve ? 1.0 : 0.0;
    warm += iv.warm_started ? 1.0 : 0.0;
    installed += iv.installed ? 1.0 : 0.0;
    if (iv.installed) churn.push_back(iv.moved_fraction);
  }
  const double n = static_cast<double>(record.intervals.size());
  // Means, not medians, so the step spans plus loop.other_ms add up to
  // loop.interval_ms exactly.
  const double wall_ms = mean(wall);
  const double steps_ms = mean(replay) + mean(estimate) + mean(epoch) + mean(rollout);
  std::vector<double> untraced_ms;
  for (const double s : record.untraced_wall_s) untraced_ms.push_back(s * 1e3);

  return {
      make("core.controller_init_ms", record.controller_init_s * 1e3),
      make("core.bootstrap_epoch_s", record.bootstrap_epoch_s),
      make("lp.bootstrap_iterations", record.bootstrap_iterations),
      make("sim.init_ms", record.sim_init_s * 1e3),
      make("loop.interval_ms", wall_ms),
      make("sim.replay_ms", mean(replay)),
      make("online.estimate_ms", mean(estimate)),
      make("core.epoch_ms", mean(epoch)),
      make("lp.solve_ms", mean(solve)),
      make("core.build_decode_ms", mean(epoch) - mean(solve)),
      make("online.rollout_ms", mean(rollout)),
      make("loop.other_ms", wall_ms - steps_ms),
      make("traffic.synth_ns_per_packet",
           safe_ratio(record.synth_s * 1e9, static_cast<double>(record.synth_packets))),
      make("nids.signature_ns_per_byte",
           safe_ratio(record.signature_s * 1e9, static_cast<double>(record.signature_bytes))),
      make("shim.decide_ns",
           safe_ratio(record.decide_s * 1e9, static_cast<double>(record.decides))),
      make("lp.iterations", iterations),
      make("core.delta_resolve_share", safe_ratio(delta, n)),
      make("core.warm_share", safe_ratio(warm, n)),
      make("online.install_share", safe_ratio(installed, n)),
      make("online.churn_mean", mean(churn)),
      make("sim.draining_share",
           safe_ratio(static_cast<double>(record.sessions_draining),
                      static_cast<double>(record.sessions_replayed))),
      make("sim.miss_rate", record.miss_rate),
      make("trace.overhead_ms", median(wall) - median(untraced_ms)),
  };
}

}  // namespace perfbench
