// Tests of the benchmark's own arithmetic: the tail-percentile rule, the
// zero-denominator guard of every ratio metric, and that every emitted
// metric name is a declared one (with its declared unit).
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "metrics.h"

namespace perfbench {
namespace {

std::set<std::string> declared(MetricKind kind) {
  std::set<std::string> names;
  for (const MetricSpec& spec : declared_metrics())
    if (spec.kind == kind) names.insert(spec.name);
  return names;
}

void expect_declared_exactly(const std::vector<Metric>& metrics, MetricKind kind) {
  std::set<std::string> emitted;
  for (const Metric& m : metrics) {
    EXPECT_TRUE(emitted.insert(m.name).second) << "emitted twice: " << m.name;
    bool found = false;
    for (const MetricSpec& spec : declared_metrics()) {
      if (m.name == spec.name) {
        found = true;
        EXPECT_EQ(m.unit, spec.unit) << m.name;
        EXPECT_EQ(spec.kind, kind) << m.name;
      }
    }
    EXPECT_TRUE(found) << "undeclared metric: " << m.name;
  }
  EXPECT_EQ(emitted, declared(kind));
}

double value_of(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics)
    if (m.name == name) return m.value;
  ADD_FAILURE() << "missing metric " << name;
  return NAN;
}

TEST(TailPercentile, HighestRankWithTenSamplesBeyond) {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // Unsorted on purpose.
  const auto tail = tail_percentile(xs);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->value, 90.0);  // Ten samples (91..100) lie beyond it.
  EXPECT_EQ(tail->percentile, 90.0);
  EXPECT_EQ(tail->samples, 100u);
  EXPECT_EQ(tail->beyond, 10u);
}

TEST(TailPercentile, SmallSamplesMoveThePercentileDown) {
  std::vector<double> xs;
  for (int i = 1; i <= 25; ++i) xs.push_back(i);
  const auto tail = tail_percentile(xs);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->value, 15.0);
  EXPECT_DOUBLE_EQ(tail->percentile, 60.0);
  std::size_t beyond = 0;
  for (const double x : xs) beyond += x > tail->value ? 1 : 0;
  EXPECT_GE(beyond, 10u);
}

TEST(TailPercentile, NeedsMoreSamplesThanTheMargin) {
  EXPECT_FALSE(tail_percentile(std::vector<double>(10, 1.0)).has_value());
  EXPECT_FALSE(tail_percentile({}).has_value());
  const auto tail = tail_percentile(std::vector<double>(11, 2.0));
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->value, 2.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(SafeRatio, ZeroAndNegativeDenominatorsReadZero) {
  EXPECT_EQ(safe_ratio(3.0, 0.0), 0.0);
  EXPECT_EQ(safe_ratio(3.0, -1.0), 0.0);
  EXPECT_EQ(safe_ratio(3.0, 2.0), 1.5);
}

TEST(EndToEnd, EmptyRunGuardsEveryRatio) {
  const EndToEndSummary summary = summarize(EndToEndRecord{});
  expect_declared_exactly(summary.metrics, MetricKind::kEndToEnd);
  for (const Metric& m : summary.metrics) {
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    EXPECT_EQ(m.value, 0.0) << m.name;
  }
  EXPECT_EQ(summary.failed_share, 0.0);
}

TEST(EndToEnd, ZeroWorkNodesAndNoInstallsReadZero) {
  EndToEndRecord record;
  record.node_work = {0.0, 0.0, 0.0};  // Mean node work 0.
  IntervalRecord iv;  // Zero wall time, nothing installed.
  record.intervals.push_back(iv);
  const EndToEndSummary summary = summarize(record);
  EXPECT_EQ(value_of(summary.metrics, "load_imbalance"), 0.0);
  EXPECT_EQ(value_of(summary.metrics, "sessions_per_s"), 0.0);
  EXPECT_EQ(value_of(summary.metrics, "payload_mb_per_s"), 0.0);
}

TEST(EndToEnd, RatiosOverTheRun) {
  EndToEndRecord record;
  record.setup_s = {3.0, 1.0, 2.0};
  record.node_work = {1.0, 3.0};
  for (int i = 0; i < 4; ++i) {
    IntervalRecord iv;
    iv.wall_s = 0.5;
    iv.sessions = 100;
    iv.payload_bytes = 1e6;
    iv.load_cost = i;  // Mean 1.5.
    iv.failed = i == 3;
    record.intervals.push_back(iv);
  }
  const EndToEndSummary summary = summarize(record);
  EXPECT_EQ(value_of(summary.metrics, "setup_s"), 2.0);
  EXPECT_EQ(value_of(summary.metrics, "sessions_per_s"), 200.0);  // Median rate.
  EXPECT_EQ(value_of(summary.metrics, "payload_mb_per_s"), 2.0);
  EXPECT_EQ(value_of(summary.metrics, "interval_ms_p50"), 500.0);
  EXPECT_EQ(value_of(summary.metrics, "max_load"), 1.5);
  EXPECT_EQ(value_of(summary.metrics, "load_imbalance"), 1.5);
  EXPECT_EQ(summary.failed_intervals, 1u);
  EXPECT_EQ(summary.failed_share, 0.25);
}

TEST(EndToEnd, WarmupIntervalsAreLeftOutOfTheTimings) {
  EndToEndRecord record;
  IntervalRecord warm;
  warm.wall_s = 9.0;
  warm.sessions = 1;
  warm.load_cost = 1.0;
  warm.warmup = true;
  IntervalRecord steady;
  steady.wall_s = 0.1;
  steady.sessions = 10;
  steady.load_cost = 3.0;
  record.intervals = {warm, steady};
  const EndToEndSummary summary = summarize(record);
  EXPECT_DOUBLE_EQ(value_of(summary.metrics, "interval_ms_p50"), 100.0);
  EXPECT_DOUBLE_EQ(value_of(summary.metrics, "sessions_per_s"), 100.0);
  EXPECT_EQ(value_of(summary.metrics, "max_load"), 2.0);  // Plans count from the start.
}

TEST(PerLayer, EmptyRunGuardsEveryRatio) {
  const std::vector<Metric> metrics = summarize(TracedRecord{});
  expect_declared_exactly(metrics, MetricKind::kPerLayer);
  for (const Metric& m : metrics) {
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    EXPECT_EQ(m.value, 0.0) << m.name;
  }
}

TEST(PerLayer, StepSpansPlusOtherAccountForTheInterval) {
  TracedRecord record;
  TracedInterval iv;
  iv.wall_s = 0.010;
  iv.replay_s = 0.004;
  iv.estimate_s = 0.001;
  iv.epoch_s = 0.003;
  iv.solve_s = 0.002;
  iv.rollout_s = 0.001;
  iv.iterations = 7;
  iv.installed = true;
  iv.moved_fraction = 0.2;
  TracedInterval skipped = iv;
  skipped.installed = false;  // Skipped rollouts carry no churn sample.
  skipped.moved_fraction = 0.0;
  record.intervals = {iv, iv, skipped};
  record.sessions_replayed = 10;
  record.sessions_draining = 4;
  const std::vector<Metric> metrics = summarize(record);
  const double steps = value_of(metrics, "sim.replay_ms") +
                       value_of(metrics, "online.estimate_ms") +
                       value_of(metrics, "core.epoch_ms") +
                       value_of(metrics, "online.rollout_ms");
  EXPECT_NEAR(steps + value_of(metrics, "loop.other_ms"),
              value_of(metrics, "loop.interval_ms"), 1e-12);
  EXPECT_NEAR(value_of(metrics, "core.build_decode_ms"), 1.0, 1e-12);
  EXPECT_EQ(value_of(metrics, "lp.iterations"), 21.0);
  EXPECT_DOUBLE_EQ(value_of(metrics, "online.install_share"), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(value_of(metrics, "online.churn_mean"), 0.2);
  EXPECT_EQ(value_of(metrics, "sim.draining_share"), 0.4);
}

}  // namespace
}  // namespace perfbench
