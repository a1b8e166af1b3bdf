#include "pipeline.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>

#include "core/controller.h"
#include "core/validate.h"
#include "nids/signature.h"
#include "online/estimator.h"
#include "online/loop.h"
#include "online/rollout.h"
#include "shim/shim.h"
#include "sim/replay.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using nwlb::core::DegradedReason;
using nwlb::core::EpochResult;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

nwlb::core::ControllerOptions controller_options() {
  nwlb::core::ControllerOptions options;
  options.lp.max_seconds = 10.0;  // nwlbctl's per-solve budget.
  return options;
}

nwlb::online::ControlLoopOptions loop_options(const Workload& workload) {
  nwlb::online::ControlLoopOptions options;
  options.estimator_options.scale_to_total = workload.mean_tm.total();
  options.rollout.drain_sessions = workload.drain_sessions;
  return options;
}

/// One set-up: controller construction, the bootstrap (cold) epoch, and
/// the simulator over the bootstrap bundle.  Not movable: the simulator
/// points at input_.
class Deployment {
 public:
  Deployment(const Workload& workload, int workers) {
    const auto t0 = Clock::now();
    controller_ = std::make_unique<nwlb::core::Controller>(workload.topology,
                                                           workload.mean_tm,
                                                           controller_options());
    controller_init_s = since(t0);
    const auto t1 = Clock::now();
    bootstrap_ = controller_->run({.tm = &workload.mean_tm});
    bootstrap_epoch_s = since(t1);
    const auto t2 = Clock::now();
    input_ = controller_->scenario().problem(controller_options().architecture);
    nwlb::sim::ReplayOptions replay;
    replay.num_workers = workers;
    sim_ = std::make_unique<nwlb::sim::ReplaySimulator>(input_, bootstrap_.bundle, replay);
    sim_init_s = since(t2);
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  nwlb::core::Controller& controller() { return *controller_; }
  nwlb::sim::ReplaySimulator& sim() { return *sim_; }
  const EpochResult& bootstrap() const { return bootstrap_; }
  const nwlb::core::ProblemInput& input() const { return input_; }
  double total_s() const { return controller_init_s + bootstrap_epoch_s + sim_init_s; }

  double controller_init_s = 0.0;
  double bootstrap_epoch_s = 0.0;
  double sim_init_s = 0.0;

 private:
  std::unique_ptr<nwlb::core::Controller> controller_;
  EpochResult bootstrap_;
  nwlb::core::ProblemInput input_;
  std::unique_ptr<nwlb::sim::ReplaySimulator> sim_;
};

/// True when the epoch degraded for a solver reason.
bool solver_degraded(const EpochResult& epoch) {
  for (const DegradedReason reason : epoch.degraded_reasons) {
    switch (reason) {
      case DegradedReason::kLpBudgetExhausted:
      case DegradedReason::kLpInfeasible:
      case DegradedReason::kLpFailed:
      case DegradedReason::kResolveBackoff:
      case DegradedReason::kNoKnownGood:
        return true;
      case DegradedReason::kPatch:
      case DegradedReason::kCoverageLoss:
      case DegradedReason::kScanLpFailed:
        break;
    }
  }
  return false;
}

/// An interval fails when its epoch degraded for a solver reason or it left
/// a session unassigned.
bool interval_failed(const EpochResult& epoch, const nwlb::sim::ReplaySimulator& sim,
                     std::uint64_t unassigned_before) {
  return solver_degraded(epoch) || sim.rollout_stats().sessions_unassigned != unassigned_before;
}

/// Validates `epoch`'s plan against the problem the controller just
/// solved (its scenario holds the epoch's traffic until the next run).
void check_plan(Deployment& deployment, const EpochResult& epoch, const std::string& where,
                std::vector<std::string>& violations) {
  const nwlb::core::ProblemInput solved =
      deployment.controller().scenario().problem(controller_options().architecture);
  const std::vector<std::string> problems =
      nwlb::core::validate_assignment(solved, epoch.assignment);
  if (!problems.empty())
    violations.push_back(where + ": plan fails validate_assignment: " + problems.front());
}

/// Every field of the final data-plane state, doubles in hexfloat, so two
/// runs compare byte for byte.
std::string fingerprint(const nwlb::sim::ReplayStats& s, const nwlb::sim::RolloutStats& r) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const double v : s.node_work) out << v << ',';
  out << '|';
  for (const std::uint64_t v : s.node_packets) out << v << ',';
  out << '|';
  for (const double v : s.link_replicated_bytes) out << v << ',';
  out << '|' << s.sessions_replayed << ',' << s.packets_replayed << ','
      << s.tunnel_frames_sent << ',' << s.tunnel_frames_dropped << ','
      << s.tunnel_frames_blackholed << ',' << s.tunnel_frames_detected_lost << ','
      << s.tunnel_frames_malformed << ',' << s.crash_skipped_packets << ','
      << s.fail_open_packets << ',' << s.degraded_skipped_packets << ','
      << s.stateful_covered << ',' << s.stateful_missed << ',' << s.signature_matches
      << ',' << s.decisions_process << ',' << s.decisions_replicate << ','
      << s.decisions_ignore << ',' << s.mirror_flaps << '|' << r.active_generation << ','
      << r.staged_generations << ',' << r.rollouts_installed << ','
      << r.generations_retired << ',' << r.sessions_current_generation << ','
      << r.sessions_draining_generation << ',' << r.sessions_unassigned;
  return out.str();
}

std::string generation_entry(const nwlb::online::RolloutReport& r) {
  std::ostringstream out;
  out << std::hexfloat << r.generation << (r.installed ? " install@" : " skip@")
      << r.activate_at << ' ' << r.churn.moved_fraction;
  return out.str();
}

void check_conservation(nwlb::sim::ReplaySimulator& sim, const std::string& where,
                        std::vector<std::string>& violations) {
  const nwlb::sim::ReplayStats stats = sim.stats();
  const nwlb::sim::RolloutStats rollout = sim.rollout_stats();
  if (rollout.sessions_current_generation + rollout.sessions_draining_generation !=
          stats.sessions_replayed ||
      rollout.sessions_unassigned != 0)
    violations.push_back(where + ": rollout conservation violated (current " +
                         std::to_string(rollout.sessions_current_generation) +
                         " + draining " +
                         std::to_string(rollout.sessions_draining_generation) +
                         " != replayed " + std::to_string(stats.sessions_replayed) +
                         ", unassigned " + std::to_string(rollout.sessions_unassigned) +
                         ")");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// What a run through the pipeline left behind for comparison.
struct Trail {
  std::string stats;
  std::vector<std::string> generations;
  std::uint64_t failed = 0;
};

/// Leading intervals whose timings are reported apart: the first replays
/// fault in the shards' arenas and the thread pool's stacks, a cost a
/// deployment pays once, not every control period.
constexpr int kWarmupIntervals = 2;

/// The production loop: whole ControlLoop::run_interval() calls, timed.
/// When `extra_setups` > 0, that many further set-ups are timed into
/// record.setup_s, spread evenly between the intervals (outside their
/// clocks), so setup_s samples the whole run and not one moment of it.
Trail run_loop(const Workload& workload, Deployment& deployment, TrafficSource& source,
               int intervals, int workers, int extra_setups, EndToEndRecord& record,
               std::vector<std::string>& violations) {
  nwlb::sim::ReplaySimulator& sim = deployment.sim();
  nwlb::online::ControlLoop loop(deployment.controller(), sim, deployment.bootstrap().bundle,
                                 loop_options(workload));
  const int setup_stride = extra_setups > 0 ? std::max(1, intervals / extra_setups) : 0;
  Trail trail;
  for (int i = 0; i < intervals; ++i) {
    const std::vector<nwlb::sim::SessionSpec> sessions = source.next();
    const std::uint64_t unassigned_before = sim.rollout_stats().sessions_unassigned;
    const auto t0 = Clock::now();
    const nwlb::online::IntervalReport report = loop.run_interval(sessions, source.generator());
    IntervalRecord iv;
    iv.wall_s = since(t0);
    iv.sessions = report.sessions_replayed;
    iv.payload_bytes = payload_bytes(sessions);
    iv.load_cost = report.epoch.assignment.load_cost;
    iv.lp_iterations = report.epoch.iterations;
    iv.warmup = i < kWarmupIntervals;
    iv.failed = interval_failed(report.epoch, sim, unassigned_before);
    trail.failed += iv.failed ? 1 : 0;
    record.intervals.push_back(iv);
    check_plan(deployment, report.epoch, "interval " + std::to_string(i), violations);
    trail.generations.push_back(generation_entry(report.rollout));
    if (setup_stride > 0 && (i + 1) % setup_stride == 0 && extra_setups-- > 0) {
      const Deployment extra(workload, workers);
      record.setup_s.push_back(extra.total_s());
    }
  }
  check_conservation(sim, "untraced run", violations);
  const nwlb::sim::ReplayStats stats = sim.stats();
  record.node_work = stats.node_work;
  trail.stats = fingerprint(stats, sim.rollout_stats());
  return trail;
}

void check_bootstrap(Deployment& deployment, std::vector<std::string>& violations) {
  if (solver_degraded(deployment.bootstrap()))
    violations.push_back("bootstrap epoch degraded: " +
                         nwlb::core::to_string(deployment.bootstrap().degraded_reasons));
  check_plan(deployment, deployment.bootstrap(), "bootstrap epoch", violations);
}

/// Single-thread layer kernels over one interval's inputs: payload
/// synthesis, signature matching over the synthesized payloads, and the
/// ingress shim's decision.  Timed apart from the interval.
class KernelTimer {
 public:
  void run(const TrafficSource& source, std::span<const nwlb::sim::SessionSpec> sessions,
           const nwlb::sim::ReplaySimulator& sim, TracedRecord& record) {
    std::size_t next = 0;
    while (next < sessions.size()) {
      // Synthesize a batch of whole sessions into the arena, then scan it.
      payloads_.clear();
      std::size_t used = 0;
      const auto t0 = Clock::now();
      for (; next < sessions.size(); ++next) {
        const nwlb::sim::SessionSpec& s = sessions[next];
        const auto bytes = static_cast<std::size_t>(s.payload_bytes);
        const std::size_t need = bytes * static_cast<std::size_t>(s.fwd_packets + s.rev_packets);
        if (used > 0 && used + need > arena_.size()) break;
        if (need > arena_.size()) arena_.resize(need);
        for (const auto& [direction, packets] :
             {std::pair{nwlb::nids::Direction::kForward, s.fwd_packets},
              std::pair{nwlb::nids::Direction::kReverse, s.rev_packets}}) {
          for (int k = 0; k < packets; ++k) {
            const nwlb::nids::PacketView view = source.generator().packet_into(
                s, k, direction, std::span<char>(arena_.data() + used, bytes));
            payloads_.push_back(view.payload);
            used += bytes;
          }
        }
      }
      record.synth_s += since(t0);
      record.synth_packets += payloads_.size();
      const auto t1 = Clock::now();
      for (const std::string_view payload : payloads_) matches_ += engine_.count_matches(payload);
      record.signature_s += since(t1);
      record.signature_bytes += used;
    }
    nwlb::shim::ShimStats stats;
    const auto t2 = Clock::now();
    for (const nwlb::sim::SessionSpec& s : sessions) {
      const nwlb::shim::Shim& shim =
          sim.shim(source.classes()[static_cast<std::size_t>(s.class_index)].ingress);
      hashes_ ^= shim.decide(s.class_index, s.tuple, nwlb::nids::Direction::kForward, stats).hash;
    }
    record.decide_s += since(t2);
    record.decides += sessions.size();
  }

  /// Results the kernels computed (reported, so no work is dead code).
  std::uint64_t matches() const { return matches_; }
  std::uint32_t hashes() const { return hashes_; }

 private:
  nwlb::nids::SignatureEngine engine_{nwlb::nids::SignatureEngine::default_rules()};
  std::vector<char> arena_ = std::vector<char>(std::size_t{1} << 22);
  std::vector<std::string_view> payloads_;
  std::uint64_t matches_ = 0;
  std::uint32_t hashes_ = 0;
};

/// run_interval()'s five steps through the same public calls, each timed.
Trail run_traced_loop(const Workload& workload, Deployment& deployment,
                      TrafficSource& source, int intervals, TracedRecord& record,
                      KernelTimer& kernels, std::vector<std::string>& violations) {
  nwlb::sim::ReplaySimulator& sim = deployment.sim();
  nwlb::core::Controller& controller = deployment.controller();
  const nwlb::online::ControlLoopOptions options = loop_options(workload);
  const std::unique_ptr<nwlb::online::Estimator> estimator = nwlb::online::make_estimator(
      options.estimator, controller.scenario().classes(),
      controller.scenario().routing().graph().num_nodes(), options.estimator_options);
  nwlb::online::RolloutEngine rollout(deployment.bootstrap().bundle, options.rollout);

  Trail trail;
  for (int i = 0; i < intervals; ++i) {
    const std::vector<nwlb::sim::SessionSpec> sessions = source.next();
    const std::uint64_t unassigned_before = sim.rollout_stats().sessions_unassigned;
    TracedInterval iv;
    const auto t0 = Clock::now();
    // 1. Replay.
    sim.replay(sessions, source.generator());
    const auto t1 = Clock::now();
    // 2. Estimate.
    estimator->observe(sim.window_class_sessions(), sim.window_class_bytes());
    const nwlb::traffic::TrafficMatrix tm = estimator->estimate();
    const auto t2 = Clock::now();
    // 3. Failures from mirror health.
    nwlb::core::EpochRequest request;
    request.tm = &tm;
    request.max_solve_seconds = options.epoch_max_seconds;
    request.objective_tolerance = options.epoch_objective_tolerance;
    if (options.report_mirror_failures) request.failures.down_nodes = sim.down_mirrors();
    // 4. Epoch.
    const auto t3 = Clock::now();
    const EpochResult epoch = controller.run(request);
    const auto t4 = Clock::now();
    // 5. Rollout.
    const nwlb::online::RolloutReport report = rollout.apply(sim, epoch.bundle);
    const auto t5 = Clock::now();

    const auto seconds = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };
    iv.wall_s = seconds(t0, t5);
    iv.replay_s = seconds(t0, t1);
    iv.estimate_s = seconds(t1, t2);
    iv.epoch_s = seconds(t3, t4);
    iv.solve_s = epoch.solve_seconds;
    iv.rollout_s = seconds(t4, t5);
    iv.iterations = epoch.iterations;
    iv.delta_resolve = epoch.delta_resolve;
    iv.warm_started = epoch.warm_started;
    iv.installed = report.installed;
    iv.moved_fraction = report.churn.moved_fraction;
    record.intervals.push_back(iv);

    trail.failed += interval_failed(epoch, sim, unassigned_before) ? 1 : 0;
    check_plan(deployment, epoch, "traced interval " + std::to_string(i), violations);
    trail.generations.push_back(generation_entry(report));
    kernels.run(source, sessions, sim, record);
  }
  check_conservation(sim, "traced run", violations);
  const nwlb::sim::RolloutStats rollout_stats = sim.rollout_stats();
  record.sessions_draining = rollout_stats.sessions_draining_generation;
  const nwlb::sim::ReplayStats stats = sim.stats();
  record.sessions_replayed = stats.sessions_replayed;
  record.miss_rate = stats.miss_rate();
  trail.stats = fingerprint(stats, rollout_stats);
  return trail;
}

}  // namespace

RunResult run_end_to_end(const Workload& workload, const RunOptions& options) {
  RunResult result;
  EndToEndRecord record;
  const auto deployment = std::make_unique<Deployment>(workload, options.workers);
  record.setup_s.push_back(deployment->total_s());
  check_bootstrap(*deployment, result.violations);

  const int intervals = interval_count(workload, options.seconds);
  TrafficSource source(workload, deployment->input().classes, options.seed, intervals);
  run_loop(workload, *deployment, source, intervals, options.workers,
           workload.setup_repeats - 1, record, result.violations);
  record.peak_rss_mb = peak_rss_mb();

  const EndToEndSummary summary = summarize(record);
  result.metrics = summary.metrics;
  result.attempted = record.intervals.size();
  result.failed = summary.failed_intervals;
  std::string setup_s;
  for (const double v : record.setup_s) setup_s += (setup_s.empty() ? "" : ", ") + json_number(v);
  std::uint64_t sessions = 0;
  long long lp_iterations = 0;
  std::string wall_ms;
  for (const IntervalRecord& iv : record.intervals) {
    sessions += iv.sessions;
    lp_iterations += iv.lp_iterations;
    wall_ms += (wall_ms.empty() ? "" : ", ") + json_number(iv.wall_s * 1e3);
  }
  result.details_json =
      "\"intervals\": " + std::to_string(record.intervals.size()) +
      ", \"sessions\": " + std::to_string(sessions) +
      ", \"lp_iterations\": " + std::to_string(lp_iterations) +
      ", \"interval_ms_tail_percentile\": " + json_number(summary.tail.percentile) +
      ", \"interval_ms_tail_samples\": " + std::to_string(summary.tail.samples) +
      ", \"interval_ms_tail_beyond\": " + std::to_string(summary.tail.beyond) +
      ", \"failed_share\": " + json_number(summary.failed_share) +
      ", \"miss_rate\": " + json_number(deployment->sim().stats().miss_rate()) +
      ", \"warmup_intervals\": " + std::to_string(kWarmupIntervals) +
      ", \"setup_repeats\": " + std::to_string(record.setup_s.size()) +
      ", \"active_generation\": " + std::to_string(deployment->sim().active_generation()) +
      ", \"setup_s\": [" + setup_s + "]" + ", \"interval_ms\": [" + wall_ms + "]";
  return result;
}

RunResult run_traced(const Workload& workload, const RunOptions& options) {
  RunResult result;
  const int intervals = interval_count(workload, options.seconds);

  // Untraced reference: the production loop from a fresh set-up.
  Trail reference;
  std::vector<double> untraced_wall_s;
  {
    Deployment deployment(workload, options.workers);
    check_bootstrap(deployment, result.violations);
    TrafficSource source(workload, deployment.input().classes, options.seed, intervals);
    EndToEndRecord record;
    reference = run_loop(workload, deployment, source, intervals, options.workers, 0, record,
                         result.violations);
    for (const IntervalRecord& iv : record.intervals) untraced_wall_s.push_back(iv.wall_s);
  }

  // Traced run from an identical fresh set-up over identical traffic.
  TracedRecord record;
  record.untraced_wall_s = untraced_wall_s;
  Deployment deployment(workload, options.workers);
  record.controller_init_s = deployment.controller_init_s;
  record.bootstrap_epoch_s = deployment.bootstrap_epoch_s;
  record.bootstrap_iterations = deployment.bootstrap().iterations;
  record.sim_init_s = deployment.sim_init_s;
  check_bootstrap(deployment, result.violations);
  TrafficSource source(workload, deployment.input().classes, options.seed, intervals);
  KernelTimer kernels;
  const Trail traced = run_traced_loop(workload, deployment, source, intervals, record,
                                       kernels, result.violations);

  if (traced.stats != reference.stats)
    result.violations.push_back("traced ReplayStats differ from the untraced run's");
  if (traced.generations != reference.generations)
    result.violations.push_back("traced generation sequence differs from the untraced run's");

  result.metrics = summarize(record);
  result.attempted = record.intervals.size();
  result.failed = traced.failed;
  double steps_s = 0.0;
  double wall_s = 0.0;
  for (const TracedInterval& iv : record.intervals) {
    wall_s += iv.wall_s;
    steps_s += iv.replay_s + iv.estimate_s + iv.epoch_s + iv.rollout_s;
  }
  result.details_json =
      "\"intervals\": " + std::to_string(record.intervals.size()) +
      ", \"step_share_of_interval\": " + json_number(safe_ratio(steps_s, wall_s)) +
      ", \"kernel_signature_matches\": " + std::to_string(kernels.matches()) +
      ", \"kernel_decide_hash_xor\": " + std::to_string(kernels.hashes()) +
      ", \"synth_packets\": " + std::to_string(record.synth_packets) +
      ", \"signature_bytes\": " + std::to_string(record.signature_bytes);
  return result;
}

}  // namespace perfbench
