#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>


namespace perfbench {

namespace {

using nwlb::sim::SessionSpec;
using nwlb::traffic::TrafficMatrix;

constexpr std::array<std::string_view, 3> kNames = {"dp-realistic", "dp-probe",
                                                     "ctl-drift"};

/// Keeps only the `fanout` largest destinations per source PoP — the
/// synthetic-AS matrix shape of bench/table1_solve_time.
void cap_fanout(TrafficMatrix& tm, int fanout) {
  const int n = tm.num_nodes();
  std::vector<std::pair<double, int>> dests;
  for (int src = 0; src < n; ++src) {
    dests.clear();
    for (int dst = 0; dst < n; ++dst) {
      const double v = tm.volume(src, dst);
      if (v > 0.0) dests.emplace_back(v, dst);
    }
    if (static_cast<int>(dests.size()) <= fanout) continue;
    std::nth_element(dests.begin(), dests.begin() + fanout, dests.end(),
                     [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::size_t k = static_cast<std::size_t>(fanout); k < dests.size(); ++k)
      tm.set_volume(src, dests[k].second, 0.0);
  }
}

Workload geant_workload(std::string name) {
  Workload w;
  w.name = std::move(name);
  w.topology = nwlb::topo::make_geant();
  w.mean_tm = nwlb::traffic::gravity_matrix(
      w.topology.graph, nwlb::traffic::paper_total_sessions(w.topology.graph.num_nodes()));
  return w;
}

}  // namespace

std::span<const std::string_view> workload_names() { return kNames; }

Workload make_workload(std::string_view name) {
  if (name == "dp-realistic") {
    // Default TraceConfig: Pareto 64-1400 B payloads, up to 12 packets per
    // direction, scanners, 2% malicious.  Signature scanning dominates.
    Workload w = geant_workload("dp-realistic");
    w.sessions_per_interval = 20000;
    w.intervals_per_second = 8.0;
    w.setup_repeats = 15;
    return w;
  }
  if (name == "dp-probe") {
    // Minimum payloads, one packet per direction: per-session cost
    // (decide, session state, tunnel framing) dominates.
    Workload w = geant_workload("dp-probe");
    w.trace.min_payload = 16;
    w.trace.max_payload = 16;
    w.trace.max_packets_per_direction = 1;
    w.sessions_per_interval = 300000;
    w.intervals_per_second = 5.0;
    w.setup_repeats = 15;
    return w;
  }
  if (name == "ctl-drift") {
    // 100-PoP synthetic ISP, fanout-capped gravity, Hurst-0.8 interval
    // windows, small intervals, non-zero drain: the control plane works.
    Workload w;
    w.name = "ctl-drift";
    w.topology = nwlb::topo::make_synthetic_isp("AS100", 100, 0x5eedull + 100);
    w.mean_tm = nwlb::traffic::gravity_matrix(w.topology.graph,
                                              nwlb::traffic::paper_total_sessions(100));
    cap_fanout(w.mean_tm, 32);
    w.sessions_per_interval = 3000;
    w.hurst = 0.8;
    w.drain_sessions = 1000;
    w.intervals_per_second = 4.0;
    w.setup_repeats = 3;  // Each set-up solves the 100-PoP LP cold.
    return w;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

int interval_count(const Workload& workload, int seconds) {
  return std::max(
      42, static_cast<int>(std::lround(workload.intervals_per_second * seconds)));
}

TrafficSource::TrafficSource(const Workload& workload,
                             std::vector<nwlb::traffic::TrafficClass> classes,
                             std::uint64_t seed, int intervals)
    : workload_(&workload),
      classes_(std::move(classes)),
      generator_(classes_, workload.trace, seed) {
  if (workload.hurst > 0.0) {
    // The burst process keeps its default seed: the windows are part of
    // the scenario, and `seed` samples the sessions inside them.
    nwlb::traffic::SelfSimilarOptions options;
    options.hurst = workload.hurst;
    bursts_.emplace(workload.mean_tm, intervals, options);
  }
}

std::vector<SessionSpec> TrafficSource::next() {
  const int w = next_window_++;
  if (!bursts_) return generator_.generate(workload_->sessions_per_interval);
  // The window's class mix, with volume tracking the burst process (the
  // shape nwlbctl --live --hurst drives).
  const TrafficMatrix window = bursts_->window(w);
  std::vector<double> weights;
  weights.reserve(classes_.size());
  for (const auto& cls : classes_) weights.push_back(window.volume(cls.ingress, cls.egress));
  const double mean_total = bursts_->mean().total();
  const double scale = mean_total > 0.0 ? window.total() / mean_total : 1.0;
  const int count =
      std::max(1, static_cast<int>(std::lround(workload_->sessions_per_interval * scale)));
  return generator_.generate_weighted(count, weights);
}

double payload_bytes(std::span<const SessionSpec> sessions) {
  double bytes = 0.0;
  for (const SessionSpec& s : sessions)
    bytes += static_cast<double>(s.payload_bytes) *
             static_cast<double>(s.fwd_packets + s.rev_packets);
  return bytes;
}

}  // namespace perfbench
