// perfbench_cli: one benchmark invocation over one workload.
//
//   perfbench_cli --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench_cli --list-metrics | --list-workloads
//
// Prints one JSON object on its last stdout line: the metrics (end to end
// with --trace 0, per layer with --trace 1), the interval counts, every
// failed output check, and the run's provenance.  perfbench/run.py builds
// this binary and wraps its output into the benchmark's result line.
// Exit status: 0 when every check passed, 1 when a check failed, 2 on a
// usage error, 3 when the binary was built without optimization.
#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "metrics.h"
#include "pipeline.h"
#include "workloads.h"

namespace {

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
#if defined(NDEBUG)
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    const auto last = model.find_last_not_of(' ');
    if (first != std::string::npos) return model.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int usage(const char* error) {
  std::cerr << "perfbench_cli: " << error
            << "\nusage: perfbench_cli --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\n       perfbench_cli --list-metrics | --list-workloads\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  bool have_seed = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--list-metrics") {
        for (const perfbench::MetricSpec& m : perfbench::declared_metrics())
          std::cout << m.name << ' ' << m.unit << ' '
                    << (m.kind == perfbench::MetricKind::kEndToEnd ? "end_to_end"
                                                                   : "per_layer")
                    << '\n';
        return 0;
      }
      if (arg == "--list-workloads") {
        for (const std::string_view name : perfbench::workload_names())
          std::cout << name << '\n';
        return 0;
      }
      if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
      const std::string value = argv[++i];
      if (arg == "--workload") {
        workload_name = value;
      } else if (arg == "--seed") {
        seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        seconds = std::stoi(value);
      } else if (arg == "--trace") {
        trace = std::stoi(value);
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (workload_name.empty() || !have_seed || seconds <= 0 || (trace != 0 && trace != 1))
    return usage("--workload, --seed, --seconds > 0 and --trace 0|1 are required");

  if (!kOptimized || !kNdebug) {
    std::cerr << "perfbench_cli: refusing to report numbers from a build without "
                 "optimization and NDEBUG (build type "
              << PERFBENCH_BUILD_TYPE << ")\n";
    return 3;
  }

  perfbench::RunOptions options;
  options.seed = seed;
  options.seconds = seconds;
  const int cpus = online_cpus();
  options.workers = std::max(1, std::min(4, cpus));

  perfbench::RunResult result;
  try {
    const perfbench::Workload workload = perfbench::make_workload(workload_name);
    result = trace == 1 ? perfbench::run_traced(workload, options)
                        : perfbench::run_end_to_end(workload, options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_cli: " << e.what() << '\n';
    return 2;
  }

  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(m.name) + ": {\"value\": " + perfbench::json_number(m.value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::string violations;
  for (const std::string& v : result.violations) {
    if (!violations.empty()) violations += ", ";
    violations += json_string(v);
  }
  std::cout << "{\"workload\": " << json_string(workload_name)
            << ", \"trace\": " << trace << ", \"correct\": "
            << (result.violations.empty() ? "true" : "false")
            << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
            << ", \"metrics\": {" << metrics << "}, \"violations\": [" << violations
            << "], \"details\": {" << result.details_json
            << "}, \"provenance\": {\"cpu_model\": " << json_string(cpu_model())
            << ", \"nproc\": " << cpus << ", \"replay_workers\": " << options.workers
            << ", \"seed\": " << seed << ", \"seconds\": " << seconds
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"optimized\": " << (kOptimized ? "true" : "false")
            << ", \"ndebug\": " << (kNdebug ? "true" : "false") << "}}" << std::endl;
  return result.violations.empty() ? 0 : 1;
}
