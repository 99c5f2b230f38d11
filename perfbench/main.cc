// Entry point of the benchmark harness binary (driven by run.py):
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --shard-binary <path> --workdir <dir>
//
// Prints one line per metric ("name value unit") and, last, one JSON
// object {"correct", "attempted", "failed", "metrics"}. A failed
// correctness check prints the violations to stderr, reports no numbers
// and exits 1.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "lacb/obs/context.h"
#include "lacb/obs/metrics.h"
#include "perfbench.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double WindowedQuantile(const std::vector<double>& samples, size_t window,
                        double q) {
  if (samples.size() < 2 * window) return Quantile(samples, q);
  std::vector<double> per_window;
  for (size_t w = 0; w + window <= samples.size(); w += window) {
    per_window.push_back(Quantile(
        std::vector<double>(samples.begin() + w, samples.begin() + w + window),
        q));
  }
  return Median(per_window);
}

double PeakRssMb() {
  // VmHWM restarts at exec, unlike RUSAGE_SELF's ru_maxrss, which a
  // process inherits from whatever forked it.
  double self_kb = 0.0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kb = std::atof(line.c_str() + 6);
  }
  struct rusage children {};
  getrusage(RUSAGE_CHILDREN, &children);
  return (self_kb + static_cast<double>(children.ru_maxrss)) / 1024.0;
}

namespace {

volatile double calibration_sink = 0.0;

// The initial affinity set, read once before any thread is pinned.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

void RotateCpu() {
  const std::vector<int>& cpus = AllowedCpus();
  static size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);  // best effort
}

double CalibrationMs() {
  constexpr int n = 256;
  // A fixed pseudo-random cost matrix (xorshift), built once.
  static const std::vector<double> cost = [] {
    std::vector<double> a(n * n);
    uint64_t s = 42;
    for (double& x : a) {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      x = static_cast<double>(s % 100000) / 1000.0;
    }
    return a;
  }();
  const double inf = std::numeric_limits<double>::infinity();
  Clock::time_point start = Clock::now();
  // Shortest augmenting path Hungarian method, 1-based potentials.
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0), minv(n + 1);
  std::vector<int> p(n + 1, 0), way(n + 1, 0);
  std::vector<char> used(n + 1);
  for (int i = 1; i <= n; ++i) {
    p[0] = i;
    int j0 = 0;
    std::fill(minv.begin(), minv.end(), inf);
    std::fill(used.begin(), used.end(), 0);
    do {
      used[j0] = 1;
      const int i0 = p[j0];
      int j1 = 0;
      double delta = inf;
      for (int j = 1; j <= n; ++j) {
        if (used[j]) continue;
        const double cur = cost[(i0 - 1) * n + j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (int j = 0; j <= n; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const int j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }
  calibration_sink = v[0];  // keeps the solve from being optimized away
  return SecondsBetween(start, Clock::now()) * 1e3;
}

std::vector<double> CalibrateEachCpu() {
  cpu_set_t saved;
  CPU_ZERO(&saved);
  const bool restore = sched_getaffinity(0, sizeof(saved), &saved) == 0;
  std::vector<double> out;
  for (int c : AllowedCpus()) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    sched_setaffinity(0, sizeof(one), &one);  // best effort
    out.push_back(CalibrationMs());
  }
  if (restore) sched_setaffinity(0, sizeof(saved), &saved);
  return out;
}

double InstrumentCostNs() {
  // Mirrors what an instrumented solve does per call: resolve the active
  // registry, look the instrument up by name, record under its mutex.
  constexpr int kCalls = 200000;
  std::vector<double> per_call;
  for (int rep = 0; rep < 5; ++rep) {
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      lacb::obs::ActiveRegistry()
          .GetHistogram("perfbench.instrument_probe_seconds")
          .Record(1e-6 * static_cast<double>(i & 1023));
    }
    per_call.push_back(SecondsBetween(start, Clock::now()) * 1e9 / kCalls);
  }
  return Median(per_call);
}

namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == nullptr || *end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--shard-binary") {
      args->shard_binary = value;
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1> --shard-binary <path> --workdir <dir>\n";
    return 2;
  }
  Report report;
  lacb::Status status;
  if (args.workload == "offline_exact") {
    status = RunOffline(args, &report);
  } else if (args.workload == "serve_open") {
    status = RunServe(args, &report);
  } else if (args.workload == "fleet_failover") {
    status = RunFleet(args, &report);
  } else {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  if (!status.ok()) {
    std::cerr << "workload " << args.workload << " failed: " << status << "\n";
    return 1;
  }
  if (!report.violations.empty()) {
    for (const std::string& v : report.violations) {
      std::cerr << "CORRECTNESS VIOLATION: " << v << "\n";
    }
    std::cout << "{\"correct\": false, \"attempted\": " << report.attempted
              << ", \"failed\": " << report.failed << ", \"metrics\": {}}\n";
    return 1;
  }
  const auto& metrics = args.trace ? report.layer : report.e2e;
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(report.attempted) +
                     ", \"failed\": " + std::to_string(report.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics) {
    std::printf("%-40s %.6g %s\n", name.c_str(), value_unit.first,
                value_unit.second.c_str());
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " +
            JsonNumber(value_unit.first) + ", \"unit\": \"" +
            value_unit.second + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
