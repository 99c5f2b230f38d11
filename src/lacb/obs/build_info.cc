#include "lacb/obs/build_info.h"

#include <chrono>
#include <sstream>

#include "lacb/common/cpu.h"

namespace lacb::obs {

namespace {

// Process-start epoch, captured during static initialization so uptime is
// truthful from the first scrape onward.
const std::chrono::steady_clock::time_point g_process_start =
    std::chrono::steady_clock::now();

#ifndef LACB_BUILD_COMMIT
#define LACB_BUILD_COMMIT "unknown"
#endif

// Bumped per milestone; serving-era observability plane.
constexpr char kVersion[] = "0.6.0";

std::string CompilerString() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

// Prometheus label values escape backslash, double-quote, and newline.
std::string EscapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

const BuildInfo& GetBuildInfo() {
  static const BuildInfo info = [] {
    BuildInfo b;
    b.version = kVersion;
    b.commit = LACB_BUILD_COMMIT;
    b.compiler = CompilerString();
    b.simd = SimdTierName();
    return b;
  }();
  return info;
}

double UptimeSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_process_start)
      .count();
}

std::string RenderBuildInfoMetrics() {
  const BuildInfo& info = GetBuildInfo();
  std::ostringstream out;
  out << "# HELP lacb_build_info Build identity (version, git commit, "
         "compiler, SIMD tier) as constant-1 labels.\n";
  out << "# TYPE lacb_build_info gauge\n";
  out << "lacb_build_info{version=\"" << EscapeLabel(info.version)
      << "\",commit=\"" << EscapeLabel(info.commit) << "\",compiler=\""
      << EscapeLabel(info.compiler) << "\",simd=\"" << EscapeLabel(info.simd)
      << "\"} 1\n";
  out << "# HELP lacb_uptime_seconds Seconds since process start.\n";
  out << "# TYPE lacb_uptime_seconds gauge\n";
  out << "lacb_uptime_seconds " << UptimeSeconds() << "\n";
  return out.str();
}

}  // namespace lacb::obs
