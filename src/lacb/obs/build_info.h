// Build identity and process uptime for the Prometheus exposition.
//
// `lacb_build_info` is the conventional info-style metric: a constant 1
// whose labels carry the version / commit / compiler / SIMD tier, so
// dashboards can join any series against the binary (and the kernel tier
// the host picked) that produced it. `lacb_uptime_seconds`
// measures from process start (static initialization), not first scrape,
// so the very first scrape already reports a truthful age.

#ifndef LACB_OBS_BUILD_INFO_H_
#define LACB_OBS_BUILD_INFO_H_

#include <string>

namespace lacb::obs {

/// \brief Static identity of this binary.
struct BuildInfo {
  std::string version;
  std::string commit;    // short git hash, or "unknown" outside a checkout
  std::string compiler;  // e.g. "gcc 13.2.0"
  std::string simd;      // the wide-kernel tier this CPU runs (cpu.h)
};

/// \brief The identity baked in at compile time.
const BuildInfo& GetBuildInfo();

/// \brief Seconds since process start (static-init epoch).
double UptimeSeconds();

/// \brief Renders the `lacb_build_info` and `lacb_uptime_seconds` metrics
/// in Prometheus text format (with trailing newline). Prepended to every
/// /metrics response by the exposition server.
std::string RenderBuildInfoMetrics();

}  // namespace lacb::obs

#endif  // LACB_OBS_BUILD_INFO_H_
