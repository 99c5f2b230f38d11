// Live observability plane demo: the three exporters working together.
//
//   ./obs_exposition_demo
//
// Runs the serving layer over a small synthetic city with the full
// instrumentation stack attached:
//   1. an ExpositionServer on an ephemeral 127.0.0.1 port, scraped once
//      mid-run with a plain socket GET (what Prometheus would do),
//   2. an EventRecorder capturing the request timeline, exported as
//      obs_demo_trace.json — load it in chrome://tracing or
//      ui.perfetto.dev to see request flows hop across threads,
//   3. a TimeSeriesSampler ticking queue/carryover depth on a wall-clock
//      cadence, written as obs_demo_series.jsonl.
//
// Both files land in the build directory (LACB_OBS_DEMO_OUTPUT_DIR, set
// by examples/CMakeLists.txt), not the working directory.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "lacb/lacb.h"

namespace {

// Minimal blocking HTTP GET against 127.0.0.1:port — the demo stands in
// for a Prometheus scraper, so it speaks the same plain-text protocol.
std::string HttpGet(int port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n"
                        "Connection: close\r\n\r\n";
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof(buf))) > 0) response.append(buf, n);
  ::close(fd);
  return response;
}

#ifndef LACB_OBS_DEMO_OUTPUT_DIR
#define LACB_OBS_DEMO_OUTPUT_DIR "."
#endif

}  // namespace

int main() {
  using namespace lacb;

  sim::DatasetConfig data;
  data.name = "obs-demo";
  data.num_brokers = 40;
  data.num_requests = 900;
  data.num_days = 3;
  data.imbalance = 0.2;
  data.seed = 17;

  core::PolicySuiteConfig suite;
  policy::PolicyFactory factory = core::SuitePolicyFactory(data, suite, 1);

  obs::ScopedTelemetry telemetry;
  obs::EventRecorder recorder;
  obs::ScopedContextAdoption recording(&telemetry.registry(),
                                       &telemetry.tracer(), &recorder);

  serve::ServeOptions options;
  options.num_workers = 2;
  options.max_batch_size = 16;
  options.max_batch_delay = std::chrono::milliseconds(1);
  options.queue_capacity = 1024;
  options.exposition_port = 0;  // ephemeral: the OS picks a free port

  auto service = serve::AssignmentService::Create(data, factory, options);
  if (!service.ok()) {
    std::cerr << service.status() << "\n";
    return 1;
  }
  if (auto s = (*service)->Start(); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::cout << "metrics live at http://127.0.0.1:" << (*service)->exposition_port()
            << "/metrics\n";

  // Sample serving gauges/counters every 2ms while the run breathes.
  obs::TimeSeriesSampler::Options sampler_opts;
  sampler_opts.instruments = {"serve.queue_depth", "serve.carryover_depth",
                              "serve.submitted", "serve.shed_requests"};
  sampler_opts.time_unit = "seconds";
  obs::TimeSeriesSampler sampler(sampler_opts);
  if (auto s = sampler.StartPeriodic(std::chrono::milliseconds(2)); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }

  for (size_t day = 0; day < data.num_days; ++day) {
    if (auto s = (*service)->OpenDay(day); !s.ok()) {
      std::cerr << s << "\n";
      return 1;
    }
    for (const auto& batch : (*service)->platform().all_requests()[day]) {
      for (const sim::Request& r : batch) (void)(*service)->Submit(r);
    }
    if (day == 1) {
      // Scrape mid-run, exactly as a Prometheus server would.
      std::string scrape = HttpGet((*service)->exposition_port(), "/metrics");
      std::istringstream lines(scrape.substr(scrape.find("\r\n\r\n") + 4));
      std::string line;
      std::cout << "\n--- /metrics (first 24 lines of the day-1 scrape) ---\n";
      for (int i = 0; i < 24 && std::getline(lines, line); ++i) {
        std::cout << line << "\n";
      }
      std::cout << "---\n\n";
    }
    auto outcome = (*service)->CloseDay();
    if (!outcome.ok()) {
      std::cerr << outcome.status() << "\n";
      return 1;
    }
    std::cout << "day " << day << ": realized utility "
              << outcome->realized_utility << ", appeals " << outcome->appeals
              << "\n";
  }

  serve::ServeStats stats = (*service)->Stats();
  (*service)->Shutdown();
  sampler.StopPeriodic();

  std::cout << "\nserved " << stats.assigned << " assignments over "
            << stats.batches << " batches; exposition answered "
            << "1 scrape during the run\n";

  const std::string out_dir = LACB_OBS_DEMO_OUTPUT_DIR;
  const std::string trace_path = out_dir + "/obs_demo_trace.json";
  if (auto s = obs::WriteChromeTrace(recorder, trace_path,
                                     "obs_exposition_demo");
      !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  obs::TraceSnapshot snap = recorder.Snapshot();
  std::cout << "wrote " << trace_path << ": " << snap.events.size()
            << " events across " << snap.threads
            << " threads (open in chrome://tracing or ui.perfetto.dev)\n";

  const std::string series_path = out_dir + "/obs_demo_series.jsonl";
  const obs::TimeSeries& series = sampler.Series();
  if (auto s = series.WriteJsonl(series_path); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  std::cout << "wrote " << series_path << ": " << series.points.size()
            << " samples of " << sampler_opts.instruments.size()
            << " instruments\n";
  return 0;
}
