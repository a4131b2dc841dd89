// perfbench_loop: one workload of the control-loop benchmark, in this
// single-threaded process. See ../README.md for the workloads, the metrics
// and how each per-layer metric maps onto the end-to-end ones.
//
//   perfbench_loop --workload remote_sched|fleet_ingest|ue_churn
//                  --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every output check passed.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_counter.h"
#include "rig.h"
#include "util/logging.h"

using namespace perfbench;

namespace {

/// Rigs built per run, at least this many and for at least this long, so
/// that the set-ups sample the host's speed over seconds, not one moment;
/// setup_s is the median of their set-up times. The last rig is measured.
constexpr int kMinSetupRuns = 41;
constexpr double kMinSetupSeconds = 2.0;
/// TTIs run between set-up and the window (caches and queues settle).
constexpr int kWarmupTtis = 200;
/// Exact counts (allocations, wire bytes) come from the window's first
/// TTIs: a fixed span of simulated work, independent of the host's speed.
/// Peak memory is read there too, before the benchmark's own per-cycle
/// samples, which grow with the host's speed, can dominate it.
constexpr std::int64_t kCountTtis = 1000;
/// cycle_us_p99 is the median of the p99s of consecutive groups of this
/// many cycles, each with ten samples beyond its p99.
constexpr std::int64_t kGroupTtis = 1000;
/// The window holds at least three such groups.
constexpr std::int64_t kMinWindowTtis = 3 * kGroupTtis;
/// Largest share of the traced wall time per TTI that the layers' self
/// times may leave unexplained (the benchmark's own loop between spans).
constexpr double kLayerSumSlack = 0.05;

struct MetricDef {
  const char* name;
  const char* unit;
  /// Only fleet_ingest (not gated) exercises it; other workloads omit it.
  bool fleet_only = false;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"cpu_us_per_tti", "us"},     {"cycle_us_p50", "us"},
    {"cycle_us_p99", "us"},     {"allocs_per_tti", "count"},  {"wire_bytes_per_tti", "B"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"agent.subframe_us_p50", "us"},
    {"agent.subframe_us_p99", "us"},
    {"agent.rx_us_per_msg", "us"},
    {"agent.allocs_per_tti", "count"},
    {"agent.decisions_applied_per_received", "ratio"},
    {"stack.subframe_us", "us"},
    {"net.agent_send_us_per_msg", "us"},
    {"net.master_send_us_per_msg", "us"},
    {"net.frames_per_tti", "count"},
    {"sim.self_us_per_tti", "us"},
    {"proto.decode_ns.stats_reply", "ns"},
    {"proto.decode_ns.event", "ns"},
    {"proto.decode_ns.dl_mac_config", "ns"},
    {"proto.encode_ns.stats_reply", "ns"},
    {"proto.encode_ns.dl_mac_config", "ns"},
    {"controller.rx_us_per_msg", "us"},
    {"controller.updater_us", "us"},
    {"controller.publish_us", "us"},
    {"controller.allocs_per_update", "count"},
    {"controller.compose_us", "us", true},
    {"controller.updates_per_tti", "count"},
    {"controller.ingest_peak_msgs", "count"},
    {"controller.rib_bytes_per_ue", "B"},
    {"apps.remote_scheduler_us", "us"},
    {"apps.commands_per_tti", "count"},
    {"apps.monitoring_us", "us", true},
    {"net.frames_shed", "count"},
    {"controller.ingest_shed", "count"},
    {"agent.missed_deadline_decisions", "count"},
    {"agent.guard_failures", "count"},
};

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident memory of this process image. VmHWM, not ru_maxrss: the
/// latter carries over the peak of the process that exec'd us (a Python
/// launcher's own footprint would show up as ours).
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

std::string number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::unique_ptr<Rig> make_rig(const Options& options) {
  if (options.workload == "remote_sched") return make_remote_sched(options);
  if (options.workload == "fleet_ingest") return make_fleet_ingest(options);
  if (options.workload == "ue_churn") return make_ue_churn(options);
  return nullptr;
}

/// Builds rigs, appending each set-up time to `setup_s`, and returns the
/// last one.
std::unique_ptr<Rig> timed_setups(const Options& options, std::vector<double>& setup_s) {
  std::unique_ptr<Rig> rig;
  const auto setups_start = Clock::now();
  for (int built = 0; built < kMinSetupRuns ||
                      us_between(setups_start, Clock::now()) * 1e-6 < kMinSetupSeconds;
       ++built) {
    rig.reset();
    const auto start = Clock::now();
    rig = make_rig(options);
    rig->setup();
    setup_s.push_back(us_between(start, Clock::now()) * 1e-6);
  }
  return rig;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_loop: %s\nusage: perfbench_loop --workload "
               "remote_sched|fleet_ingest|ue_churn --seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else {
      return usage("unknown flag");
    }
  }
  if (argc % 2 == 0) return usage("every flag takes a value");
  if (options.seconds <= 0.0) return usage("--seconds must be positive");
  if (!make_rig(options)) return usage("unknown workload");
  flexran::util::Logger::instance().set_level(flexran::util::LogLevel::error);

  // ---- set-up, several times: the last rig is the one measured -----------
  std::vector<double> setup_s;
  const std::unique_ptr<Rig> rig = timed_setups(options, setup_s);
  for (int i = 0; i < kWarmupTtis; ++i) rig->run_tti();

  // ---- measured window: whole TTIs until --seconds have passed ------------
  rig->set_window(true);
  const Counters start = rig->read_counters();
  const std::uint64_t allocs_at_start = allocations();
  const auto wall_start = Clock::now();
  const double cpu_start = process_cpu_s();
  std::uint64_t count_allocs = 0;
  std::uint64_t count_bytes = 0;
  std::int64_t ttis = 0;
  double wall_s = 0.0;
  double peak_rss = 0.0;
  for (;;) {
    rig->run_tti();
    ++ttis;
    if (ttis == kCountTtis) {
      count_allocs = allocations() - allocs_at_start;
      count_bytes = rig->wire_bytes() - start.wire_bytes;
      peak_rss = peak_rss_mb();
    }
    wall_s = us_between(wall_start, Clock::now()) * 1e-6;
    if (ttis >= kMinWindowTtis && wall_s >= options.seconds) break;
  }
  const double cpu_s = process_cpu_s() - cpu_start;
  rig->set_window(false);
  const Counters end = rig->read_counters();

  // The tail per group of consecutive cycles: a burst of interference
  // raises the p99 of the groups it falls into, not the median group's.
  const auto& cycles = rig->cycle_us();
  std::vector<double> group_p99;
  for (std::size_t g = 0; (g + 1) * kGroupTtis <= cycles.size(); ++g) {
    const auto first = cycles.begin() + static_cast<std::ptrdiff_t>(g * kGroupTtis);
    group_p99.push_back(quantile(std::vector<double>(first, first + kGroupTtis), 0.99));
  }

  Metrics metrics;
  const double per_tti = 1.0 / static_cast<double>(ttis);
  metrics["cpu_us_per_tti"] = cpu_s * 1e6 * per_tti;
  metrics["cycle_us_p50"] = quantile(cycles, 0.50);
  metrics["cycle_us_p99"] = quantile(group_p99, 0.50);
  metrics["allocs_per_tti"] = static_cast<double>(count_allocs) / static_cast<double>(kCountTtis);
  metrics["wire_bytes_per_tti"] =
      static_cast<double>(count_bytes) / static_cast<double>(kCountTtis);
  std::printf("whole-window cycle_us_p99 %.3f (pooled)\n", quantile(cycles, 0.99));

  Outcome outcome;
  if (options.trace) {
    rig->layer_metrics(start, end, ttis, metrics);
    double layer_sum_us = 0.0;
    for (int layer = 0; layer < kLayers; ++layer) {
      const double us = rig->tracer().self_us(static_cast<Layer>(layer)) * per_tti;
      std::printf("layer %-10s self %10.3f us/tti\n", to_string(static_cast<Layer>(layer)), us);
      layer_sum_us += us;
    }
    const double wall_us = wall_s * 1e6 * per_tti;
    const double residual = (wall_us - layer_sum_us) / wall_us;
    std::printf("layer sum %.3f us/tti, traced wall %.3f us/tti, unexplained %.2f%% (slack %.0f%%)\n",
                layer_sum_us, wall_us, residual * 100.0, kLayerSumSlack * 100.0);
    std::printf("traced cpu_us_per_tti %.3f (minus the untraced run's = tracing overhead)\n",
                metrics["cpu_us_per_tti"]);
    if (residual > kLayerSumSlack || residual < 0.0) {
      outcome.violations.push_back("layer self times do not add up to the traced wall time");
    }
    rig->samples().capturing = true;
  }
  Outcome checks = rig->finish();
  outcome.attempted = checks.attempted;
  outcome.failed = checks.failed;
  outcome.violations.insert(outcome.violations.end(), checks.violations.begin(),
                            checks.violations.end());
  if (options.trace) replay_proto(rig->samples().captured, metrics);
  metrics["setup_s"] = quantile(setup_s, 0.50);
  metrics["peak_rss_mb"] = peak_rss;

  // ---- report --------------------------------------------------------------
  std::printf("workload %s seed %llu: %lld TTIs in %.3f s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), static_cast<long long>(ttis),
              wall_s);
  for (const auto& violation : outcome.violations) {
    std::printf("CHECK FAILED: %s\n", violation.c_str());
  }
  const bool correct =
      outcome.violations.empty() && outcome.attempted > 0 && outcome.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& def) {
    const double value = metrics[def.name];
    std::printf("%-40s %16.4f %s\n", def.name, value, def.unit);
    json += first ? "" : ", ";
    first = false;
    json += std::string("\"") + def.name + "\": {\"value\": " + number(value) +
            ", \"unit\": \"" + def.unit + "\"}";
  };
  if (options.trace) {
    for (const auto& def : kPerLayer) {
      if (!def.fleet_only || options.workload == "fleet_ingest") emit(def);
    }
  } else {
    for (const auto& def : kEndToEnd) emit(def);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
