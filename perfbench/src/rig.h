// The rig every workload is built on: a simulator, a TTI ticker, a
// Coordinator over its shards, eNodeB data planes with their Agents, and
// SimTransport pairs between them -- the program's public objects wired by
// hand, so the benchmark itself makes (and times) each
// Coordinator::run_cycle() call.
//
// Per-TTI order (TtiTicker priorities, the same as the scenario layer's):
//   1..9   the workload's own input for the TTI (traffic, churn, reports)
//   10+i   eNodeB i subframe_begin (the agent runs inside it)
//   500    Coordinator::run_cycle()
//   800+i  eNodeB i subframe_end
//   900    the workload's end-of-TTI hook (output checks)
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agent/agent.h"
#include "controller/coordinator.h"
#include "net/sim_transport.h"
#include "probes.h"
#include "sim/simulator.h"
#include "stack/enodeb.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Operations attempted and failed, plus any output-check violations
/// (a violation makes the run incorrect).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
};

using Metrics = std::map<std::string, double>;

/// Cumulative counters read at the edges of the measured window.
struct Counters {
  std::uint64_t wire_bytes = 0;
  std::uint64_t frames = 0;
  std::uint64_t updates = 0;
  std::int64_t cycles = 0;
  double updater_us = 0.0;
  double publish_us = 0.0;
  std::uint64_t commands = 0;
  double remote_scheduler_us = 0.0;
  std::uint64_t remote_scheduler_runs = 0;
  std::uint64_t decisions_applied = 0;
  std::uint64_t agent_messages_received = 0;
};

class Rig {
 public:
  struct Enb {
    std::unique_ptr<stack::EnodebDataPlane> data_plane;
    std::unique_ptr<agent::Agent> agent;
    std::unique_ptr<TimedListener> listener;
    ctrl::AgentId id = 0;
  };

  explicit Rig(const Options& options);
  virtual ~Rig();
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Builds the rig and brings it to steady state.
  virtual void setup() = 0;
  /// Runs the output checks (with their own tail of TTIs) after the window.
  virtual Outcome finish() = 0;

  /// Advances the simulation by one TTI.
  void run_tti();
  void set_window(bool on);
  Counters read_counters() const;
  /// Control-channel bytes sent so far, both directions, framing included.
  std::uint64_t wire_bytes() const;
  /// Generic per-layer metrics over a window of `ttis` TTIs.
  void layer_metrics(const Counters& start, const Counters& end, std::int64_t ttis,
                     Metrics& metrics) const;

  const std::vector<double>& cycle_us() const { return cycle_us_; }
  Tracer& tracer() { return tracer_; }
  LayerSamples& samples() { return samples_; }

 protected:
  /// One control link; the endpoints the owner should use (forwarding
  /// wrappers when tracing) are returned.
  struct Link {
    net::Transport* master = nullptr;
    net::Transport* agent = nullptr;
  };
  Link add_link(const sim::LinkConfig& config);
  void make_coordinator(ctrl::CoordinatorConfig config);
  /// An eNodeB with its Agent, connected to the coordinator over a link
  /// with `config` in both directions.
  Enb& add_enb(lte::EnbId id, agent::AgentConfig agent_config, const sim::LinkConfig& config);
  /// Subscribes the timed coordinator cycle and starts the ticker.
  void start_ticker();
  /// Stops (or resumes) the coordinator cycle, for the drain at the end.
  void set_cycles_on(bool on) { cycles_on_ = on; }

  Options options_;
  Tracer tracer_;
  LayerSamples samples_;
  sim::Simulator sim_;
  sim::TtiTicker ticker_{sim_};
  std::vector<net::SimTransportPair> links_;
  std::vector<std::unique_ptr<TimedTransport>> wrappers_;
  std::unique_ptr<ctrl::Coordinator> coordinator_;
  std::vector<std::unique_ptr<Enb>> enbs_;

 private:
  void timed_cycle();

  std::vector<double> cycle_us_;
  bool in_window_ = false;
  bool cycles_on_ = true;
  std::int64_t tti_ = 0;
};

std::unique_ptr<Rig> make_remote_sched(const Options& options);
std::unique_ptr<Rig> make_fleet_ingest(const Options& options);
std::unique_ptr<Rig> make_ue_churn(const Options& options);

/// Replays captured frames through the program's proto decode and encode
/// functions and fills the proto.* per-layer metrics.
void replay_proto(const std::vector<std::vector<std::uint8_t>>& frames, Metrics& metrics);

/// A stats report compared field by field (the struct has no operator==).
bool same_stats(const proto::UeStatsReport& a, const proto::UeStatsReport& b);

}  // namespace perfbench
