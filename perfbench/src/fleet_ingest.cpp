// fleet_ingest: the master alone, as a Coordinator over four shards.
// 256 synthetic agents of 64 UEs each replay StatsReply frames, each agent
// every 4th TTI (a quarter of the fleet per TTI). The frames are encoded at
// set-up by the program's own encoder from seeded values, which the rig
// keeps unencoded to check the RIB against. MonitoringApp reads the
// composite view every 10th cycle. Nearly all the work is decode -> ingest
// -> apply_update -> snapshot publish -> compose; the agent, the stack and
// the command path are bypassed.
#include <stdexcept>

#include "apps/monitoring.h"
#include "rig.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kAgents = 256;
constexpr int kUes = 64;
constexpr std::size_t kShards = 4;
constexpr int kReportPeriod = 4;
/// Distinct pre-encoded reports per agent, sent in turn, so every apply
/// writes new values.
constexpr int kVariants = 4;
/// One cycle in ten composes and scans: the median cycle is a plain one
/// and p99 lies deep inside the composing tenth, away from the boundary.
constexpr std::int64_t kMonitorPeriod = 10;
constexpr lte::Rnti kFirstRnti = 70;

/// Forwards the northbound API to the Coordinator and times the
/// rib_snapshot() calls that rebuilt the composite view.
class ComposeTimer final : public ctrl::NorthboundApi {
 public:
  ComposeTimer(ctrl::Coordinator& coordinator, LayerSamples& samples)
      : coordinator_(coordinator), samples_(samples) {}

  double last_compose_us() const { return last_compose_us_; }
  void clear_last() { last_compose_us_ = 0.0; }

  std::shared_ptr<const ctrl::RibSnapshot> rib_snapshot() const override {
    const std::uint64_t built = coordinator_.composites_built();
    const auto start = Clock::now();
    auto snapshot = coordinator_.rib_snapshot();
    const double us = us_between(start, Clock::now());
    if (coordinator_.composites_built() != built) {
      samples_.compose_us.add(us);
      last_compose_us_ += us;
    }
    return snapshot;
  }
  sim::TimeUs now() const override { return coordinator_.now(); }
  std::int64_t agent_subframe(ctrl::AgentId agent) const override {
    return coordinator_.agent_subframe(agent);
  }
  util::Status send_dl_mac_config(ctrl::AgentId agent, const proto::DlMacConfig& c) override {
    return coordinator_.send_dl_mac_config(agent, c);
  }
  util::Status send_ul_mac_config(ctrl::AgentId agent, const proto::UlMacConfig& c) override {
    return coordinator_.send_ul_mac_config(agent, c);
  }
  util::Status send_handover(ctrl::AgentId agent, const proto::HandoverCommand& c) override {
    return coordinator_.send_handover(agent, c);
  }
  util::Status send_abs_config(ctrl::AgentId agent, const proto::AbsConfig& c) override {
    return coordinator_.send_abs_config(agent, c);
  }
  util::Status send_carrier_restriction(ctrl::AgentId agent,
                                        const proto::CarrierRestriction& c) override {
    return coordinator_.send_carrier_restriction(agent, c);
  }
  util::Status send_drx_config(ctrl::AgentId agent, const proto::DrxConfig& c) override {
    return coordinator_.send_drx_config(agent, c);
  }
  util::Status send_scell_command(ctrl::AgentId agent, const proto::ScellCommand& c) override {
    return coordinator_.send_scell_command(agent, c);
  }
  util::Status request_stats(ctrl::AgentId agent, const proto::StatsRequest& r) override {
    return coordinator_.request_stats(agent, r);
  }
  util::Status subscribe_events(ctrl::AgentId agent, std::vector<proto::EventType> events,
                                bool enable) override {
    return coordinator_.subscribe_events(agent, std::move(events), enable);
  }
  util::Status push_vsf(ctrl::AgentId agent, const std::string& module, const std::string& vsf,
                        const std::string& implementation) override {
    return coordinator_.push_vsf(agent, module, vsf, implementation);
  }
  util::Status send_policy(ctrl::AgentId agent, const std::string& yaml) override {
    return coordinator_.send_policy(agent, yaml);
  }

 private:
  ctrl::Coordinator& coordinator_;
  LayerSamples& samples_;
  mutable double last_compose_us_ = 0.0;
};

/// MonitoringApp behind the compose timer (traced runs only): times each
/// on_cycle that took a snapshot, minus the compose inside it.
class TimedMonitoring final : public ctrl::App {
 public:
  TimedMonitoring(ctrl::Coordinator& coordinator, LayerSamples& samples)
      : inner_(kMonitorPeriod), api_(coordinator, samples), samples_(samples) {}

  std::string_view name() const override { return inner_.name(); }
  int priority() const override { return inner_.priority(); }
  void on_cycle(std::int64_t cycle, ctrl::NorthboundApi& /*api*/) override {
    const std::int64_t taken = inner_.snapshots_taken();
    api_.clear_last();
    const auto start = Clock::now();
    inner_.on_cycle(cycle, api_);
    const double us = us_between(start, Clock::now());
    if (inner_.snapshots_taken() != taken) samples_.monitoring_us.add(us - api_.last_compose_us());
  }

 private:
  apps::MonitoringApp inner_;
  ComposeTimer api_;
  LayerSamples& samples_;
};

class FleetIngestRig final : public Rig {
 public:
  using Rig::Rig;

  void setup() override;
  Outcome finish() override;

 private:
  void send_reports(std::int64_t tti);

  std::vector<ctrl::AgentId> agent_ids_;
  std::vector<net::Transport*> agent_ends_;
  /// [agent][variant]: the encoded frame and the values it carries.
  std::vector<std::vector<std::vector<std::uint8_t>>> frames_;
  std::vector<std::vector<std::vector<proto::UeStatsReport>>> values_;
  std::vector<int> last_variant_;
  bool sending_ = false;
  std::uint64_t reports_sent_ = 0;
  std::uint64_t updates_before_reports_ = 0;
};

proto::UeStatsReport random_report(util::Rng& rng, lte::Rnti rnti) {
  proto::UeStatsReport report;
  report.rnti = rnti;
  for (auto& bsr : report.bsr_bytes) bsr = static_cast<std::uint32_t>(rng.uniform_int(0, 60'000));
  report.phr_db = static_cast<std::int32_t>(rng.uniform_int(-20, 40));
  report.wb_cqi = static_cast<std::uint8_t>(rng.uniform_int(1, 15));
  report.wb_cqi_protected = static_cast<std::uint8_t>(rng.uniform_int(1, 15));
  report.rlc_queue_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 200'000));
  report.pending_harq = static_cast<std::uint32_t>(rng.uniform_int(0, 8));
  report.dl_bytes_delivered = static_cast<std::uint64_t>(rng.uniform_int(0, 1'000'000'000));
  report.ul_bytes_received = static_cast<std::uint64_t>(rng.uniform_int(0, 100'000'000));
  report.ul_buffer_bytes = static_cast<std::uint32_t>(rng.uniform_int(0, 50'000));
  return report;
}

void FleetIngestRig::setup() {
  ctrl::CoordinatorConfig config;
  config.shards = kShards;
  // Synthetic agents answer nothing: no configuration fetch, no echo.
  config.shard.auto_configure = false;
  config.shard.echo_period_cycles = 0;
  make_coordinator(std::move(config));
  if (tracer_.enabled()) {
    coordinator_->add_app(std::make_unique<TimedMonitoring>(*coordinator_, samples_));
  } else {
    coordinator_->add_app(std::make_unique<apps::MonitoringApp>(kMonitorPeriod));
  }
  ticker_.subscribe([this](std::int64_t tti) { send_reports(tti); }, 5);
  start_ticker();

  util::Rng rng(options_.seed);
  frames_.resize(kAgents);
  values_.resize(kAgents);
  last_variant_.assign(kAgents, 0);
  for (int i = 0; i < kAgents; ++i) {
    const Link link = add_link(sim::LinkConfig{});
    const auto enb_id = static_cast<lte::EnbId>(i + 1);
    agent_ids_.push_back(coordinator_->add_agent(*link.master, enb_id));
    agent_ends_.push_back(link.agent);
    for (int v = 0; v < kVariants; ++v) {
      proto::StatsReply reply;
      reply.request_id = 1;
      reply.subframe = v + 1;
      for (int u = 0; u < kUes; ++u) {
        reply.ue_reports.push_back(random_report(rng, static_cast<lte::Rnti>(kFirstRnti + u)));
      }
      frames_[i].push_back(proto::pack(reply));
      values_[i].push_back(std::move(reply.ue_reports));
    }
    proto::Hello hello;
    hello.enb_id = enb_id;
    hello.name = "synthetic-" + std::to_string(enb_id);
    hello.epoch = 1;
    (void)link.agent->send(proto::pack(hello));
  }
  for (int i = 0; i < 2; ++i) run_tti();  // hellos delivered and applied
  updates_before_reports_ = coordinator_->updates_applied();
  sending_ = true;
  // One report from every agent, applied.
  for (int i = 0; i < kReportPeriod + 1; ++i) run_tti();
  if (coordinator_->rib_snapshot()->ue_count() != static_cast<std::size_t>(kAgents * kUes)) {
    throw std::runtime_error("fleet_ingest: the first report round did not reach the RIB");
  }
}

void FleetIngestRig::send_reports(std::int64_t tti) {
  if (!sending_) return;
  const int variant = static_cast<int>((tti / kReportPeriod) % kVariants);
  for (int i = static_cast<int>(tti % kReportPeriod); i < kAgents; i += kReportPeriod) {
    (void)agent_ends_[i]->send(frames_[i][variant]);
    last_variant_[i] = variant;
    ++reports_sent_;
  }
}

Outcome FleetIngestRig::finish() {
  Outcome outcome;
  // One more report round (the frames a traced run replays), then drain.
  for (int i = 0; i < kReportPeriod; ++i) run_tti();
  sending_ = false;
  for (int i = 0; i < 2; ++i) run_tti();  // last reports delivered and applied
  const std::uint64_t updates = coordinator_->updates_applied() - updates_before_reports_;
  outcome.attempted = reports_sent_;
  outcome.failed = reports_sent_ > updates ? reports_sent_ - updates : 0;
  if (updates != reports_sent_) {
    outcome.violations.push_back(std::to_string(updates) + " updates applied for " +
                                 std::to_string(reports_sent_) + " reports sent");
  }

  const auto rib = coordinator_->rib_snapshot();
  if (rib->ue_count() != static_cast<std::size_t>(kAgents * kUes)) {
    outcome.violations.push_back("composite holds " + std::to_string(rib->ue_count()) +
                                 " UEs, expected " + std::to_string(kAgents * kUes));
  }
  std::uint64_t mismatched = 0;
  for (int i = 0; i < kAgents; ++i) {
    const auto* node = rib->find_agent(agent_ids_[i]);
    for (const auto& expected : values_[i][last_variant_[i]]) {
      const auto* ue = rib->find_ue(agent_ids_[i], expected.rnti);
      if (node == nullptr || ue == nullptr || !same_stats(ue->stats, expected)) {
        ++mismatched;
        continue;
      }
      // The flat hot columns must mirror the same report.
      const auto& hot = node->hot;
      std::size_t row = 0;
      while (row < hot.size() && hot.rnti[row] != expected.rnti) ++row;
      if (row == hot.size() || hot.wb_cqi[row] != expected.wb_cqi ||
          hot.bsr_total_bytes[row] != expected.total_bsr() ||
          hot.rlc_queue_bytes[row] != expected.rlc_queue_bytes ||
          hot.dl_bytes_delivered[row] != expected.dl_bytes_delivered) {
        ++mismatched;
      }
    }
  }
  if (mismatched > 0) {
    outcome.violations.push_back(std::to_string(mismatched) +
                                 " composite rows differ from the agent's last report");
  }
  std::uint64_t decode_errors = 0;
  for (std::size_t s = 0; s < coordinator_->shard_count(); ++s) {
    decode_errors += coordinator_->shard(s).rx_decode_errors();
  }
  if (decode_errors > 0) {
    outcome.violations.push_back(std::to_string(decode_errors) + " frames failed to decode");
  }
  return outcome;
}

}  // namespace

std::unique_ptr<Rig> make_fleet_ingest(const Options& options) {
  return std::make_unique<FleetIngestRig>(options);
}

}  // namespace perfbench
