// remote_sched: the paper's most demanding configuration (Secs. 5.2.1 and
// 5.3). Four eNodeBs of sixteen UEs each report every TTI with subframe
// sync, over a control link with a 2 ms one-way delay, and the master's
// RemoteSchedulerApp schedules their downlink with schedule-ahead. The one
// workload that runs the whole command path: app decision -> batch flush ->
// DlMacConfig encode -> agent decode -> VsfGuard -> MAC apply.
#include <algorithm>
#include <map>
#include <stdexcept>

#include "apps/remote_scheduler.h"
#include "phy/channel.h"
#include "rig.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kEnbs = 4;
constexpr int kUesPerEnb = 16;
constexpr sim::TimeUs kOneWayUs = 2000;
/// A report of subframe s reaches the master 2 ms later; the decision the
/// master sends in that cycle reaches the agent 2 ms after that: s + 4.
constexpr int kScheduleAhead = 4;
/// Full-buffer UEs are topped up to this many queued bytes every TTI.
constexpr std::uint32_t kFullBufferBytes = 20'000;
/// TTIs in which RIB stats are compared against the data plane's.
constexpr int kCompareTtis = 20;
/// TTIs without master cycles after the comparison, long enough for every
/// decision already sent to reach its target subframe.
constexpr int kDrainTtis = kScheduleAhead + 2 * static_cast<int>(kOneWayUs / sim::kTtiUs) + 4;

struct UeLoad {
  lte::Rnti rnti = lte::kInvalidRnti;
  bool full_buffer = false;
  int cbr_period = 1;
  int cbr_phase = 0;
  std::uint32_t cbr_bytes = 0;
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
};

class RemoteSchedRig final : public Rig {
 public:
  using Rig::Rig;

  void setup() override;
  Outcome finish() override;

 private:
  bool steady() const;
  void offer_traffic(std::int64_t tti);
  void record_stats(std::int64_t subframe);
  void compare_rib(std::uint64_t& compared, std::uint64_t& mismatched) const;

  apps::RemoteSchedulerApp* app_ = nullptr;
  std::vector<std::vector<UeLoad>> loads_;
  bool recording_ = false;
  /// subframe -> (eNodeB index, rnti) -> the data plane's stats at the end
  /// of that subframe.
  std::map<std::int64_t, std::map<std::pair<std::size_t, lte::Rnti>, proto::UeStatsReport>>
      records_;
};

void RemoteSchedRig::setup() {
  ctrl::CoordinatorConfig config;
  config.shards = 1;
  proto::StatsRequest stats;
  stats.request_id = 1;
  stats.mode = proto::ReportMode::periodic;
  stats.periodicity_ttis = 1;
  stats.flags = proto::stats_flags::kAll;
  config.shard.default_stats_request = stats;
  config.shard.subscribe_events = {proto::EventType::subframe_tick, proto::EventType::ue_attach,
                                   proto::EventType::ue_detach};
  // No echo: one echo cycle per 1000 would be a third population of cycle
  // times, one sample of it in every 1000-cycle group whose p99 is read.
  config.shard.echo_period_cycles = 0;
  make_coordinator(std::move(config));
  apps::RemoteSchedulerConfig scheduler;
  scheduler.schedule_ahead_sf = kScheduleAhead;
  app_ = static_cast<apps::RemoteSchedulerApp*>(coordinator_->shard(0).add_app(
      std::make_unique<apps::RemoteSchedulerApp>(scheduler)));

  ticker_.subscribe(
      [this](std::int64_t tti) {
        Span span(tracer_, Layer::stack);
        offer_traffic(tti);
      },
      1);
  ticker_.subscribe(
      [this](std::int64_t tti) {
        if (recording_) record_stats(tti);
      },
      900);
  start_ticker();

  // The same mix on every seed; the seed decides which UE gets what.
  util::Rng rng(options_.seed);
  loads_.resize(kEnbs);
  for (int e = 0; e < kEnbs; ++e) {
    agent::AgentConfig agent_config;
    agent_config.dl_scheduler = "remote";
    agent_config.subframe_sync = true;
    sim::LinkConfig link;
    link.delay = kOneWayUs;
    Enb& enb = add_enb(static_cast<lte::EnbId>(e + 1), agent_config, link);
    std::vector<int> cqis;
    std::vector<int> periods;
    std::vector<std::uint32_t> sizes;
    for (int u = 0; u < kUesPerEnb; ++u) {
      cqis.push_back(5 + u * 10 / (kUesPerEnb - 1));  // CQI 5..15
      periods.push_back(2 + u % 8);                    // a CBR packet every 2..9 TTIs
      sizes.push_back(200 + 80 * static_cast<std::uint32_t>(u));  // 200..1400 B
    }
    std::shuffle(cqis.begin(), cqis.end(), rng);
    std::shuffle(periods.begin(), periods.end(), rng);
    std::shuffle(sizes.begin(), sizes.end(), rng);
    for (int u = 0; u < kUesPerEnb; ++u) {
      stack::UeProfile profile;
      profile.dl_channel = std::make_unique<phy::FixedCqiChannel>(cqis[u]);
      profile.attach_after_ttis = 1 + u;
      UeLoad load;
      load.rnti = enb.data_plane->add_ue(std::move(profile));
      load.full_buffer = u % 2 == 0;
      load.cbr_period = periods[u];
      load.cbr_phase = static_cast<int>(rng.uniform_int(0, load.cbr_period - 1));
      load.cbr_bytes = sizes[u];
      loads_[e].push_back(load);
    }
    enb.data_plane->set_delivery_callback(
        [this, e](lte::Rnti rnti, std::uint32_t bytes, lte::Direction direction) {
          if (direction != lte::Direction::downlink) return;
          for (auto& load : loads_[e]) {
            if (load.rnti == rnti) load.delivered += bytes;
          }
        });
  }

  for (int i = 0; i < 5000 && !steady(); ++i) run_tti();
  if (!steady()) throw std::runtime_error("remote_sched: the rig did not reach steady state");
  // One full schedule-ahead round trip of decisions in flight.
  for (int i = 0; i < kScheduleAhead + 4; ++i) run_tti();
}

bool RemoteSchedRig::steady() const {
  const auto rib = coordinator_->rib_snapshot();
  for (const auto& enb : enbs_) {
    for (const auto rnti : enb->data_plane->ue_rntis()) {
      if (!enb->data_plane->ue(rnti)->connected()) return false;
    }
    const auto* node = rib->find_agent(enb->id);
    if (node == nullptr || node->last_subframe == 0 || node->hot.size() != kUesPerEnb) {
      return false;
    }
  }
  return app_->decisions_sent() > 0;
}

void RemoteSchedRig::offer_traffic(std::int64_t tti) {
  for (std::size_t e = 0; e < enbs_.size(); ++e) {
    auto& dp = *enbs_[e]->data_plane;
    for (auto& load : loads_[e]) {
      const auto* ue = dp.ue(load.rnti);
      if (ue == nullptr || !ue->connected()) continue;
      std::uint32_t bytes = 0;
      if (load.full_buffer) {
        const std::uint32_t queued = ue->dl_queue.total_bytes();
        if (queued < kFullBufferBytes) bytes = kFullBufferBytes - queued;
      } else if (tti % load.cbr_period == load.cbr_phase) {
        bytes = load.cbr_bytes;
      }
      if (bytes == 0) continue;
      dp.enqueue_dl(load.rnti, lte::kDefaultDrb, bytes);
      load.offered += bytes;
    }
  }
}

void RemoteSchedRig::record_stats(std::int64_t subframe) {
  auto& record = records_[subframe];
  for (std::size_t e = 0; e < enbs_.size(); ++e) {
    const auto& dp = *enbs_[e]->data_plane;
    for (const auto rnti : dp.ue_rntis()) record[{e, rnti}] = dp.ue_stats(rnti);
  }
}

void RemoteSchedRig::compare_rib(std::uint64_t& compared, std::uint64_t& mismatched) const {
  const auto rib = coordinator_->rib_snapshot();
  for (std::size_t e = 0; e < enbs_.size(); ++e) {
    const auto* node = rib->find_agent(enbs_[e]->id);
    if (node == nullptr) {
      ++mismatched;
      continue;
    }
    // The RIB last heard from this agent at last_subframe; every UE row
    // must hold exactly the data plane's stats of that subframe.
    const auto record = records_.find(node->last_subframe);
    if (record == records_.end()) continue;  // heard before the recording began
    for (const auto& [cell_id, cell] : node->cells) {
      (void)cell_id;
      for (const auto& [rnti, ue] : cell.ues) {
        ++compared;
        const auto it = record->second.find({e, rnti});
        if (it == record->second.end() || !same_stats(it->second, ue.stats)) ++mismatched;
      }
    }
  }
}

Outcome RemoteSchedRig::finish() {
  Outcome outcome;
  recording_ = true;
  std::uint64_t compared = 0;
  std::uint64_t mismatched = 0;
  for (int i = 0; i < kCompareTtis; ++i) {
    run_tti();
    compare_rib(compared, mismatched);
  }
  recording_ = false;
  if (compared == 0 || mismatched > 0) {
    outcome.violations.push_back("RIB UE stats: " + std::to_string(mismatched) + " of " +
                                 std::to_string(compared) +
                                 " rows differ from the data plane at the RIB's last subframe");
  }

  // Drain: no new decisions; every one already sent reaches its subframe.
  set_cycles_on(false);
  for (int i = 0; i < kDrainTtis; ++i) run_tti();
  std::uint64_t applied = 0;
  std::uint64_t rejected = 0;
  for (const auto& enb : enbs_) {
    applied += enb->agent->remote_decisions_applied();
    rejected += enb->data_plane->grants_rejected();
  }
  outcome.attempted = app_->decisions_sent();
  outcome.failed = outcome.attempted > applied ? outcome.attempted - applied : 0;
  if (outcome.failed > 0) {
    outcome.violations.push_back(std::to_string(outcome.failed) + " of " +
                                 std::to_string(outcome.attempted) +
                                 " decisions sent were not applied after the drain");
  }
  if (rejected > 0) {
    outcome.violations.push_back(std::to_string(rejected) + " grants rejected by the MAC");
  }

  for (const auto& loads : loads_) {
    for (const auto& load : loads) {
      // Delivered bytes include the UE's RRC set-up signalling.
      if (load.delivered > load.offered + stack::kRrcSetupBytes) {
        outcome.violations.push_back("UE " + std::to_string(load.rnti) + " received " +
                                     std::to_string(load.delivered) + " B of " +
                                     std::to_string(load.offered) + " B offered");
      }
      if (load.full_buffer && load.delivered <= stack::kRrcSetupBytes) {
        outcome.violations.push_back("full-buffer UE " + std::to_string(load.rnti) +
                                     " received no data");
      }
    }
  }
  return outcome;
}

}  // namespace

std::unique_ptr<Rig> make_remote_sched(const Options& options) {
  return std::make_unique<RemoteSchedRig>(options);
}

}  // namespace perfbench
