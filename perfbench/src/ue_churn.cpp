// ue_churn: eight eNodeBs of 32 UEs each under local scheduling, stats
// every 5 TTIs, attach and detach events on. Every TTI the rig detaches two
// connected UEs (chosen by the seed) and adds two new ones to the same
// eNodeBs, so the population stays level while UE rows are inserted into
// and erased from the RIB all the time: attach/detach events, structural
// snapshot publishes. A RIB layout that speeds in-place stats writes but
// slows insert or erase shows here.
#include <deque>
#include <map>
#include <set>
#include <stdexcept>

#include "phy/channel.h"
#include "rig.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kEnbs = 8;
constexpr int kUesPerEnb = 32;
constexpr std::uint32_t kStatsPeriod = 5;
constexpr int kChurnPerTti = 2;
/// C-RNTIs per eNodeB, reused oldest-released first: a released RNTI comes
/// back only after about 4000 TTIs, long after its detach reached the RIB.
constexpr lte::Rnti kFirstRnti = 70;
constexpr int kRntiPool = 1024;
/// Churn-free TTIs before the final comparison: new UEs finish attaching
/// and a stats round reaches the RIB.
constexpr int kQuietTtis = 300;

struct Cbr {
  int period = 1;
  int phase = 0;
  std::uint32_t bytes = 0;
};

class UeChurnRig final : public Rig {
 public:
  explicit UeChurnRig(const Options& options) : Rig(options), rng_(options.seed) {}

  void setup() override;
  Outcome finish() override;

 private:
  void add_ue(std::size_t enb);
  void on_tti(std::int64_t tti);
  /// The data plane's connected RNTIs, written into `out` (reused, so the
  /// churn adds no allocations of the rig's own to the counts).
  void connected(std::size_t enb, std::vector<lte::Rnti>& out) const;
  std::size_t connected_count(std::size_t enb) const;
  /// RNTIs on which the RIB (tree or hot columns) and the data plane's
  /// connected set disagree.
  std::uint64_t mismatches(std::size_t enb) const;

  util::Rng rng_;
  std::vector<std::deque<lte::Rnti>> free_rntis_;
  std::vector<std::map<lte::Rnti, Cbr>> traffic_;
  std::vector<lte::Rnti> candidates_;
  bool churn_on_ = false;
  std::uint64_t operations_ = 0;
};

void UeChurnRig::setup() {
  ctrl::CoordinatorConfig config;
  config.shards = 1;
  proto::StatsRequest stats;
  stats.request_id = 1;
  stats.mode = proto::ReportMode::periodic;
  stats.periodicity_ttis = kStatsPeriod;
  stats.flags = proto::stats_flags::kAll;
  config.shard.default_stats_request = stats;
  config.shard.subscribe_events = {proto::EventType::ue_attach, proto::EventType::ue_detach};
  // No echo: one echo cycle per 1000 would be a third population of cycle
  // times, one sample of it in every 1000-cycle group whose p99 is read.
  config.shard.echo_period_cycles = 0;
  make_coordinator(std::move(config));
  ticker_.subscribe(
      [this](std::int64_t tti) {
        Span span(tracer_, Layer::stack);
        on_tti(tti);
      },
      1);
  start_ticker();

  free_rntis_.resize(kEnbs);
  traffic_.resize(kEnbs);
  for (std::size_t e = 0; e < kEnbs; ++e) {
    for (int r = 0; r < kRntiPool; ++r) {
      free_rntis_[e].push_back(static_cast<lte::Rnti>(kFirstRnti + r));
    }
    add_enb(static_cast<lte::EnbId>(e + 1), agent::AgentConfig{}, sim::LinkConfig{});
    for (int u = 0; u < kUesPerEnb; ++u) add_ue(e);
  }

  auto settled = [this] {
    for (std::size_t e = 0; e < kEnbs; ++e) {
      if (connected_count(e) != kUesPerEnb || mismatches(e) != 0) return false;
    }
    return true;
  };
  for (int i = 0; i < 5000 && !settled(); ++i) run_tti();
  if (!settled()) throw std::runtime_error("ue_churn: the rig did not reach steady state");
  churn_on_ = true;
}

void UeChurnRig::add_ue(std::size_t enb) {
  stack::UeProfile profile;
  profile.config.rnti = free_rntis_[enb].front();
  free_rntis_[enb].pop_front();
  profile.dl_channel =
      std::make_unique<phy::FixedCqiChannel>(static_cast<int>(rng_.uniform_int(5, 15)));
  profile.attach_after_ttis = 1;
  const lte::Rnti rnti = enbs_[enb]->data_plane->add_ue(std::move(profile));
  Cbr cbr;
  cbr.period = static_cast<int>(rng_.uniform_int(2, 10));
  cbr.phase = static_cast<int>(rng_.uniform_int(0, cbr.period - 1));
  cbr.bytes = static_cast<std::uint32_t>(rng_.uniform_int(100, 800));
  traffic_[enb][rnti] = cbr;
}

void UeChurnRig::connected(std::size_t enb, std::vector<lte::Rnti>& out) const {
  out.clear();
  const auto& dp = *enbs_[enb]->data_plane;
  for (const auto rnti : dp.ue_rntis()) {
    if (dp.ue(rnti)->connected()) out.push_back(rnti);
  }
}

std::size_t UeChurnRig::connected_count(std::size_t enb) const {
  std::vector<lte::Rnti> live;
  connected(enb, live);
  return live.size();
}

void UeChurnRig::on_tti(std::int64_t tti) {
  for (std::size_t e = 0; e < enbs_.size(); ++e) {
    auto& dp = *enbs_[e]->data_plane;
    for (const auto& [rnti, cbr] : traffic_[e]) {
      if (tti % cbr.period == cbr.phase) dp.enqueue_dl(rnti, lte::kDefaultDrb, cbr.bytes);
    }
  }
  if (!churn_on_) return;
  for (int k = 0; k < kChurnPerTti; ++k) {
    const auto e = static_cast<std::size_t>(rng_.uniform_int(0, kEnbs - 1));
    connected(e, candidates_);
    if (candidates_.empty()) continue;
    const lte::Rnti victim = candidates_[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(candidates_.size()) - 1))];
    (void)enbs_[e]->data_plane->remove_ue(victim);
    traffic_[e].erase(victim);
    free_rntis_[e].push_back(victim);
    add_ue(e);
    operations_ += 2;  // one detach, one attach
  }
}

std::uint64_t UeChurnRig::mismatches(std::size_t enb) const {
  const auto rib = coordinator_->rib_snapshot();
  const auto* node = rib->find_agent(enbs_[enb]->id);
  std::vector<lte::Rnti> live;
  connected(enb, live);
  const std::set<lte::Rnti> expected(live.begin(), live.end());
  if (node == nullptr) return expected.size();
  std::set<lte::Rnti> tree;
  for (const auto& [cell_id, cell] : node->cells) {
    (void)cell_id;
    for (const auto& [rnti, ue] : cell.ues) {
      (void)ue;
      tree.insert(rnti);
    }
  }
  std::set<lte::Rnti> hot(node->hot.rnti.begin(), node->hot.rnti.end());
  std::uint64_t differ = 0;
  for (const std::set<lte::Rnti>* seen : {&tree, &hot}) {
    for (const auto rnti : *seen) differ += expected.contains(rnti) ? 0 : 1;
    for (const auto rnti : expected) differ += seen->contains(rnti) ? 0 : 1;
  }
  return differ;
}

Outcome UeChurnRig::finish() {
  Outcome outcome;
  churn_on_ = false;
  for (int i = 0; i < kQuietTtis; ++i) run_tti();
  outcome.attempted = operations_;
  for (std::size_t e = 0; e < kEnbs; ++e) {
    const std::uint64_t differ = mismatches(e);
    outcome.failed += differ;
    if (differ > 0) {
      outcome.violations.push_back("eNodeB " + std::to_string(e + 1) + ": " +
                                   std::to_string(differ) +
                                   " RIB UE rows differ from the connected RNTIs");
    }
    const std::size_t live = connected_count(e);
    if (live != kUesPerEnb) {
      outcome.violations.push_back("eNodeB " + std::to_string(e + 1) + " has " +
                                   std::to_string(live) + " connected UEs of " +
                                   std::to_string(kUesPerEnb) + " after the quiet tail");
    }
  }
  return outcome;
}

}  // namespace

std::unique_ptr<Rig> make_ue_churn(const Options& options) {
  return std::make_unique<UeChurnRig>(options);
}

}  // namespace perfbench
