#include "rig.h"

#include <algorithm>

#include "proto/messages.h"

namespace perfbench {

Rig::Rig(const Options& options) : options_(options), tracer_(options.trace) {}

Rig::~Rig() = default;

void Rig::run_tti() {
  ++tti_;
  Span span(tracer_, Layer::sim);
  // Mid-TTI stop, as the scenario layer does: each call runs exactly one
  // tick plus the link deliveries due before the next one.
  sim_.run_until(tti_ * sim::kTtiUs + sim::kTtiUs / 2);
}

void Rig::set_window(bool on) {
  in_window_ = on;
  if (!on) return;
  tracer_.reset();
  samples_.clear();
  cycle_us_.clear();
}

void Rig::timed_cycle() {
  if (!cycles_on_) return;
  const auto start = Clock::now();
  {
    Span span(tracer_, Layer::controller);
    coordinator_->run_cycle();
  }
  if (in_window_) cycle_us_.push_back(us_between(start, Clock::now()));
}

Rig::Link Rig::add_link(const sim::LinkConfig& config) {
  links_.push_back(net::make_sim_transport_pair(sim_, config, config));
  auto& pair = links_.back();
  Link link{pair.a.get(), pair.b.get()};
  if (tracer_.enabled()) {
    wrappers_.push_back(std::make_unique<TimedTransport>(*pair.a, TimedTransport::Side::master,
                                                         tracer_, samples_));
    link.master = wrappers_.back().get();
    wrappers_.push_back(std::make_unique<TimedTransport>(*pair.b, TimedTransport::Side::agent,
                                                         tracer_, samples_));
    link.agent = wrappers_.back().get();
  }
  return link;
}

void Rig::make_coordinator(ctrl::CoordinatorConfig config) {
  coordinator_ = std::make_unique<ctrl::Coordinator>(sim_, std::move(config));
}

Rig::Enb& Rig::add_enb(lte::EnbId id, agent::AgentConfig agent_config,
                       const sim::LinkConfig& config) {
  auto enb = std::make_unique<Enb>();
  lte::EnbConfig enb_config;
  enb_config.enb_id = id;
  enb_config.cells[0].cell_id = id;
  enb_config.cells[0].pci = static_cast<int>(id % 504);
  enb->data_plane = std::make_unique<stack::EnodebDataPlane>(sim_, enb_config, nullptr,
                                                             options_.seed * 1000 + id);
  agent_config.enb_id = id;
  agent_config.name = "enb-" + std::to_string(id);
  enb->agent = std::make_unique<agent::Agent>(sim_, *enb->data_plane, agent_config);
  const Link link = add_link(config);
  enb->id = coordinator_->add_agent(*link.master, id);
  enb->agent->connect(*link.agent);
  if (tracer_.enabled()) {
    enb->listener = std::make_unique<TimedListener>(*enb->agent, tracer_, samples_);
    enb->data_plane->set_listener(enb->listener.get());
  }
  stack::EnodebDataPlane* dp = enb->data_plane.get();
  const int index = static_cast<int>(enbs_.size());
  ticker_.subscribe(
      [this, dp](std::int64_t subframe) {
        Span span(tracer_, Layer::stack);
        dp->subframe_begin(subframe);
      },
      10 + index);
  ticker_.subscribe(
      [this, dp](std::int64_t subframe) {
        Span span(tracer_, Layer::stack);
        dp->subframe_end(subframe);
      },
      800 + index);
  enbs_.push_back(std::move(enb));
  return *enbs_.back();
}

void Rig::start_ticker() {
  ticker_.subscribe([this](std::int64_t) { timed_cycle(); }, 500);
  ticker_.start();
}

std::uint64_t Rig::wire_bytes() const {
  std::uint64_t bytes = 0;
  for (const auto& pair : links_) bytes += pair.a->bytes_sent() + pair.b->bytes_sent();
  return bytes;
}

Counters Rig::read_counters() const {
  Counters c;
  c.wire_bytes = wire_bytes();
  for (const auto& pair : links_) c.frames += pair.a->messages_sent() + pair.b->messages_sent();
  c.updates = coordinator_->updates_applied();
  c.cycles = coordinator_->cycles_run();
  for (std::size_t s = 0; s < coordinator_->shard_count(); ++s) {
    const auto& shard = coordinator_->shard(s);
    c.updater_us += shard.task_manager().updater_time_us().total();
    c.publish_us += shard.snapshot_publish_us().total();
    c.commands += shard.commands_flushed();
    for (const auto& app : shard.task_manager().app_stats()) {
      if (app.name != "remote_scheduler") continue;
      c.remote_scheduler_us += app.mean_wall_us * static_cast<double>(app.runs);
      c.remote_scheduler_runs += app.runs;
    }
  }
  for (const auto& enb : enbs_) {
    c.decisions_applied += enb->agent->remote_decisions_applied();
    c.agent_messages_received += enb->agent->messages_received();
  }
  return c;
}

void Rig::layer_metrics(const Counters& start, const Counters& end, std::int64_t ttis,
                        Metrics& m) const {
  const double t = static_cast<double>(std::max<std::int64_t>(ttis, 1));
  m["agent.subframe_us_p50"] = quantile(samples_.agent_subframe_us, 0.50);
  m["agent.subframe_us_p99"] = quantile(samples_.agent_subframe_us, 0.99);
  m["agent.rx_us_per_msg"] = samples_.agent_rx_us.mean();
  m["agent.allocs_per_tti"] = static_cast<double>(tracer_.self_allocs(Layer::agent)) / t;
  const std::uint64_t received = end.agent_messages_received - start.agent_messages_received;
  m["agent.decisions_applied_per_received"] =
      received > 0
          ? static_cast<double>(end.decisions_applied - start.decisions_applied) / received
          : 0.0;
  m["stack.subframe_us"] = tracer_.self_us(Layer::stack) / t;
  m["net.agent_send_us_per_msg"] = samples_.agent_send_us.mean();
  m["net.master_send_us_per_msg"] = samples_.master_send_us.mean();
  m["net.frames_per_tti"] = static_cast<double>(end.frames - start.frames) / t;
  m["sim.self_us_per_tti"] = tracer_.self_us(Layer::sim) / t;
  m["controller.rx_us_per_msg"] = samples_.master_rx_us.mean();
  const double cycles = static_cast<double>(std::max<std::int64_t>(end.cycles - start.cycles, 1));
  m["controller.updater_us"] = (end.updater_us - start.updater_us) / cycles;
  m["controller.publish_us"] = (end.publish_us - start.publish_us) / cycles;
  const std::uint64_t updates = end.updates - start.updates;
  m["controller.allocs_per_update"] =
      updates > 0 ? static_cast<double>(tracer_.self_allocs(Layer::controller)) / updates : 0.0;
  m["controller.updates_per_tti"] = static_cast<double>(updates) / t;
  m["controller.ingest_peak_msgs"] = static_cast<double>(coordinator_->pending_peak_messages());
  std::size_t rib_bytes = 0;
  std::size_t rib_ues = 0;
  for (std::size_t s = 0; s < coordinator_->shard_count(); ++s) {
    rib_bytes += coordinator_->shard(s).rib_bytes();
    rib_ues += coordinator_->shard(s).rib().ue_count();
  }
  m["controller.rib_bytes_per_ue"] =
      rib_ues > 0 ? static_cast<double>(rib_bytes) / static_cast<double>(rib_ues) : 0.0;
  m["controller.compose_us"] = samples_.compose_us.mean();
  const std::uint64_t runs = end.remote_scheduler_runs - start.remote_scheduler_runs;
  m["apps.remote_scheduler_us"] =
      runs > 0 ? (end.remote_scheduler_us - start.remote_scheduler_us) / runs : 0.0;
  m["apps.commands_per_tti"] = static_cast<double>(end.commands - start.commands) / t;
  m["apps.monitoring_us"] = samples_.monitoring_us.mean();

  std::uint64_t shed = 0;
  for (const auto& pair : links_) shed += pair.a->frames_shed() + pair.b->frames_shed();
  m["net.frames_shed"] = static_cast<double>(shed);
  m["controller.ingest_shed"] = static_cast<double>(coordinator_->ingest_shed());
  std::uint64_t missed = 0;
  std::uint64_t guard_failures = 0;
  for (const auto& enb : enbs_) {
    missed += enb->agent->missed_deadline_decisions();
    guard_failures += enb->agent->vsf_guard().vsf_failures();
  }
  m["agent.missed_deadline_decisions"] = static_cast<double>(missed);
  m["agent.guard_failures"] = static_cast<double>(guard_failures);
}

// ---------------------------------------------------------- proto replay --

namespace {

constexpr int kReplayPasses = 9;
volatile std::uint64_t g_replay_sink = 0;

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Times the program's receive path (Envelope::decode + body decode) and
/// send path (encode_envelope into a reused encoder) over `group`.
template <typename M>
void replay_type(const std::vector<const std::vector<std::uint8_t>*>& group, double& decode_ns,
                 double& encode_ns) {
  decode_ns = 0.0;
  encode_ns = 0.0;
  if (group.empty()) return;
  std::vector<proto::Envelope> headers;
  std::vector<M> messages;
  for (const auto* frame : group) {
    auto envelope = proto::Envelope::decode(*frame);
    auto message = proto::unpack<M>(*envelope);
    envelope->body.clear();
    headers.push_back(std::move(*envelope));
    messages.push_back(std::move(*message));
  }
  const double n = static_cast<double>(group.size());
  std::vector<double> decode_passes;
  std::vector<double> encode_passes;
  proto::WireEncoder enc;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    auto start = Clock::now();
    for (const auto* frame : group) {
      auto envelope = proto::Envelope::decode(*frame);
      if (envelope.ok()) sink += proto::unpack<M>(*envelope).ok() ? 1 : 0;
    }
    decode_passes.push_back(us_between(start, Clock::now()) * 1e3 / n);
    start = Clock::now();
    for (std::size_t i = 0; i < messages.size(); ++i) {
      enc.clear();
      proto::encode_envelope(enc, headers[i], messages[i]);
      sink += enc.size();
    }
    encode_passes.push_back(us_between(start, Clock::now()) * 1e3 / n);
  }
  g_replay_sink = g_replay_sink + sink;
  decode_ns = median(std::move(decode_passes));
  encode_ns = median(std::move(encode_passes));
}

}  // namespace

void replay_proto(const std::vector<std::vector<std::uint8_t>>& frames, Metrics& m) {
  std::vector<const std::vector<std::uint8_t>*> stats;
  std::vector<const std::vector<std::uint8_t>*> events;
  std::vector<const std::vector<std::uint8_t>*> dl_mac;
  for (const auto& frame : frames) {
    auto envelope = proto::Envelope::decode(frame);
    if (!envelope.ok()) continue;
    switch (envelope->type) {
      case proto::MessageType::stats_reply:
        stats.push_back(&frame);
        break;
      case proto::MessageType::event_notification:
        events.push_back(&frame);
        break;
      case proto::MessageType::dl_mac_config:
        dl_mac.push_back(&frame);
        break;
      default:
        break;
    }
  }
  double unused = 0.0;
  replay_type<proto::StatsReply>(stats, m["proto.decode_ns.stats_reply"],
                                 m["proto.encode_ns.stats_reply"]);
  replay_type<proto::EventNotification>(events, m["proto.decode_ns.event"], unused);
  replay_type<proto::DlMacConfig>(dl_mac, m["proto.decode_ns.dl_mac_config"],
                                  m["proto.encode_ns.dl_mac_config"]);
}

bool same_stats(const proto::UeStatsReport& a, const proto::UeStatsReport& b) {
  return a.rnti == b.rnti && a.bsr_bytes == b.bsr_bytes && a.phr_db == b.phr_db &&
         a.wb_cqi == b.wb_cqi && a.wb_cqi_protected == b.wb_cqi_protected &&
         a.rlc_queue_bytes == b.rlc_queue_bytes && a.pending_harq == b.pending_harq &&
         a.dl_bytes_delivered == b.dl_bytes_delivered &&
         a.ul_bytes_received == b.ul_bytes_received && a.ul_buffer_bytes == b.ul_buffer_bytes &&
         a.rsrp.size() == b.rsrp.size();
}

}  // namespace perfbench
