#include "probes.h"

#include <algorithm>
#include <cmath>

#include "alloc_counter.h"

namespace perfbench {

namespace {
/// Frames kept for the proto replay; enough for steady per-type means.
constexpr std::size_t kCaptureCap = 4096;
}  // namespace

const char* to_string(Layer layer) {
  switch (layer) {
    case Layer::stack:
      return "stack";
    case Layer::agent:
      return "agent";
    case Layer::net:
      return "net";
    case Layer::controller:
      return "controller";
    case Layer::sim:
      return "sim";
  }
  return "?";
}

void Tracer::begin() { open_.push_back(Frame{Clock::now(), allocations(), 0.0, 0}); }

double Tracer::end(Layer layer) {
  const auto stop = Clock::now();
  const std::uint64_t allocs_now = allocations();
  const Frame frame = open_.back();
  open_.pop_back();
  const double us = us_between(frame.start, stop);
  const std::uint64_t allocs = allocs_now - frame.allocs_at_start;
  self_us_[static_cast<int>(layer)] += us - frame.child_us;
  self_allocs_[static_cast<int>(layer)] += allocs - frame.child_allocs;
  if (!open_.empty()) {
    open_.back().child_us += us;
    open_.back().child_allocs += allocs;
  }
  return us;
}

void Tracer::reset() {
  self_us_.fill(0.0);
  self_allocs_.fill(0);
}

void LayerSamples::clear() {
  agent_subframe_us.clear();
  agent_rx_us = {};
  master_rx_us = {};
  agent_send_us = {};
  master_send_us = {};
  compose_us = {};
  monitoring_us = {};
}

// ------------------------------------------------------------ listener --

void TimedListener::on_subframe_start(std::int64_t subframe) {
  double us = 0.0;
  {
    Span span(tracer_, Layer::agent, &us);
    agent_.on_subframe_start(subframe);
  }
  samples_.agent_subframe_us.push_back(us);
}

void TimedListener::on_rach(lte::Rnti rnti, std::int64_t subframe) {
  Span span(tracer_, Layer::agent);
  agent_.on_rach(rnti, subframe);
}

void TimedListener::on_ue_attached(lte::Rnti rnti, std::int64_t subframe) {
  Span span(tracer_, Layer::agent);
  agent_.on_ue_attached(rnti, subframe);
}

void TimedListener::on_ue_detached(lte::Rnti rnti, std::int64_t subframe) {
  Span span(tracer_, Layer::agent);
  agent_.on_ue_detached(rnti, subframe);
}

void TimedListener::on_scheduling_request(lte::Rnti rnti, std::int64_t subframe) {
  Span span(tracer_, Layer::agent);
  agent_.on_scheduling_request(rnti, subframe);
}

// ----------------------------------------------------------- transport --

util::Status TimedTransport::send(std::span<const std::uint8_t> message) {
  double us = 0.0;
  util::Status status;
  {
    Span span(tracer_, Layer::net, &us);
    status = inner_.send(message);
  }
  send_acc().add(us);
  return status;
}

util::Status TimedTransport::send(net::TrafficClass cls, std::span<const std::uint8_t> message) {
  double us = 0.0;
  util::Status status;
  {
    Span span(tracer_, Layer::net, &us);
    status = inner_.send(cls, message);
  }
  send_acc().add(us);
  return status;
}

void TimedTransport::set_receive_callback(ReceiveFn fn) {
  if (!fn) {
    inner_.set_receive_callback(nullptr);
    return;
  }
  inner_.set_receive_callback([this, fn = std::move(fn)](std::span<const std::uint8_t> data) {
    if (samples_.capturing && samples_.captured.size() < kCaptureCap) {
      samples_.captured.emplace_back(data.begin(), data.end());
    }
    const Layer layer = side_ == Side::agent ? Layer::agent : Layer::controller;
    double us = 0.0;
    {
      Span span(tracer_, layer, &us);
      fn(data);
    }
    (side_ == Side::agent ? samples_.agent_rx_us : samples_.master_rx_us).add(us);
  });
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
