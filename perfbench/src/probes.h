// Tracing for the traced invocation (--trace 1). Every span is recorded
// from the benchmark's own calls into a layer: the forwarding listener in
// front of each Agent, the forwarding transport around each SimTransport
// endpoint, and the rig's own calls into the data plane, the coordinator
// and the simulator. A layer's self time is its spans' time minus the
// time of the spans nested inside them; the same holds for allocations.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <vector>

#include "agent/agent.h"
#include "net/sim_transport.h"
#include "stack/enodeb.h"

namespace perfbench {

using namespace flexran;

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// The modules on the control loop that spans are charged to. `apps` run
/// inside the coordinator cycle and are read from the task manager's own
/// per-app statistics instead.
enum class Layer : int { stack, agent, net, controller, sim };
constexpr int kLayers = 5;
const char* to_string(Layer layer);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void begin();
  /// Ends the innermost open span and charges its self time and self
  /// allocations to `layer`. Returns the span's full duration in us.
  double end(Layer layer);
  /// Zeroes the per-layer totals (between TTIs: no span is open).
  void reset();

  double self_us(Layer layer) const { return self_us_[static_cast<int>(layer)]; }
  std::uint64_t self_allocs(Layer layer) const { return self_allocs_[static_cast<int>(layer)]; }

 private:
  struct Frame {
    Clock::time_point start;
    std::uint64_t allocs_at_start = 0;
    double child_us = 0.0;
    std::uint64_t child_allocs = 0;
  };
  bool enabled_;
  std::vector<Frame> open_;
  std::array<double, kLayers> self_us_{};
  std::array<std::uint64_t, kLayers> self_allocs_{};
};

/// One span; does nothing when tracing is off.
class Span {
 public:
  Span(Tracer& tracer, Layer layer, double* duration_us = nullptr)
      : tracer_(tracer), layer_(layer), duration_us_(duration_us) {
    if (tracer_.enabled()) tracer_.begin();
  }
  ~Span() {
    if (!tracer_.enabled()) return;
    const double us = tracer_.end(layer_);
    if (duration_us_ != nullptr) *duration_us_ = us;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  Layer layer_;
  double* duration_us_;
};

/// Count and total of a per-call time.
struct Acc {
  std::uint64_t n = 0;
  double total = 0.0;
  void add(double value) {
    ++n;
    total += value;
  }
  double mean() const { return n > 0 ? total / static_cast<double>(n) : 0.0; }
};

/// What the forwarding wrappers record while tracing.
struct LayerSamples {
  std::vector<double> agent_subframe_us;
  Acc agent_rx_us;
  Acc master_rx_us;
  Acc agent_send_us;
  Acc master_send_us;
  /// Composite rebuilds inside Coordinator::rib_snapshot(), and the
  /// monitoring app's own time around them (fleet_ingest).
  Acc compose_us;
  Acc monitoring_us;
  /// Frames copied for the proto replay while `capturing` is set (after
  /// the measured window, so the copies cost the window nothing).
  bool capturing = false;
  std::vector<std::vector<std::uint8_t>> captured;

  void clear();
};

/// Sits between an eNodeB data plane and its Agent and times every
/// callback into the agent layer.
class TimedListener final : public stack::EnodebDataPlane::Listener {
 public:
  TimedListener(agent::Agent& agent, Tracer& tracer, LayerSamples& samples)
      : agent_(agent), tracer_(tracer), samples_(samples) {}

  void on_subframe_start(std::int64_t subframe) override;
  void on_rach(lte::Rnti rnti, std::int64_t subframe) override;
  void on_ue_attached(lte::Rnti rnti, std::int64_t subframe) override;
  void on_ue_detached(lte::Rnti rnti, std::int64_t subframe) override;
  void on_scheduling_request(lte::Rnti rnti, std::int64_t subframe) override;

 private:
  agent::Agent& agent_;
  Tracer& tracer_;
  LayerSamples& samples_;
};

/// Forwards to one SimTransport endpoint. Sends are charged to `net`; the
/// receive handler installed by the owner is charged to `agent` or
/// `controller`, depending on which end of the link this endpoint is.
class TimedTransport final : public net::Transport {
 public:
  enum class Side { agent, master };

  TimedTransport(net::SimTransport& inner, Side side, Tracer& tracer, LayerSamples& samples)
      : inner_(inner), side_(side), tracer_(tracer), samples_(samples) {}

  util::Status send(std::span<const std::uint8_t> message) override;
  util::Status send(net::TrafficClass cls, std::span<const std::uint8_t> message) override;
  void set_send_budget(net::QueueBudget budget) override { inner_.set_send_budget(budget); }
  void set_receive_callback(ReceiveFn fn) override;
  void set_disconnect_callback(DisconnectFn fn) override {
    inner_.set_disconnect_callback(std::move(fn));
  }

  std::uint64_t messages_sent() const override { return inner_.messages_sent(); }
  std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }
  std::uint64_t messages_received() const override { return inner_.messages_received(); }
  std::uint64_t frames_dropped() const override { return inner_.frames_dropped(); }
  std::uint64_t frames_shed() const override { return inner_.frames_shed(); }

 private:
  Acc& send_acc() {
    return side_ == Side::agent ? samples_.agent_send_us : samples_.master_send_us;
  }

  net::SimTransport& inner_;
  Side side_;
  Tracer& tracer_;
  LayerSamples& samples_;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);

}  // namespace perfbench
