// TimedEndpoint: the benchmark's view of each site's event loop, taken from
// outside the program. It decorates a site's MessageEndpoint and, while its
// LayerProbe is enabled, records:
//
//   * per message type: frames sent by sites, frames received from clients,
//     and handle time — from the moment recv() returns a frame to the
//     loop's next recv() call;
//   * loop occupancy: time away from recv() (busy), its longest stretch;
//   * frame wait: for every sequenced frame between two sites, the time
//     from the sender's send() call to the moment the receiver's recv()
//     returns it. This sees a stall whatever its cause — a loop busy with
//     a checkpoint, a frame held on a link, or a loop parked in recv()
//     that missed its wakeup;
//   * wire cost: a copy of every sent envelope is re-encoded and decoded
//     with wire::encode_envelope / decode_envelope and timed;
//   * send() time of the inner endpoint.
//
// Disabled, the decorator only forwards. It always forwards wake_capable()
// and wake_recv(): without them the site loop would fall back to its timed
// poll and the benchmark would measure a different program.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <variant>
#include <vector>

#include "net/endpoint.hpp"
#include "wire/message.hpp"

namespace hfbench {

using hyperfile::SiteId;
namespace wire = hyperfile::wire;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr std::size_t kTypes = std::variant_size_v<wire::Message>;

/// Tallies of one site's loop; guarded by its own mutex (only that site's
/// loop thread writes, the benchmark reads between phases).
struct SiteTally {
  std::array<std::uint64_t, kTypes> sent{};
  std::array<std::uint64_t, kTypes> from_clients{};
  std::array<std::uint64_t, kTypes> handled{};
  std::array<std::int64_t, kTypes> handle_ns{};
  std::array<std::uint64_t, kTypes> waited{};
  std::array<std::int64_t, kTypes> wait_ns{};
  std::int64_t busy_ns = 0;
  std::int64_t busy_max_ns = 0;
  std::int64_t wait_max_ns = 0;
  std::uint64_t waits_over_50ms = 0;
  std::uint64_t sends = 0;
  std::int64_t send_ns = 0;
  std::int64_t encode_ns = 0;
  std::int64_t decode_ns = 0;

  SiteTally& operator+=(const SiteTally& o) {
    for (std::size_t t = 0; t < kTypes; ++t) {
      sent[t] += o.sent[t];
      from_clients[t] += o.from_clients[t];
      handled[t] += o.handled[t];
      handle_ns[t] += o.handle_ns[t];
      waited[t] += o.waited[t];
      wait_ns[t] += o.wait_ns[t];
    }
    busy_ns += o.busy_ns;
    busy_max_ns = std::max(busy_max_ns, o.busy_max_ns);
    wait_max_ns = std::max(wait_max_ns, o.wait_max_ns);
    waits_over_50ms += o.waits_over_50ms;
    sends += o.sends;
    send_ns += o.send_ns;
    encode_ns += o.encode_ns;
    decode_ns += o.decode_ns;
    return *this;
  }
};

/// Shared state of every TimedEndpoint in one deployment.
class LayerProbe {
 public:
  explicit LayerProbe(std::size_t sites) : sites_(sites), slots_(sites) {}

  std::size_t sites() const { return sites_; }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Start a fresh measurement window (clears every tally).
  void enable() {
    for (auto& s : slots_) {
      std::lock_guard lock(s.mu);
      s.tally = {};
      s.last_return_ns = 0;
    }
    {
      std::lock_guard lock(flight_mu_);
      in_flight_.clear();
    }
    enabled_.store(true);
  }
  void disable() { enabled_.store(false); }

  SiteTally total() {
    SiteTally sum;
    for (auto& s : slots_) {
      std::lock_guard lock(s.mu);
      sum += s.tally;
    }
    return sum;
  }

 private:
  friend class TimedEndpoint;
  struct Slot {
    std::mutex mu;
    SiteTally tally;
    std::int64_t last_return_ns = 0;  // 0: no recv() returned yet
    int last_type = -1;               // type of the frame being handled
  };
  using FrameKey = std::tuple<SiteId, SiteId, std::uint64_t>;
  struct FrameKeyHash {
    std::size_t operator()(const FrameKey& k) const {
      const auto [src, dst, seq] = k;
      return std::hash<std::uint64_t>{}(seq * 0x9E3779B97F4A7C15ULL ^
                                        (std::uint64_t{src} << 40) ^
                                        (std::uint64_t{dst} << 20));
    }
  };

  const std::size_t sites_;
  std::vector<Slot> slots_;
  std::atomic<bool> enabled_{false};
  std::mutex flight_mu_;
  std::unordered_map<FrameKey, std::int64_t, FrameKeyHash> in_flight_;
};

/// The sender-assigned sequence number of `m` (0 for unsequenced types:
/// those frames are counted but their wait is not tracked).
inline std::uint64_t msg_seq_of(const wire::Message& m) {
  return std::visit(
      [](const auto& x) -> std::uint64_t {
        if constexpr (requires { x.msg_seq; }) {
          return x.msg_seq;
        } else {
          return 0;
        }
      },
      m);
}

class TimedEndpoint final : public hyperfile::MessageEndpoint {
 public:
  TimedEndpoint(std::unique_ptr<hyperfile::MessageEndpoint> inner,
                LayerProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  SiteId self() const override { return inner_->self(); }
  bool wake_capable() const override { return inner_->wake_capable(); }
  void wake_recv() override { inner_->wake_recv(); }

  hyperfile::Result<void> send(SiteId to, wire::Message message) override {
    if (!probe_.enabled()) return inner_->send(to, std::move(message));
    const std::size_t type = message.index();
    const std::uint64_t seq = msg_seq_of(message);

    const std::int64_t e0 = now_ns();
    const wire::Bytes bytes =
        wire::encode_envelope(wire::Envelope{self(), to, message});
    const std::int64_t e1 = now_ns();
    const bool decoded = wire::decode_envelope(bytes).ok();
    const std::int64_t e2 = now_ns();

    // Registered before the inner send: in-process delivery can reach the
    // receiver's recv() before send() returns.
    const bool track = seq != 0 && to < probe_.sites();
    const LayerProbe::FrameKey key{self(), to, seq};
    const std::int64_t t0 = now_ns();
    if (track) {
      std::lock_guard lock(probe_.flight_mu_);
      probe_.in_flight_[key] = t0;
    }
    auto r = inner_->send(to, std::move(message));
    const std::int64_t t1 = now_ns();
    if (track && !r.ok()) {
      std::lock_guard lock(probe_.flight_mu_);
      probe_.in_flight_.erase(key);
    }

    auto& slot = probe_.slots_[self()];
    std::lock_guard lock(slot.mu);
    SiteTally& t = slot.tally;
    t.encode_ns += e1 - e0;
    t.decode_ns += decoded ? e2 - e1 : 0;
    ++t.sends;
    t.send_ns += t1 - t0;
    if (r.ok()) ++t.sent[type];
    return r;
  }

  std::optional<wire::Envelope> recv(hyperfile::Duration timeout) override {
    if (!probe_.enabled()) return inner_->recv(timeout);
    auto& slot = probe_.slots_[self()];
    const std::int64_t called = now_ns();
    {
      std::lock_guard lock(slot.mu);
      if (slot.last_return_ns != 0) {
        const std::int64_t away = called - slot.last_return_ns;
        slot.tally.busy_ns += away;
        slot.tally.busy_max_ns = std::max(slot.tally.busy_max_ns, away);
        if (slot.last_type >= 0) {
          ++slot.tally.handled[slot.last_type];
          slot.tally.handle_ns[slot.last_type] += away;
        }
      }
    }
    auto env = inner_->recv(timeout);
    const std::int64_t returned = now_ns();

    std::int64_t sent_at = -1;
    if (env.has_value() && env->src < probe_.sites()) {
      const std::uint64_t seq = msg_seq_of(env->message);
      if (seq != 0) {
        std::lock_guard lock(probe_.flight_mu_);
        auto it = probe_.in_flight_.find({env->src, self(), seq});
        if (it != probe_.in_flight_.end()) {
          sent_at = it->second;
          probe_.in_flight_.erase(it);
        }
      }
    }

    std::lock_guard lock(slot.mu);
    slot.last_return_ns = returned;
    slot.last_type = env.has_value() ? static_cast<int>(env->message.index())
                                     : -1;
    if (env.has_value()) {
      const std::size_t type = env->message.index();
      if (env->src >= probe_.sites()) ++slot.tally.from_clients[type];
      if (sent_at >= 0) {
        const std::int64_t wait = returned - sent_at;
        ++slot.tally.waited[type];
        slot.tally.wait_ns[type] += wait;
        slot.tally.wait_max_ns = std::max(slot.tally.wait_max_ns, wait);
        if (wait > 50'000'000) ++slot.tally.waits_over_50ms;
      }
    }
    return env;
  }

 private:
  std::unique_ptr<hyperfile::MessageEndpoint> inner_;
  LayerProbe& probe_;
};

}  // namespace hfbench
