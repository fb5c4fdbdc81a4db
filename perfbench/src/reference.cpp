// The kernel exercises what the simulator's event loops spend themselves
// on: a binary-heap event queue, scattered reads and writes of per-node
// state larger than a core's L2, distance and log-domain power arithmetic,
// and short-lived packet buffers. It depends on nothing of the program
// and on no input, so no change to the program or the seed moves its cost.
#include "reference.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <queue>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

/// Kernel events per host second of credited event loop: the kernel takes
/// about a fifth of the time the loops do.
constexpr double kEventsPerLoopSecond = 400'000.0;
/// Credit that triggers a chunk (host seconds of event loop).
constexpr double kChunkLoopS = 0.02;
constexpr std::uint32_t kNodes = 1u << 15;  // 32 Ki nodes x 64 B = 2 MiB of state
constexpr std::size_t kInFlight = 256;      // packet buffers alive at once

struct Node {
  double x;
  double y;
  double rx_dbm;
  double busy_until;
  std::uint64_t received;
  std::uint64_t rng;
  std::uint32_t neighbours[4];
};

std::uint64_t next(std::uint64_t& s) {
  // xorshift64*
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545F4914F6CDD1DULL;
}

double unit(std::uint64_t& s) { return static_cast<double>(next(s) >> 11) * 0x1.0p-53; }

using Event = std::pair<double, std::uint32_t>;

}  // namespace

struct Reference::State {
  std::vector<Node> nodes;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::vector<std::unique_ptr<char[]>> in_flight;
  std::uint64_t serial{0};
  std::uint64_t checksum{0};

  State() : nodes(kNodes), in_flight(kInFlight) {
    std::uint64_t s = 0x9E3779B97F4A7C15ULL;
    for (Node& n : nodes) {
      n.x = unit(s) * 10000.0;
      n.y = unit(s) * 20.0;
      n.rx_dbm = -100.0;
      n.busy_until = 0.0;
      n.received = 0;
      n.rng = next(s) | 1;
      for (std::uint32_t& nb : n.neighbours) nb = static_cast<std::uint32_t>(next(s) % kNodes);
    }
    for (std::uint32_t i = 0; i < kNodes; i += 4) queue.emplace(unit(s), i);
  }

  void run(std::uint64_t events) {
    for (std::uint64_t e = 0; e < events; ++e, ++serial) {
      const auto [t, i] = queue.top();
      queue.pop();
      Node& sender = nodes[i];
      // One "broadcast" to the sender's neighbours: path loss, carrier sense.
      for (const std::uint32_t j : sender.neighbours) {
        Node& r = nodes[j];
        const double dx = sender.x - r.x;
        const double dy = sender.y - r.y;
        const double d = std::sqrt(dx * dx + dy * dy) + 1.0;
        const double p = 20.0 - 10.0 * 2.7 * std::log10(d);
        if (p > -95.0 && r.busy_until <= t) {
          r.rx_dbm = p;
          r.busy_until = t + 1e-4;
          ++r.received;
        }
      }
      // A packet buffer of varying size replaces the oldest one in flight.
      const std::size_t bytes = 64 + (next(sender.rng) & 511);
      auto buffer = std::make_unique<char[]>(bytes);
      std::memset(buffer.get(), static_cast<int>(serial), bytes);
      checksum += static_cast<unsigned char>(buffer[bytes / 2]);
      in_flight[serial % kInFlight] = std::move(buffer);
      // The node's next event, at itself or at a neighbour.
      sender.x += unit(sender.rng) - 0.5;
      const std::uint32_t nb = sender.neighbours[next(sender.rng) & 3];
      queue.emplace(t + unit(sender.rng) * 0.01, (next(sender.rng) & 1) ? i : nb);
    }
  }
};

Reference::Reference() : state_{std::make_unique<State>()} {}
Reference::~Reference() = default;

void Reference::after_loop(double loop_s) {
  credit_s_ += loop_s;
  if (credit_s_ >= kChunkLoopS) run_chunk();
}

Reference::Tally Reference::take() {
  run_chunk();
  const Tally t = tally_;
  tally_ = {};
  return t;
}

void Reference::run_chunk() {
  const auto events = static_cast<std::uint64_t>(credit_s_ * kEventsPerLoopSecond + 0.5);
  credit_s_ = 0.0;
  if (events == 0) return;
  const auto start = std::chrono::steady_clock::now();
  state_->run(events);
  tally_.seconds += std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  tally_.events += events;
}

}  // namespace perfbench
