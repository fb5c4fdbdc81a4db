// beacon_intersection: intersection_beacon's geometry with 200 parked
// vehicles beaconing at 10 Hz over 802.11p EDCA, Nakagami per-pair fade
// streams and corner blockage, 20 simulated seconds, no TCP traffic.
#include <algorithm>

#include "app/beacon.hpp"
#include "checks.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace eblnet;

namespace {

constexpr std::size_t kPlatoon = 100;  ///< vehicles per arm
constexpr double kRateHz = 10.0;
constexpr double kHalfWidthM = 6.0;
constexpr double kCornerLossDb = 10.0;
constexpr double kBinM = 25.0;
/// A distance bin compares the arms only where each holds this many pairs.
constexpr std::size_t kMinPairs = 20;
const sim::Time kDuration = sim::Time::seconds(std::int64_t{20});

core::ScenarioConfig beacon_config(std::uint64_t seed) {
  core::ScenarioConfig c;
  c.platoon_size = kPlatoon;
  c.duration = kDuration;
  c.routing = core::RoutingType::kStatic;
  c.propagation = core::PropagationType::kNakagami;
  c.nakagami_m = 3.0;
  c.nakagami_node_streams = true;
  c.blockage.enabled = true;
  c.blockage.half_width_m = kHalfWidthM;
  c.blockage.corner_loss_db = kCornerLossDb;
  c.mac = core::MacType::kEdca;
  c.beacon.enabled = true;
  c.beacon.interval = sim::Time::seconds(1.0 / kRateHz);
  c.enable_trace = false;
  // Platoon 2 stays parked for the whole run and the EBL TCP streams are
  // silenced: beacons are the only traffic on the air.
  c.platoon2_depart = kDuration + sim::Time::seconds(std::int64_t{1});
  c.ebl.cbr_rate_bps = 1.0;
  c.phy.tx_power_w /= 16.0;
  c.seed = seed;
  return c;
}

class BeaconIntersection final : public Workload {
 public:
  explicit BeaconIntersection(std::uint64_t seed)
      : config_{beacon_config(sim::mix_seed(seed, 0))} {}

  void round(RoundContext& ctx, StageTimes& times, LayerMetrics& layers) override {
    core::ScenarioConfig cfg = config_;
    cfg.enable_metrics = ctx.traced;
    const std::size_t n = 2 * kPlatoon;
    std::vector<std::uint64_t> rx(n * n, 0);  ///< rx[receiver * n + sender]
    std::vector<std::uint64_t> sent(n, 0);
    std::vector<double> busy_s(n, 0.0);
    std::vector<mobility::Vec2> pos(n);
    std::uint64_t frames = 0;
    ScenarioProbe probe;
    CounterTotals totals{};

    const std::size_t op = ctx.begin_op();
    try {
      const core::TrialResult r = simulate(
          cfg, "beacon_intersection", ctx, times, probe, sim::Time::seconds(std::int64_t{1}),
          [&](core::EblScenario& s) {
            for (std::size_t i = 0; i < n; ++i)
              s.beacon(i).set_on_beacon(
                  [&rx, i, n](net::NodeId from, const net::Packet&) { rx[i * n + from] += 1; });
          },
          [&](core::EblScenario& s) {
            for (std::size_t i = 0; i < n; ++i) {
              sent[i] = s.beacon(i).sent();
              busy_s[i] = s.phy(i).busy_time().to_seconds();
              frames += s.phy(i).tx_count();
            }
            for (std::size_t i = 0; i < kPlatoon; ++i) {
              pos[i] = s.platoon1().vehicle(i)->position_at(kDuration);
              pos[kPlatoon + i] = s.platoon2().vehicle(i)->position_at(kDuration);
            }
          });
      add_totals(totals, r.metrics);
      if (ctx.traced) probe.ifq_unbalanced += check_queue_books(ctx, op, r.metrics);
      check(ctx, op, rx, sent, busy_s, pos, frames);

      std::uint64_t fp = 0xcbf29ce484222325ULL;
      for (const std::uint64_t v : rx) fp = (fp ^ v) * 0x100000001b3ULL;
      if (first_fp_ == 0) first_fp_ = fp;
      ctx.expect(fp == first_fp_ ? "" : "beacon receptions differ from round 0", op);
    } catch (const std::exception& e) {
      ctx.threw(std::string{"beacon_intersection: "} + e.what(), op);
    }
    if (ctx.traced) add_scenario_layers(layers, probe, totals, times);
  }

 private:
  void check(RoundContext& ctx, std::size_t op, const std::vector<std::uint64_t>& rx,
             const std::vector<std::uint64_t>& sent, const std::vector<double>& busy_s,
             const std::vector<mobility::Vec2>& pos, std::uint64_t frames) const {
    const std::size_t n = sent.size();
    std::uint64_t beacons = 0;
    for (std::size_t i = 0; i < n; ++i) {
      beacons += sent[i];
      ctx.expect(checks::periodic_count(("node " + std::to_string(i)).c_str(), sent[i],
                                        kDuration.to_seconds(), kRateHz),
                 op);
    }
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t t = 0; t < n; ++t)
        if (rx[r * n + t] > sent[t])
          ctx.expect(checks::at_most(("receptions " + std::to_string(t) + "->" +
                                      std::to_string(r)).c_str(),
                                     static_cast<double>(rx[r * n + t]),
                                     static_cast<double>(sent[t])),
                     op);

    // The medium is busy only while some frame is on the air: no node's
    // busy time exceeds the airtime of every frame radiated, summed. A
    // beacon is its payload plus UDP/IP and MAC headers at the basic
    // rate; any other frame is charged as a full-size data frame.
    const mac::EdcaParams& e = config_.edca;
    const double beacon_air =
        e.plcp_overhead.to_seconds() +
        static_cast<double>(config_.beacon.payload_bytes + 20 + 8 + e.data_header_bytes) * 8.0 /
            e.basic_rate_bps;
    const double other_air =
        e.plcp_overhead.to_seconds() +
        static_cast<double>(config_.packet_bytes + 60 + e.data_header_bytes) * 8.0 /
            std::min(e.basic_rate_bps, e.data_rate_bps);
    const double airtime =
        static_cast<double>(beacons) * beacon_air +
        static_cast<double>(frames > beacons ? frames - beacons : 0) * other_air;
    const double max_busy = *std::max_element(busy_s.begin(), busy_s.end());
    ctx.expect(checks::at_most("largest busy time vs summed airtime (s)", max_busy, airtime), op);

    // LOS pairs receive at least as well as NLOS pairs at the same
    // distance (25 m bins holding enough pairs of both kinds).
    const double max_d = 2000.0;
    const auto bins = static_cast<std::size_t>(max_d / kBinM) + 1;
    struct Bin {
      std::uint64_t got{0}, expected{0};
      std::size_t pairs{0};
    };
    std::vector<Bin> los(bins), nlos(bins);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t t = 0; t < n; ++t) {
        if (r == t) continue;
        const double d = (pos[r] - pos[t]).length();
        const auto b = std::min(bins - 1, static_cast<std::size_t>(d / kBinM));
        const bool los_pair =
            checks::line_of_sight(pos[t].x, pos[t].y, pos[r].x, pos[r].y, kHalfWidthM);
        Bin& bin = los_pair ? los[b] : nlos[b];
        bin.got += rx[r * n + t];
        bin.expected += sent[t];
        bin.pairs += 1;
      }
    }
    std::size_t compared = 0;
    for (std::size_t b = 0; b < bins; ++b) {
      if (los[b].pairs < kMinPairs || nlos[b].pairs < kMinPairs) continue;
      ++compared;
      const double l = static_cast<double>(los[b].got) / static_cast<double>(los[b].expected);
      const double nl = static_cast<double>(nlos[b].got) / static_cast<double>(nlos[b].expected);
      const std::string what =
          "LOS vs NLOS reception at " + std::to_string(static_cast<int>(b * kBinM)) + " m";
      ctx.expect(checks::at_least(what.c_str(), l, nl), op);
    }
    ctx.expect(compared > 0 ? "" : "no distance bin holds both LOS and NLOS pairs", op);
  }

  core::ScenarioConfig config_;
  std::uint64_t first_fp_{0};
};

}  // namespace

std::unique_ptr<Workload> make_beacon_intersection(std::uint64_t seed) {
  return std::make_unique<BeaconIntersection>(seed);
}

}  // namespace perfbench
