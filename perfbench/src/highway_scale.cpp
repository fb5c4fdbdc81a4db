// highway_scale: perf_scale's highway (802.11, AODV, 100 m headway,
// per-node RNG streams) at 10,000 vehicles for 16 simulated seconds, run
// on the serial engine at five scenario seeds and on the sharded engine
// with 2 shards at the first of them. The serial run is the oracle for
// the sharded one. How much data survives the route-discovery flood
// varies from seed to seed, and with it the work of a run (events per
// run vary by +-8 %); five seeds per round average that out of run_s.
#include <algorithm>

#include "checks.hpp"
#include "core/sharded_scenario.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace eblnet;

namespace {

constexpr std::size_t kVehicles = 10000;
constexpr std::size_t kSeeds = 5;
constexpr std::size_t kShards = 2;
static_assert(kShards >= 2, "the extra-event identity below counts k - 2 sampler trains");

core::ScenarioConfig highway_config(std::uint64_t seed) {
  core::ScenarioConfig c = core::make_trial_config(1000, core::MacType::k80211);
  c.platoon_size = kVehicles / 2;
  c.duration = sim::Time::seconds(std::int64_t{16});
  c.enable_trace = false;
  c.vehicle_gap_m = 100.0;
  c.phy.cs_threshold_w = c.phy.rx_threshold_w;
  c.aodv.net_diameter = 600;
  c.aodv.ttl_start = 600;
  c.ebl.cbr_rate_bps = 1.2e5;
  c.node_rng_streams = true;
  c.seed = seed;
  return c;
}

class HighwayScale final : public Workload {
 public:
  explicit HighwayScale(std::uint64_t seed) {
    for (std::size_t i = 0; i < kSeeds; ++i)
      configs_.push_back(highway_config(sim::mix_seed(seed, i)));
  }

  void round(RoundContext& ctx, StageTimes& times, LayerMetrics& layers) override {
    ScenarioProbe probe;
    CounterTotals totals{};

    // Serial engine, every seed.
    std::vector<core::TrialResult> serial(kSeeds);
    std::vector<char> ok(kSeeds, 0);
    std::vector<std::size_t> ops(kSeeds);
    for (std::size_t i = 0; i < kSeeds; ++i) {
      core::ScenarioConfig cfg = configs_[i];
      cfg.enable_metrics = ctx.traced;
      ops[i] = ctx.begin_op();
      try {
        serial[i] = simulate(cfg, "highway/serial", ctx, times, probe,
                             sim::Time::seconds(std::int64_t{1}));
        add_totals(totals, serial[i].metrics);
        if (ctx.traced)
          probe.ifq_unbalanced += check_queue_books(ctx, ops[i], serial[i].metrics);
        const std::uint64_t fp = fingerprint(serial[i]);
        if (first_fp_[i] == 0) first_fp_[i] = fp;
        ctx.expect(fp == first_fp_[i] ? "" : "highway result differs from round 0", ops[i]);
        ok[i] = 1;
      } catch (const std::exception& e) {
        ctx.threw(std::string{"serial highway: "} + e.what(), ops[i]);
      }
    }

    // Sharded engine, first seed, against its serial twin.
    core::ScenarioConfig cfg = configs_.front();
    cfg.enable_metrics = ctx.traced;
    const std::size_t sharded_op = ctx.begin_op();
    core::ShardRunDiagnostics diag;
    try {
      core::TrialResult sharded;
      {
        Timed t{ctx.tracer, "core::run_sharded_trial"};
        sharded = core::run_sharded_trial(cfg, kShards, "highway/sharded", &diag);
        times.sharded_s += t.stop();
      }
      if (ok[0]) {
        ctx.expect(fingerprint(sharded) == fingerprint(serial[0])
                       ? ""
                       : "sharded highway result differs from the serial oracle",
                   sharded_op);
        // Every extra event of the sharded run is a seam replay or work
        // each extra shard replicates: the scripted mobility (platoon 1's
        // brake, each of its vehicles' stop, platoon 2's departure) and a
        // throughput sampler train per shard where the serial engine runs
        // one per platoon.
        const std::uint64_t train = serial[0].p1_throughput.size();
        const std::uint64_t mobility = cfg.platoon_size + 2;
        ctx.expect(checks::equal_u64("sharded extra events",
                                     diag.total_events - serial[0].events_executed,
                                     diag.remote_injects + (kShards - 1) * mobility +
                                         (kShards - 2) * train),
                   sharded_op);
      }
    } catch (const std::exception& e) {
      ctx.threw(std::string{"sharded highway: "} + e.what(), sharded_op);
    }

    if (ctx.traced) {
      add_scenario_layers(layers, probe, totals, times);
      layers["sim.sharded_wall_s"] = times.sharded_s;
      double stall = 0.0;
      std::uint64_t lo = UINT64_MAX;
      std::uint64_t hi = 0;
      for (const sim::ShardStats& s : diag.per_shard) {
        stall += s.stall_seconds;
        lo = std::min(lo, s.events);
        hi = std::max(hi, s.events);
      }
      layers["sim.shard_stall_s"] = stall;
      layers["sim.shard_imbalance"] =
          lo > 0 && lo != UINT64_MAX ? static_cast<double>(hi) / static_cast<double>(lo) : 0.0;
      layers["sim.shard_seam_ratio"] = diag.seam_crossing_ratio();
      layers["sim.shard_extra_events"] =
          static_cast<double>(diag.total_events - serial[0].events_executed);
    }
  }

 private:
  std::vector<core::ScenarioConfig> configs_;
  std::uint64_t first_fp_[kSeeds] = {};
};

}  // namespace

std::unique_ptr<Workload> make_highway_scale(std::uint64_t seed) {
  return std::make_unique<HighwayScale>(seed);
}

}  // namespace perfbench
