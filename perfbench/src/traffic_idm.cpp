// traffic_idm: traffic_sweep's quick highway (8 lanes x 10 km, 5,000-
// vehicle cap, staged incident, 1,300 s) at market penetration 0 (radio
// free: the IDM stepping alone) and at penetration 1 (radios attach and
// detach while the run goes on).
#include "checks.hpp"
#include "core/traffic_scenario.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace eblnet;

namespace {

/// The jam-wave speed must lie within this share of car-following theory.
constexpr double kWaveBand = 0.2;

core::TrafficConfig traffic_config(std::uint64_t seed, double penetration) {
  core::TrafficConfig cfg;
  cfg.enabled = true;
  cfg.flow = mobility::TrafficFlowParams::highway(8, 10000.0, 0.8);
  cfg.flow.max_vehicles = 5000;
  cfg.duration = sim::Time::seconds(std::int64_t{1300});
  cfg.incident_at = sim::Time::seconds(std::int64_t{400});
  cfg.incident_hold = sim::Time::seconds(std::int64_t{180});
  cfg.incident_decel_mps2 = 6.0;
  cfg.penetration = penetration;
  cfg.seed = seed;
  return cfg;
}

class TrafficIdm final : public Workload {
 public:
  explicit TrafficIdm(std::uint64_t seed)
      : configs_{traffic_config(sim::mix_seed(seed, 0), 0.0),
                 traffic_config(sim::mix_seed(seed, 0), 1.0)} {}

  void round(RoundContext& ctx, StageTimes& times, LayerMetrics& layers) override {
    CounterTotals totals{};
    double ticks = 0.0;
    double vehicle_ticks_p0 = 0.0;
    double run_s_p0 = 0.0;
    double radios = 0.0;
    std::uint64_t events = 0;
    std::uint64_t pending_peak = 0;
    std::uint64_t broadcasts = 0;

    for (std::size_t k = 0; k < configs_.size(); ++k) {
      const core::TrafficConfig& cfg = configs_[k];
      const std::size_t op = ctx.begin_op();
      try {
        std::unique_ptr<core::TrafficScenario> scenario;
        {
          Timed t{ctx.tracer, "TrafficScenario::TrafficScenario"};
          scenario = std::make_unique<core::TrafficScenario>(cfg);
          times.setup_s += t.stop();
        }
        if (ctx.traced) scenario->env().metrics().set_enabled(true);
        const double run_s =
            run_event_loop(*scenario, "TrafficScenario::run", cfg.duration,
                           sim::Time::seconds(std::int64_t{10}), ctx, pending_peak);
        times.run_s += run_s;
        core::TrafficRunResult r;
        {
          Timed t{ctx.tracer, "TrafficScenario::result"};
          r = scenario->result("p=" + std::to_string(cfg.penetration));
          times.analysis_s += t.stop();
        }

        const mobility::TrafficFlow& flow = scenario->flow();
        ticks += static_cast<double>(flow.ticks_executed());
        if (cfg.penetration == 0.0) {
          for (const mobility::SpeedSample& s : flow.speed_series())
            vehicle_ticks_p0 +=
                static_cast<double>(s.active) * flow.params().speed_sample_every_ticks;
          run_s_p0 = run_s;
        }
        radios += static_cast<double>(scenario->equipped_count());
        events += scenario->env().scheduler().executed_count();
        broadcasts += scenario->channel().broadcasts();
        if (ctx.traced) add_totals(totals, scenario->env().metrics().snapshot());
        {
          Timed t{ctx.tracer, "TrafficScenario::~TrafficScenario"};
          scenario.reset();
          times.teardown_s += t.stop();
        }

        check(ctx, op, cfg, r);
        const std::uint64_t fp = fingerprint(r);
        if (first_fp_[k] == 0) first_fp_[k] = fp;
        ctx.expect(fp == first_fp_[k] ? "" : r.name + ": traffic row differs from round 0", op);
      } catch (const std::exception& e) {
        ctx.threw(std::string{"traffic_idm: "} + e.what(), op);
      }
    }

    if (ctx.traced) {
      ScenarioProbe probe;
      probe.events = events;
      probe.pending_peak = pending_peak;
      probe.broadcasts = broadcasts;
      probe.nodes = static_cast<std::uint64_t>(radios);
      add_scenario_layers(layers, probe, totals, times);
      layers["mobility.ticks"] = ticks;
      layers["mobility.vehicle_ticks"] = vehicle_ticks_p0;
      layers["mobility.ns_per_vehicle_tick"] =
          vehicle_ticks_p0 > 0.0 ? run_s_p0 * 1e9 / vehicle_ticks_p0 : 0.0;
    }
  }

 private:
  static void check(RoundContext& ctx, std::size_t op, const core::TrafficConfig& cfg,
                    const core::TrafficRunResult& r) {
    const char* name = r.name.c_str();
    ctx.expect(checks::equal_u64(name, r.vehicles_spawned, cfg.flow.max_vehicles), op);
    ctx.expect(checks::equal_u64(name, r.equipped,
                                 cfg.penetration >= 1.0 ? r.vehicles_spawned : 0),
               op);
    ctx.expect(checks::at_most("reactions vs receptions", static_cast<double>(r.reactions),
                               static_cast<double>(r.warning_receptions)),
               op);
    const mobility::IdmParams& idm = cfg.flow.idm;
    ctx.expect(checks::wave_speed_in_band(
                   r.shockwave_speed_mps,
                   checks::jam_wave_speed_mps(idm.vehicle_length_m, idm.min_gap_m,
                                              idm.time_headway_s),
                   kWaveBand),
               op);
    ctx.expect(checks::at_most("final mean speed vs v0 (m/s)", r.final_mean_speed_mps,
                               idm.desired_speed_mps),
               op);
  }

  std::vector<core::TrafficConfig> configs_;
  std::uint64_t first_fp_[2] = {0, 0};
};

}  // namespace

std::unique_ptr<Workload> make_traffic_idm(std::uint64_t seed) {
  return std::make_unique<TrafficIdm>(seed);
}

}  // namespace perfbench
