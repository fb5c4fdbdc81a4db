// paper_trials: the paper's trials 1-3 (1000 B TDMA, 500 B TDMA, 1000 B
// 802.11) x 10 seeds at the paper's 62 s, run serially. Every trial is
// committed to a fresh run cache, then the whole sweep is served again
// from that cache.
#include <filesystem>
#include <sstream>

#include "checks.hpp"
#include "core/campaign/run_cache.hpp"
#include "core/report.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace eblnet;

namespace {

constexpr std::size_t kSeeds = 10;
constexpr std::size_t kTrials = 3;

/// Bits a throughput series delivered, and the window from the start of
/// its first non-zero sample to the end of its last.
struct Delivered {
  double bits{0.0};
  double window_s{0.0};
};

Delivered delivered(const stats::TimeSeries& ts, sim::Time interval) {
  Delivered d;
  double first = -1.0;
  double last = -1.0;
  for (const auto& p : ts.points()) {
    d.bits += p.value * 1e6 * interval.to_seconds();
    if (p.value > 0.0) {
      if (first < 0.0) first = p.t.to_seconds() - interval.to_seconds();
      last = p.t.to_seconds();
    }
  }
  if (first >= 0.0) d.window_s = last - first;
  return d;
}

double min_delay_s(const core::TrialResult& r) {
  double m = 1e300;
  for (const auto* flow : {&r.p1_middle, &r.p1_trailing, &r.p2_middle, &r.p2_trailing})
    for (const trace::DelaySample& s : *flow) m = std::min(m, s.delay_seconds());
  return m;
}

std::string manifest(const core::TrialResult& r) {
  std::ostringstream os;
  core::report::write_json(os, r);
  return os.str();
}

class PaperTrials final : public Workload {
 public:
  explicit PaperTrials(std::uint64_t seed) {
    for (std::size_t t = 0; t < kTrials; ++t) {
      for (std::size_t i = 0; i < kSeeds; ++i) {
        core::ScenarioConfig cfg = t == 0   ? core::trial1_config()
                                   : t == 1 ? core::trial2_config()
                                            : core::trial3_config();
        cfg.seed = sim::mix_seed(seed, i);
        configs_.push_back(cfg);
        names_.push_back("trial" + std::to_string(t + 1) + "/seed" + std::to_string(i));
      }
    }
  }

  void round(RoundContext& ctx, StageTimes& times, LayerMetrics& layers) override {
    namespace fs = std::filesystem;
    const fs::path dir = ctx.work_dir / ("cache-" + std::to_string(ctx.round));
    fs::remove_all(dir);
    core::campaign::RunCache cache{dir};

    const std::size_t n = configs_.size();
    std::vector<core::TrialResult> cold(n);
    std::vector<char> ok(n, 0);
    ScenarioProbe probe;
    CounterTotals totals{};
    double key_s = 0.0;
    double entry_bytes = 0.0;

    // Cold pass: look up (miss), simulate, check, store.
    const std::size_t first_sim = ctx.op_failed.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t op = ctx.begin_op();
      core::ScenarioConfig cfg = configs_[i];
      cfg.enable_metrics = ctx.traced;
      try {
        core::campaign::Key key;
        {
          Timed t{ctx.tracer, "RunCache::key_for"};
          key = cache.key_for(cfg, 1);
          key_s += t.stop();
        }
        {
          Timed t{ctx.tracer, "RunCache::load (cold)"};
          ctx.expect(cache.load(cfg, 1, names_[i]) ? "cold cache served " + names_[i] : "", op);
        }
        cold[i] = simulate(cfg, names_[i], ctx, times, probe, sim::Time::seconds(std::int64_t{1}));
        add_totals(totals, cold[i].metrics);
        check_trial(ctx, op, cold[i]);
        if (ctx.traced) probe.ifq_unbalanced += check_queue_books(ctx, op, cold[i].metrics);
        {
          Timed t{ctx.tracer, "RunCache::store"};
          cache.store(cfg, 1, cold[i]);
          times.store_s += t.stop();
        }
        entry_bytes += static_cast<double>(fs::file_size(cache.entry_path(key)));
        ok[i] = 1;
      } catch (const std::exception& e) {
        ctx.threw(names_[i] + ": " + e.what(), op);
      }
    }
    const std::size_t last_sim = ctx.op_failed.size() - 1;
    ctx.expect(checks::equal_u64("cold pass cache hits", cache.hits(), 0), first_sim, last_sim);
    ctx.expect(checks::equal_u64("cold pass cache misses", cache.misses(), n), first_sim, last_sim);
    check_findings(ctx, first_sim, last_sim, cold);

    // Warm pass: every trial served from the cache, byte-identical.
    const std::size_t first_load = ctx.op_failed.size();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t op = ctx.begin_op();
      core::ScenarioConfig cfg = configs_[i];
      cfg.enable_metrics = ctx.traced;
      try {
        std::optional<core::TrialResult> warm;
        {
          Timed t{ctx.tracer, "RunCache::load"};
          warm = cache.load(cfg, 1, names_[i]);
          times.load_s += t.stop();
        }
        if (!warm) {
          ctx.expect("warm cache missed " + names_[i], op);
        } else if (ok[i]) {
          ctx.expect(manifest(*warm) == manifest(cold[i])
                         ? ""
                         : names_[i] + ": warm result re-serialises differently",
                     op);
          ctx.expect(fingerprint(*warm) == fingerprint(cold[i])
                         ? ""
                         : names_[i] + ": warm result's samples differ",
                     op);
        }
      } catch (const std::exception& e) {
        ctx.threw(names_[i] + ": " + e.what(), op);
      }
    }
    const std::size_t last_load = ctx.op_failed.size() - 1;
    ctx.expect(checks::equal_u64("warm pass cache hits", cache.hits(), n), first_load, last_load);
    ctx.expect(checks::equal_u64("warm pass cache misses", cache.misses(), n), first_load,
               last_load);

    // Every round simulates the same inputs: results must repeat exactly
    // (traced or not).
    for (std::size_t i = 0; i < n; ++i) {
      if (!ok[i]) continue;
      const std::uint64_t fp = fingerprint(cold[i]);
      if (first_fp_.size() < n) first_fp_.resize(n, 0);
      if (first_fp_[i] == 0) first_fp_[i] = fp;
      ctx.expect(fp == first_fp_[i] ? "" : names_[i] + ": result differs from round 0",
                 first_sim + i);
    }
    fs::remove_all(dir);

    if (ctx.traced) {
      add_scenario_layers(layers, probe, totals, times);
      layers["campaign.key_us"] = key_s * 1e6 / static_cast<double>(n);
      layers["campaign.entry_kb"] = entry_bytes / 1e3 / static_cast<double>(n);
      layers["campaign.store_s"] = times.store_s;
      layers["campaign.load_s"] = times.load_s;
      layers["campaign.store_mb_per_s"] = entry_bytes / 1e6 / times.store_s;
      layers["campaign.load_mb_per_s"] = entry_bytes / 1e6 / times.load_s;
    }
  }

 private:
  /// Capacity, airtime and delay bounds of one finished trial.
  static void check_trial(RoundContext& ctx, std::size_t op, const core::TrialResult& r) {
    const core::ScenarioConfig& c = r.config;
    const double packet_bits = static_cast<double>(c.packet_bytes) * 8.0;
    double per_packet_s = 0.0;
    double airtime_s = 0.0;
    if (c.mac == core::MacType::kTdma) {
      // One slot per node per frame: the lead sends at most one packet
      // per TDMA frame, whatever the number of followers.
      per_packet_s = c.tdma.frame_duration().to_seconds();
      airtime_s = c.tdma.plcp_overhead.to_seconds() + packet_bits / c.tdma.data_rate_bps;
    } else {
      // Every data packet costs at least DIFS + data frame + SIFS + ACK.
      const mac::Mac80211Params& m = c.mac80211;
      const double data_bits = static_cast<double>(c.packet_bytes + m.data_header_bytes) * 8.0;
      per_packet_s = m.difs.to_seconds() + m.plcp_overhead.to_seconds() +
                     data_bits / m.data_rate_bps + m.sifs.to_seconds() +
                     m.plcp_overhead.to_seconds() +
                     static_cast<double>(m.ack_bytes) * 8.0 / m.basic_rate_bps;
      airtime_s = m.plcp_overhead.to_seconds() + packet_bits / m.data_rate_bps;
    }
    for (const auto* ts : {&r.p1_throughput, &r.p2_throughput}) {
      const Delivered d = delivered(*ts, c.throughput_sample_interval);
      ctx.expect(checks::throughput_within_capacity(r.name.c_str(), d.bits, d.window_s,
                                                    per_packet_s, packet_bits),
                 op);
    }
    ctx.expect(checks::delay_at_least_airtime(r.name.c_str(), min_delay_s(r), airtime_s), op);
  }

  /// The paper's findings over the 10-seed means of each trial.
  static void check_findings(RoundContext& ctx, std::size_t first, std::size_t last,
                             const std::vector<core::TrialResult>& cold) {
    double delay[kTrials] = {};
    double tput[kTrials] = {};
    double init_delay[kTrials] = {};
    for (std::size_t t = 0; t < kTrials; ++t) {
      for (std::size_t i = 0; i < kSeeds; ++i) {
        const core::TrialResult& r = cold[t * kSeeds + i];
        delay[t] += r.p1_delay_summary().mean() / kSeeds;
        tput[t] += r.p1_throughput_summary().mean() / kSeeds;
        init_delay[t] += r.p1_initial_packet_delay_s / kSeeds;
      }
    }
    const core::ScenarioConfig& c = cold.front().config;
    ctx.expect(checks::ratio_near("delay(trial1)/delay(trial2)", delay[0] / delay[1], 1.0, 0.1),
               first, last);
    ctx.expect(
        checks::ratio_near("throughput(trial1)/throughput(trial2)", tput[0] / tput[1], 2.0, 0.1),
        first, last);
    ctx.expect(checks::at_least("delay(trial1)/delay(trial3)", delay[0] / delay[2], 10.0), first,
               last);
    const char* want[kTrials] = {"gap consumed", "gap consumed", "in time"};
    const char* what[kTrials] = {"trial1 verdict", "trial2 verdict", "trial3 verdict"};
    for (std::size_t t = 0; t < kTrials; ++t)
      ctx.expect(checks::verdict_is(what[t], c.speed_mps, c.vehicle_gap_m, init_delay[t], want[t]),
                 first, last);
  }

  std::vector<core::ScenarioConfig> configs_;
  std::vector<std::string> names_;
  std::vector<std::uint64_t> first_fp_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_trials(std::uint64_t seed) {
  return std::make_unique<PaperTrials>(seed);
}

}  // namespace perfbench
