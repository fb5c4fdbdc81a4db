#include "workload.hpp"

#include <stdexcept>

#include "checks.hpp"
#include "net/layers.hpp"

namespace perfbench {

using namespace eblnet;

core::TrialResult simulate(const core::ScenarioConfig& cfg, const std::string& name,
                           RoundContext& ctx, StageTimes& times, ScenarioProbe& probe,
                           sim::Time slice,
                           const std::function<void(core::EblScenario&)>& before_run,
                           const std::function<void(core::EblScenario&)>& after_run) {
  std::unique_ptr<core::EblScenario> scenario;
  {
    Timed t{ctx.tracer, "EblScenario::EblScenario"};
    scenario = std::make_unique<core::EblScenario>(cfg);
    times.setup_s += t.stop();
  }
  if (before_run) before_run(*scenario);

  times.run_s += run_event_loop(*scenario, "EblScenario::run", cfg.duration, slice, ctx,
                                probe.pending_peak);
  if (after_run) after_run(*scenario);

  sim::Scheduler& sched = scenario->env().scheduler();
  probe.nodes += scenario->node_count();
  probe.events += sched.executed_count();
  probe.broadcasts += scenario->channel().broadcasts();
  probe.pair_evaluations += scenario->channel().pair_evaluations();
  probe.batch_lanes += scenario->channel().batch_lanes();
  probe.batch_culled += scenario->channel().batch_culled();
  probe.trace_records += scenario->trace().records().size();
  for (std::size_t i = 0; i < scenario->node_count(); ++i)
    probe.busy_ratio_sum += scenario->phy(i).busy_time().to_seconds() / cfg.duration.to_seconds();

  core::TrialResult result;
  {
    Timed t{ctx.tracer, "core::extract_trial_result"};
    core::TrialMetrics snapshot;
    if (cfg.enable_metrics) {
      // As core::run_trial: fold the residual queue occupancy in so the
      // conservation identity of the interface queues closes.
      auto& metrics = scenario->env().metrics();
      for (std::size_t i = 0; i < scenario->node_count(); ++i) {
        const net::MacLayer* mac = scenario->node(i).mac();
        const net::PacketQueue* ifq = mac ? mac->interface_queue() : nullptr;
        if (ifq && ifq->length() > 0)
          metrics.add(static_cast<std::uint32_t>(i), sim::Counter::kIfqResidual, ifq->length());
      }
      snapshot = metrics.snapshot();
    }
    result = core::extract_trial_result(cfg, name, scenario->trace().records(),
                                        scenario->throughput1().series(),
                                        scenario->throughput2().series(), std::move(snapshot),
                                        sched.executed_count(), &scenario->env().faults());
    times.analysis_s += t.stop();
  }
  {
    Timed t{ctx.tracer, "EblScenario::~EblScenario"};
    scenario.reset();
    times.teardown_s += t.stop();
  }
  return result;
}

void add_totals(CounterTotals& totals, const sim::MetricsSnapshot& m) {
  for (std::size_t c = 0; c < sim::kCounterCount; ++c)
    totals[c] += m.total(static_cast<sim::Counter>(c));
}

std::uint64_t check_queue_books(RoundContext& ctx, std::size_t op,
                                const sim::MetricsSnapshot& m) {
  std::uint64_t unbalanced = 0;
  for (std::uint32_t node = 0; node < m.nodes; ++node) {
    const auto c = [&](sim::Counter k) { return m.node_counter(node, k); };
    const std::uint64_t in = c(sim::Counter::kIfqEnqueued) + c(sim::Counter::kFaultCorruptions);
    const std::uint64_t out = c(sim::Counter::kIfqDequeued) + c(sim::Counter::kIfqDropped) +
                              c(sim::Counter::kIfqRemoved) + c(sim::Counter::kIfqFaultFlushed) +
                              c(sim::Counter::kIfqResidual);
    const std::string what = "ifq books of node " + std::to_string(node);
    if (!ctx.expect(checks::queue_books_balance(what.c_str(), in, out,
                                                c(sim::Counter::kIfqDropped)),
                    op))
      break;
    unbalanced += out - in;
  }
  return unbalanced;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void add_scenario_layers(LayerMetrics& layers, const ScenarioProbe& probe,
                         const CounterTotals& totals, const StageTimes& times) {
  const auto total = [&](sim::Counter c) {
    return static_cast<double>(totals[static_cast<std::size_t>(c)]);
  };
  const auto events = static_cast<double>(probe.events);
  const auto nodes = static_cast<double>(probe.nodes);
  layers["sim.events"] = events;
  layers["sim.ns_per_event"] = ratio(times.run_s * 1e9, events);
  layers["sim.pending_peak"] = static_cast<double>(probe.pending_peak);

  layers["phy.broadcasts"] = static_cast<double>(probe.broadcasts);
  layers["phy.pair_evals_per_tx"] =
      ratio(static_cast<double>(probe.pair_evaluations), static_cast<double>(probe.broadcasts));
  layers["phy.batch_survivor_ratio"] =
      ratio(static_cast<double>(probe.batch_lanes - probe.batch_culled),
            static_cast<double>(probe.batch_lanes));
  layers["phy.rx_ok"] = total(sim::Counter::kPhyRxOk);
  layers["phy.rx_collisions"] = total(sim::Counter::kPhyRxCollision);
  layers["phy.busy_ratio"] = ratio(probe.busy_ratio_sum, nodes);

  layers["mac.tx_data"] = total(sim::Counter::kMacTxData);
  layers["mac.retries"] = total(sim::Counter::kMacRetries);
  layers["mac.backoff_slots"] = total(sim::Counter::kMacBackoffSlots);
  layers["mac.internal_collisions"] = total(sim::Counter::kMacInternalCollisions);
  layers["mac.tdma_slots_idle"] = total(sim::Counter::kTdmaSlotsIdle);

  layers["queue.enqueued"] = total(sim::Counter::kIfqEnqueued);
  layers["queue.dropped"] = total(sim::Counter::kIfqDropped);
  layers["queue.unbalanced"] = static_cast<double>(probe.ifq_unbalanced);

  layers["routing.rreq_sent"] = total(sim::Counter::kAodvRreqSent);
  layers["routing.rreq_forwarded"] = total(sim::Counter::kAodvRreqForwarded);
  layers["routing.discoveries"] = total(sim::Counter::kAodvDiscoveries);

  layers["transport.tcp_data_sent"] = total(sim::Counter::kTcpDataSent);
  layers["transport.tcp_retransmits"] = total(sim::Counter::kTcpRetransmits);
  layers["transport.rto_firings"] = total(sim::Counter::kTcpRtoFirings);

  layers["app.beacons_sent"] = total(sim::Counter::kAppBeaconSent);
  layers["app.beacons_received"] = total(sim::Counter::kAppBeaconReceived);
  layers["app.messages_delivered"] = total(sim::Counter::kAppMessagesDelivered);

  layers["core.analysis_s"] = times.analysis_s;
  layers["core.teardown_s"] = times.teardown_s;
  layers["core.setup_us_per_node"] = ratio(times.setup_s * 1e6, nodes);
  layers["core.teardown_us_per_node"] = ratio(times.teardown_s * 1e6, nodes);
  layers["core.radios_attached"] = nodes;

  layers["trace.records"] = static_cast<double>(probe.trace_records);
  layers["trace.ns_per_record"] =
      ratio(times.analysis_s * 1e9, static_cast<double>(probe.trace_records));
}

std::unique_ptr<Workload> make_paper_trials(std::uint64_t seed);
std::unique_ptr<Workload> make_highway_scale(std::uint64_t seed);
std::unique_ptr<Workload> make_beacon_intersection(std::uint64_t seed);
std::unique_ptr<Workload> make_traffic_idm(std::uint64_t seed);

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper_trials") return make_paper_trials(seed);
  if (name == "highway_scale") return make_highway_scale(seed);
  if (name == "beacon_intersection") return make_beacon_intersection(seed);
  if (name == "traffic_idm") return make_traffic_idm(seed);
  throw std::invalid_argument{"unknown workload: " + name};
}

}  // namespace perfbench
