// The workload interface, and the timed, traced drive of a scenario's
// stages that the workloads share.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/trial.hpp"
#include "reference.hpp"
#include "support.hpp"

namespace perfbench {

/// What one round of a workload sees.
struct RoundContext {
  int round{0};
  /// Traced round: spans are recorded, the program's metrics registry is
  /// on, event loops are cut into simulated-time slices and per-layer
  /// metrics are filled in.
  bool traced{false};
  Tracer& tracer;
  Ledger& ledger;
  Reference& reference;  ///< runs between event-loop slices
  std::filesystem::path work_dir;  ///< scratch space inside the checkout
  std::vector<char> op_failed;    ///< one flag per operation of this round

  /// Start one operation (a simulated run or a cache load); spans that
  /// follow carry its id. Returns the operation's index in the round.
  std::size_t begin_op() {
    tracer.new_run();
    op_failed.push_back(0);
    return op_failed.size() - 1;
  }
  /// Record a check on operations [first, last]; an empty verdict passes.
  bool expect(const std::string& verdict, std::size_t first, std::size_t last) {
    if (verdict.empty()) return true;
    ledger.note("check failed: " + verdict);
    ++ledger.check_failures;
    for (std::size_t i = first; i <= last && i < op_failed.size(); ++i) op_failed[i] = 1;
    return false;
  }
  bool expect(const std::string& verdict, std::size_t op) { return expect(verdict, op, op); }
  void threw(const std::string& what, std::size_t op) {
    ledger.note("threw: " + what);
    op_failed.at(op) = 1;
  }
  /// Fold this round's operations into the ledger.
  void finish() {
    ledger.attempted += op_failed.size();
    for (const char f : op_failed) ledger.failed += f != 0 ? 1 : 0;
    op_failed.clear();
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Run every operation of the workload once, check the outputs, add
  /// host times to `times` and, in a traced round, fill `layers`.
  virtual void round(RoundContext& ctx, StageTimes& times, LayerMetrics& layers) = 0;
};

/// Throws std::invalid_argument on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

/// Counters read from outside a finished scripted scenario, summed over
/// every simulation of a round.
struct ScenarioProbe {
  std::uint64_t nodes{0};
  std::uint64_t events{0};
  std::uint64_t pending_peak{0};
  std::uint64_t broadcasts{0};
  std::uint64_t pair_evaluations{0};
  std::uint64_t batch_lanes{0};
  std::uint64_t batch_culled{0};
  std::uint64_t trace_records{0};
  std::uint64_t ifq_unbalanced{0};  ///< from check_queue_books
  double busy_ratio_sum{0.0};  ///< per-node busy time / duration, summed over nodes
};

/// Run a scenario's event loop to `end` in fixed `slice`s of simulated
/// time with run_until and return the host seconds of the slices alone.
/// After each slice the reference kernel runs its share (untimed here).
/// In a traced round every slice is a span, so host time per simulated
/// second shows where the run spends itself (the route-discovery
/// transient), and the scheduler's pending peak is tracked at every
/// slice end. run() is run_until(duration), so the slicing changes no
/// result (checked: every round's results equal round 0's).
template <typename Scenario>
double run_event_loop(Scenario& scenario, const char* name, eblnet::sim::Time end,
                      eblnet::sim::Time slice, RoundContext& ctx, std::uint64_t& pending_peak) {
  Timed loop{ctx.tracer, name};
  double loop_s = 0.0;
  for (eblnet::sim::Time at = slice;; at = at + slice) {
    const bool last = !(at < end);
    const eblnet::sim::Time until = last ? end : at;
    double slice_s = 0.0;
    {
      Timed s{ctx.tracer, ctx.traced ? "run_until " + std::to_string(until.ns() / 1'000'000'000) + " s"
                                     : std::string{}};
      scenario.run_until(until);
      slice_s = s.stop();
    }
    loop_s += slice_s;
    if (ctx.traced)
      pending_peak = std::max<std::uint64_t>(pending_peak,
                                             scenario.env().scheduler().pending_count());
    {
      Timed k{ctx.tracer, "reference kernel"};
      ctx.reference.after_loop(slice_s);
    }
    if (last) break;
  }
  return loop_s;
}

/// One scripted simulation the way core::run_trial does it, but through
/// the public pieces so each stage is timed on its own: construct, run
/// (sliced into `slice` simulated-time steps in a traced round), fold
/// the residual queue occupancy, core::extract_trial_result, destroy.
/// `before_run` / `after_run` see the live scenario (untimed).
eblnet::core::TrialResult simulate(
    const eblnet::core::ScenarioConfig& cfg, const std::string& name, RoundContext& ctx,
    StageTimes& times, ScenarioProbe& probe, eblnet::sim::Time slice,
    const std::function<void(eblnet::core::EblScenario&)>& before_run = {},
    const std::function<void(eblnet::core::EblScenario&)>& after_run = {});

/// Network-wide totals of the program's metrics registry, summed over
/// the simulations of a round.
using CounterTotals = std::array<std::uint64_t, eblnet::sim::kCounterCount>;
void add_totals(CounterTotals& totals, const eblnet::sim::MetricsSnapshot& m);

/// Check the interface-queue books of every node of a metrics snapshot
/// (the program's registry must have been on) for operation `op`, and
/// return the packets the books are short on the in side, summed over the
/// nodes: tail drops of arrivals that were never counted as enqueued
/// (see checks::queue_books_balance).
std::uint64_t check_queue_books(RoundContext& ctx, std::size_t op,
                                const eblnet::sim::MetricsSnapshot& m);

/// Per-layer metrics every workload shares, from a round's probe and
/// registry totals and its stage times.
void add_scenario_layers(LayerMetrics& layers, const ScenarioProbe& probe,
                         const CounterTotals& totals, const StageTimes& times);

}  // namespace perfbench
