// eblnet_perfbench: runs one named workload for a given number of host
// seconds in whole rounds, checks every output, and prints one JSON line
// with the operations attempted and failed and the metrics.
//
//   eblnet_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--work-dir <dir>] [--trace-out <file>]
//   eblnet_perfbench --selftest
//
// --trace 0 prints the end-to-end metrics: the cold set-up of the first
// round, the event loops' host time in reference-kernel work (median over
// rounds) and the peak resident set. --trace 1 alternates plain
// and traced rounds and prints the per-layer metrics of the traced ones,
// plus the tracing overhead; the spans go to --trace-out as Chrome
// trace-event JSON. Metrics are printed as name -> value; run.py adds
// the units and the per-layer names a workload leaves out from
// BENCHMARK.json.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "support.hpp"
#include "workload.hpp"

namespace perfbench {
int run_selftest();
}

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::filesystem::path work_dir{".bench_build/work"};
  std::filesystem::path trace_out;
  bool selftest{false};
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument{"missing value for " + k};
      return argv[++i];
    };
    if (k == "--workload") a.workload = value();
    else if (k == "--seed") a.seed = std::stoull(value());
    else if (k == "--seconds") a.seconds = std::stod(value());
    else if (k == "--trace") a.trace = value() != "0";
    else if (k == "--work-dir") a.work_dir = value();
    else if (k == "--trace-out") a.trace_out = value();
    else if (k == "--selftest") a.selftest = true;
    else throw std::invalid_argument{"unknown argument " + k};
  }
  if (!a.selftest && a.workload.empty()) throw std::invalid_argument{"--workload is required"};
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

/// The fastest round's value of one stage. Other tenants of the host
/// only ever add time to a round, so of raw host times the fastest
/// round's is the steadiest estimate of what the program itself costs.
double fastest(const std::vector<StageTimes>& rounds, double StageTimes::*stage) {
  double best = rounds.front().*stage;
  for (const StageTimes& t : rounds) best = std::min(best, t.*stage);
  return best;
}

/// Taken while the executable's statics are initialised, before main:
/// the cold set-up is timed from here.
const Clock::time_point process_start = Clock::now();

int run(const Args& args) {
  Tracer tracer{process_start};
  Ledger ledger;
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
  const std::filesystem::path work_dir =
      args.work_dir / (args.workload + "-" + std::to_string(getpid()));
  std::filesystem::remove_all(work_dir);
  std::filesystem::create_directories(work_dir);

  std::vector<StageTimes> plain;
  std::vector<StageTimes> traced;
  std::vector<LayerMetrics> layer_rounds;
  // Rounds start only while a round as fast as the fastest so far still
  // ends within --seconds, so a run measures about --seconds.
  const Clock::time_point loop_start = Clock::now();
  // Built after set-up is timed: its state is the benchmark's, not the program's.
  Reference reference;
  std::vector<double> plain_work;    // run_s x reference rate per plain round, Mref
  std::vector<double> plain_ref_ns;  // reference kernel ns per event per plain round
  double fastest_round_s = 1e300;
  for (int r = 0;; ++r) {
    const Clock::time_point round_start = Clock::now();
    const bool traced_round = args.trace && r % 2 == 1;
    tracer.set_enabled(traced_round);
    RoundContext ctx{r, traced_round, tracer, ledger, reference, work_dir, {}};
    StageTimes times;
    LayerMetrics layers;
    workload->round(ctx, times, layers);
    ctx.finish();
    const Reference::Tally ref = reference.take();
    const double work = times.run_s * ref.rate() / 1e6;
    (traced_round ? traced : plain).push_back(times);
    if (!traced_round) {
      plain_work.push_back(work);
      plain_ref_ns.push_back(1e9 / ref.rate());
    }
    std::cerr << args.workload << " round " << r << (traced_round ? " (traced)" : "")
              << ": setup " << times.setup_s << " s, run " << times.run_s << " s, analysis "
              << times.analysis_s << " s, teardown " << times.teardown_s << " s, store "
              << times.store_s << " s, load " << times.load_s << " s, sharded "
              << times.sharded_s << " s; reference kernel " << ref.events << " events in "
              << ref.seconds << " s; run " << work << " Mref\n";
    if (traced_round) layer_rounds.push_back(std::move(layers));

    const Clock::time_point now = Clock::now();
    fastest_round_s = std::min(fastest_round_s, seconds_between(round_start, now));
    const bool enough = seconds_between(loop_start, now) + fastest_round_s > args.seconds;
    if (enough && (!args.trace || !traced.empty())) break;
  }
  tracer.set_enabled(false);
  std::filesystem::remove_all(work_dir);

  for (const std::string& m : ledger.messages) std::cerr << args.workload << ": " << m << '\n';

  LayerMetrics metrics;
  if (!args.trace) {
    // Cold set-up: from the start of this process to the first round, plus
    // the first round's scenario constructors.
    metrics["setup_s"] = seconds_between(process_start, loop_start) + plain.front().setup_s;
    // The event loops' host time times the reference kernel's event rate
    // measured between their slices: what the loops cost in reference
    // events, which a slowdown of the whole host moves far less than it
    // moves the raw host time.
    metrics["run_work"] = median(plain_work);
    metrics["peak_rss_mb"] = peak_rss_mb();
  } else {
    // Each per-layer metric is the median over the traced rounds; the
    // tracing overhead is the fastest traced run_s over the fastest plain
    // one; the raw run_s and the reference kernel's cost per event are
    // medians over the plain rounds.
    for (const LayerMetrics& l : layer_rounds)
      for (const auto& [name, value] : l) metrics[name] = 0.0;
    for (auto& [name, value] : metrics) {
      std::vector<double> v;
      for (const LayerMetrics& l : layer_rounds) {
        const auto it = l.find(name);
        v.push_back(it == l.end() ? 0.0 : it->second);
      }
      value = median(v);
    }
    metrics["bench.metrics_overhead"] =
        fastest(traced, &StageTimes::run_s) / fastest(plain, &StageTimes::run_s);
    std::vector<double> plain_run_s;
    for (const StageTimes& t : plain) plain_run_s.push_back(t.run_s);
    metrics["bench.run_s"] = median(plain_run_s);
    metrics["bench.ref_ns_per_event"] = median(plain_ref_ns);
    if (!args.trace_out.empty()) {
      tracer.write_chrome(args.trace_out);
      std::cerr << "spans written to " << args.trace_out.string() << '\n';
    }
  }

  std::ostringstream out;
  out << "{\"correct\": " << (ledger.check_failures == 0 ? "true" : "false")
      << ", \"attempted\": " << ledger.attempted << ", \"failed\": " << ledger.failed
      << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    out << sep << '"' << name << "\": " << number(value);
    sep = ", ";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.selftest) return perfbench::run_selftest();
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "eblnet_perfbench: " << e.what() << '\n';
    return 2;
  }
}
