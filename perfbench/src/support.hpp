// Shared machinery of the benchmark: wall clocks, in-memory spans with a
// Chrome trace-event export, per-layer metric maps, the failure ledger
// and the physical-result fingerprints the oracles compare.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/traffic_scenario.hpp"
#include "core/trial.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Spans recorded around calls into the program's public entry points.
/// Kept in memory (one vector push per span) and written once at exit.
/// When tracing is off, begin/end only read the clock.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns{0};
    std::int64_t end_ns{0};
    int parent{-1};  ///< index of the enclosing span, -1 at top level
    int run{0};      ///< operation (simulated run / cache load) the span belongs to
  };

  explicit Tracer(Clock::time_point origin) : origin_{origin} {}

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const noexcept { return enabled_; }
  /// Spans recorded from now on belong to a new operation.
  void new_run() { ++run_; }

  int begin(std::string name);
  void end(int span);

  /// Chrome trace-event JSON ("X" complete events, microseconds), one
  /// track per operation; the parent index rides in `args`.
  void write_chrome(const std::filesystem::path& path) const;

 private:
  std::int64_t now_ns() const;

  Clock::time_point origin_;
  bool enabled_{false};
  int run_{0};
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times one call and records it as a span. The elapsed seconds are
/// available whether or not tracing is on.
class Timed {
 public:
  Timed(Tracer& tracer, std::string name)
      : tracer_{tracer}, span_{tracer.enabled() ? tracer.begin(std::move(name)) : -1},
        start_{Clock::now()} {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  /// Ends the span (idempotent) and returns the elapsed seconds.
  double stop() {
    if (!stopped_) {
      elapsed_ = seconds_between(start_, Clock::now());
      if (span_ >= 0) tracer_.end(span_);
      stopped_ = true;
    }
    return elapsed_;
  }

 private:
  Tracer& tracer_;
  int span_;
  Clock::time_point start_;
  double elapsed_{0.0};
  bool stopped_{false};
};

/// Host time of one round of a workload, summed over its operations.
struct StageTimes {
  double setup_s{0.0};     ///< scenario constructors
  double run_s{0.0};       ///< serial event loops (run / run_until)
  double analysis_s{0.0};  ///< extract_trial_result / TrafficScenario::result
  double teardown_s{0.0};  ///< scenario destructors
  double store_s{0.0};     ///< RunCache::store
  double load_s{0.0};      ///< RunCache::load on a warm cache
  double sharded_s{0.0};   ///< run_sharded_trial, whole call
};

/// Per-layer metrics of one traced round, `<module>.<metric>` -> value.
using LayerMetrics = std::map<std::string, double>;

/// Operation ledger of a run: every simulated run and cache load is one
/// operation; it fails if it threw or if a check on its output failed.
struct Ledger {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::uint64_t check_failures{0};
  std::vector<std::string> messages;  ///< first few failures, for stderr

  void note(const std::string& what) {
    if (messages.size() < 20) messages.push_back(what);
  }
};

/// FNV-1a over every physical observable of a trial: the delay samples
/// of all four flows and both throughput series. Scheduler event totals
/// are left out: seam replays are extra events by design.
std::uint64_t fingerprint(const eblnet::core::TrialResult& r);
/// FNV-1a over every field of a traffic row except its name.
std::uint64_t fingerprint(const eblnet::core::TrafficRunResult& r);

/// Median of a sample (mean of the two middle values when even; 0 when empty).
double median(std::vector<double> v);

}  // namespace perfbench
