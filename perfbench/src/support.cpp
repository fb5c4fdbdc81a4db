#include "support.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

int Tracer::begin(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_ns = now_ns();
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int span) {
  spans_.at(static_cast<std::size_t>(span)).end_ns = now_ns();
  // Spans nest strictly (RAII), so the closing span is the innermost one.
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

namespace {

void write_escaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

}  // namespace

void Tracer::write_chrome(const std::filesystem::path& path) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream f{path};
  if (!f) throw std::runtime_error{"cannot write " + path.string()};
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i == 0 ? "" : ",\n") << "{\"name\":";
    write_escaped(f, s.name);
    f << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.run << ",\"ts\":" << s.start_ns / 1000.0
      << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0 << ",\"args\":{\"id\":" << i
      << ",\"parent\":" << s.parent << ",\"run\":" << s.run << "}}";
  }
  f << "\n]}\n";
}

namespace {

struct Fnv {
  std::uint64_t h{0xcbf29ce484222325ULL};
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

}  // namespace

std::uint64_t fingerprint(const eblnet::core::TrialResult& r) {
  Fnv f;
  for (const auto* flow : {&r.p1_middle, &r.p1_trailing, &r.p2_middle, &r.p2_trailing}) {
    f.mix(std::uint64_t{flow->size()});
    for (const eblnet::trace::DelaySample& s : *flow) {
      f.mix(s.seq);
      f.mix(static_cast<std::uint64_t>(s.sent.ns()));
      f.mix(static_cast<std::uint64_t>(s.received.ns()));
    }
  }
  for (const auto* ts : {&r.p1_throughput, &r.p2_throughput}) {
    f.mix(std::uint64_t{ts->size()});
    for (const auto& p : ts->points()) {
      f.mix(static_cast<std::uint64_t>(p.t.ns()));
      f.mix(p.value);
    }
  }
  return f.h;
}

std::uint64_t fingerprint(const eblnet::core::TrafficRunResult& r) {
  Fnv f;
  f.mix(r.penetration);
  f.mix(r.vehicles_spawned);
  f.mix(r.equipped);
  f.mix(r.warnings_originated);
  f.mix(r.warning_receptions);
  f.mix(r.reactions);
  f.mix(r.shockwave_speed_mps);
  f.mix(r.shockwave_points);
  f.mix(r.congestion_onset_s);
  f.mix(r.slowed_vehicles);
  f.mix(r.final_mean_speed_mps);
  f.mix(r.events_executed);
  return f.h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
