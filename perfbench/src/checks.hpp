// Correctness checks against truths that do not come from the simulator:
// closed-form capacity and airtime bounds, conservation identities, the
// paper's published findings and the traffic-flow theory of the jam wave.
// Each check is a pure function of plain numbers and returns an empty
// string when it holds, or a description of the violation. The selftest
// (selftest.cpp, run with --selftest) feeds every check a wrong value and expects a
// violation back.
#pragma once

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>

namespace perfbench::checks {

using Verdict = std::string;

template <typename... Args>
Verdict fail(const Args&... parts) {
  std::ostringstream os;
  os.precision(9);
  (os << ... << parts);
  return os.str();
}

/// A medium that carries at most one packet of `packet_bits` per
/// `per_packet_s` (a TDMA frame for one sender; one data+ACK exchange on
/// 802.11) cannot deliver more than window/per_packet + 1 packets'
/// worth of bits in `window_s`.
inline Verdict throughput_within_capacity(const char* what, double delivered_bits,
                                          double window_s, double per_packet_s,
                                          double packet_bits) {
  const double cap = packet_bits * (window_s / per_packet_s + 1.0);
  if (delivered_bits <= cap) return {};
  return fail(what, ": delivered ", delivered_bits, " bits in ", window_s, " s exceeds ", cap,
              " bits (one ", packet_bits, "-bit packet per ", per_packet_s, " s)");
}

/// No packet arrives before its own frame has been on the air.
inline Verdict delay_at_least_airtime(const char* what, double min_delay_s, double airtime_s) {
  if (min_delay_s >= airtime_s) return {};
  return fail(what, ": one-way delay ", min_delay_s, " s is below the frame airtime ", airtime_s,
              " s");
}

/// `value` lies within `rel` of `target` (|value/target - 1| <= rel).
inline Verdict ratio_near(const char* what, double value, double target, double rel) {
  if (std::isfinite(value) && std::fabs(value / target - 1.0) <= rel) return {};
  return fail(what, ": ", value, " is not within ", rel * 100.0, " % of ", target);
}

inline Verdict at_least(const char* what, double value, double floor) {
  if (value >= floor) return {};
  return fail(what, ": ", value, " < ", floor);
}

inline Verdict at_most(const char* what, double value, double ceiling) {
  if (value <= ceiling) return {};
  return fail(what, ": ", value, " > ", ceiling);
}

inline Verdict equal_u64(const char* what, std::uint64_t got, std::uint64_t want) {
  if (got == want) return {};
  return fail(what, ": got ", got, ", expected ", want);
}

/// Interface-queue books of one node: every packet counted in (enqueued,
/// or refused as corrupt) went out (dequeued, dropped, flushed by routing
/// or by a fault) or is still queued. A tail drop of an arriving packet
/// counts as dropped without counting as enqueued, so the out side may
/// exceed the in side by at most the drops; with no drops the books
/// balance exactly. The excess is reported as queue.unbalanced, to be
/// read against queue.dropped.
inline Verdict queue_books_balance(const char* what, std::uint64_t in, std::uint64_t out,
                                   std::uint64_t dropped) {
  if (out >= in && out - in <= dropped) return {};
  return fail(what, ": ", in, " packets in, ", out, " out, ", dropped, " of them dropped");
}

/// The paper's §III.E verdict: the follower covers the whole headway
/// before the first EBL packet arrives ("gap consumed") or not ("in time").
inline const char* stopping_verdict(double speed_mps, double headway_m, double init_delay_s) {
  return speed_mps * init_delay_s / headway_m >= 1.0 ? "gap consumed" : "in time";
}

inline Verdict verdict_is(const char* what, double speed_mps, double headway_m,
                          double init_delay_s, const std::string& want) {
  const std::string got = stopping_verdict(speed_mps, headway_m, init_delay_s);
  if (got == want) return {};
  return fail(what, ": verdict \"", got, "\" (initial delay ", init_delay_s, " s), expected \"",
              want, "\"");
}

/// A periodic sender active for `duration_s` at `rate_hz` sends
/// floor(D·r) or ceil(D·r) messages, whatever its phase.
inline Verdict periodic_count(const char* what, std::uint64_t sent, double duration_s,
                              double rate_hz) {
  const double dr = duration_s * rate_hz;
  const auto lo = static_cast<std::uint64_t>(std::floor(dr));
  const auto hi = static_cast<std::uint64_t>(std::ceil(dr));
  if (sent == lo || sent == hi) return {};
  return fail(what, ": sent ", sent, " messages, expected ", lo, " or ", hi);
}

/// Line of sight at a four-way crossing of two corridors of half-width
/// `hw` centred on the origin (buildings fill the four corners): both
/// ends on the same corridor, or either end inside the crossing itself.
inline bool line_of_sight(double ax, double ay, double bx, double by, double hw) {
  const bool a_ns = std::fabs(ax) <= hw, a_ew = std::fabs(ay) <= hw;
  const bool b_ns = std::fabs(bx) <= hw, b_ew = std::fabs(by) <= hw;
  return (a_ns && a_ew) || (b_ns && b_ew) || (a_ns && b_ns) || (a_ew && b_ew);
}

/// Car-following theory: a jam front travels upstream at -(L + s0)/T,
/// the standstill spacing passed along once per time headway.
inline double jam_wave_speed_mps(double length_m, double min_gap_m, double headway_s) {
  return -(length_m + min_gap_m) / headway_s;
}

inline Verdict wave_speed_in_band(double fitted_mps, double theory_mps, double band) {
  if (fitted_mps < 0.0 && std::fabs(fitted_mps - theory_mps) <= band * std::fabs(theory_mps))
    return {};
  return fail("shockwave speed ", fitted_mps, " m/s is not negative and within ", band * 100.0,
              " % of the theoretical ", theory_mps, " m/s");
}

}  // namespace perfbench::checks
