// The benchmark's own test: every correctness check accepts a right
// value and reports a violation for a wrong one. Run with --selftest.
#include <cmath>
#include <iostream>
#include <limits>
#include <string>

#include "checks.hpp"

namespace perfbench {

int run_selftest() {
  using namespace checks;
  int failures = 0;
  int cases = 0;
  const auto expect_pass = [&](const char* what, const Verdict& v) {
    ++cases;
    if (!v.empty()) {
      ++failures;
      std::cerr << "selftest: " << what << " rejected a right value: " << v << '\n';
    }
  };
  const auto expect_fail = [&](const char* what, const Verdict& v) {
    ++cases;
    if (v.empty()) {
      ++failures;
      std::cerr << "selftest: " << what << " accepted a wrong value\n";
    }
  };

  // TDMA: one 8000-bit packet per 87 ms frame over 10 s.
  expect_pass("tdma capacity", throughput_within_capacity("t", 8000.0 * 115, 10.0, 0.087, 8000.0));
  expect_fail("tdma capacity", throughput_within_capacity("t", 8000.0 * 120, 10.0, 0.087, 8000.0));
  expect_fail("tdma capacity", throughput_within_capacity("t", 2.0 * 8000.0 * 115, 10.0, 0.087,
                                                          8000.0));
  expect_pass("delay >= airtime", delay_at_least_airtime("d", 1.6e-3, 1.6e-3));
  expect_fail("delay >= airtime", delay_at_least_airtime("d", 1.5e-3, 1.6e-3));
  expect_fail("delay >= airtime", delay_at_least_airtime("d", -1.0, 1.6e-3));

  expect_pass("ratio near 1", ratio_near("r", 1.08, 1.0, 0.1));
  expect_fail("ratio near 1", ratio_near("r", 1.11, 1.0, 0.1));
  expect_pass("ratio near 2", ratio_near("r", 1.85, 2.0, 0.1));
  expect_fail("ratio near 2", ratio_near("r", 1.0, 2.0, 0.1));
  expect_fail("ratio near 2", ratio_near("r", std::nan(""), 2.0, 0.1));
  expect_pass("at least", at_least("a", 10.0, 10.0));
  expect_fail("at least", at_least("a", 9.99, 10.0));
  expect_pass("at most", at_most("a", 5.0, 5.0));
  expect_fail("at most", at_most("a", 5.01, 5.0));
  expect_pass("equal", equal_u64("e", 30, 30));
  expect_fail("equal", equal_u64("e", 29, 30));

  expect_pass("queue books", queue_books_balance("q", 100, 100, 0));
  expect_pass("queue books", queue_books_balance("q", 100, 107, 7));
  expect_fail("queue books", queue_books_balance("q", 100, 101, 0));
  expect_fail("queue books", queue_books_balance("q", 100, 99, 3));
  expect_fail("queue books", queue_books_balance("q", 100, 108, 7));

  // 50 mph over a 5 m headway: 0.3 s consumes the gap, 0.05 s does not.
  expect_pass("verdict", verdict_is("v", 22.352, 5.0, 0.3, "gap consumed"));
  expect_fail("verdict", verdict_is("v", 22.352, 5.0, 0.05, "gap consumed"));
  expect_pass("verdict", verdict_is("v", 22.352, 5.0, 0.05, "in time"));
  expect_fail("verdict", verdict_is("v", 22.352, 5.0, 0.3, "in time"));

  expect_pass("periodic count", periodic_count("p", 200, 20.0, 10.0));
  expect_fail("periodic count", periodic_count("p", 201, 20.0, 10.0));
  expect_fail("periodic count", periodic_count("p", 199, 20.0, 10.0));
  expect_pass("periodic count", periodic_count("p", 24, 4.9, 5.0));
  expect_pass("periodic count", periodic_count("p", 25, 4.9, 5.0));
  expect_fail("periodic count", periodic_count("p", 26, 4.9, 5.0));

  expect_pass("los same arm", line_of_sight(0, -50, 0, -300, 6) ? "" : "blocked");
  expect_pass("los via crossing", line_of_sight(2, 3, 200, 0, 6) ? "" : "blocked");
  expect_fail("nlos round the corner", line_of_sight(0, -50, 50, 0, 6) ? "" : "blocked");

  const double theory = jam_wave_speed_mps(5.0, 2.0, 1.5);
  expect_pass("jam wave theory", std::fabs(theory + 7.0 / 1.5) < 1e-12 ? "" : "wrong formula");
  expect_pass("wave band", wave_speed_in_band(-4.25, theory, 0.2));
  expect_fail("wave band", wave_speed_in_band(-3.0, theory, 0.2));
  expect_fail("wave band", wave_speed_in_band(4.25, theory, 0.2));
  expect_fail("wave band", wave_speed_in_band(-9.0, theory, 0.2));

  std::cerr << "selftest: " << cases - failures << "/" << cases << " cases passed\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
