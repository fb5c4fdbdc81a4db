// The reference kernel: a fixed piece of event-driven work that belongs to
// the benchmark, not to the program, run in short chunks between the
// slices of the program's event loops on the same thread. Its event rate
// says how fast the host runs this kind of code at that moment, so an
// event-loop time multiplied by it no longer carries the slowdowns that
// other tenants of a shared host cause, while every change to the
// program's own speed still shows in full.
#pragma once

#include <cstdint>
#include <memory>

namespace perfbench {

class Reference {
 public:
  Reference();
  ~Reference();
  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  /// Credit `loop_s` host seconds of event loop; once a chunk's worth has
  /// built up, run the kernel in proportion to the credited time.
  void after_loop(double loop_s);

  struct Tally {
    std::uint64_t events{0};
    double seconds{0.0};
    /// Reference events per host second over the tally (0 when empty).
    double rate() const { return seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0; }
  };
  /// Run what is still credited, then return and reset the tally.
  Tally take();

 private:
  void run_chunk();

  struct State;
  std::unique_ptr<State> state_;
  double credit_s_{0.0};
  Tally tally_;
};

}  // namespace perfbench
