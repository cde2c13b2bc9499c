#pragma once

#include <chrono>

/// Wall-clock timing utilities.
///
/// Bench binaries report two time axes: measured wall seconds for runs that
/// fit this host, and modeled seconds from pgas::MachineModel for the
/// paper-scale axes. WallTimer provides the former.
namespace hipmer::util {

/// Monotonic stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

}  // namespace hipmer::util
