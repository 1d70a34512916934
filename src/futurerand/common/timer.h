// Wall-clock timer for harness reporting.

#ifndef FUTURERAND_COMMON_TIMER_H_
#define FUTURERAND_COMMON_TIMER_H_

#include <chrono>

namespace futurerand {

/// Measures elapsed wall time from construction or the last Restart().
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Elapsed seconds, restarting the timer at the same clock read, so
  /// consecutive laps tile the timeline without gaps.
  double LapSeconds() {
    const Clock::time_point now = Clock::now();
    const double seconds = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return seconds;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace futurerand

#endif  // FUTURERAND_COMMON_TIMER_H_
