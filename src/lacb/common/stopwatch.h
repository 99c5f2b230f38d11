// Wall-clock stopwatch used by the engine to time assignment batches.

#ifndef LACB_COMMON_STOPWATCH_H_
#define LACB_COMMON_STOPWATCH_H_

#include <chrono>

namespace lacb {

/// \brief Monotonic wall-clock timer.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// \brief Resets the start point to now.
  void Restart() { start_ = Clock::now(); }

  /// \brief Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace lacb

#endif  // LACB_COMMON_STOPWATCH_H_
