#ifndef FRONTIERS_PERFBENCH_CALIBRATION_H_
#define FRONTIERS_PERFBENCH_CALIBRATION_H_

#include <time.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A fixed amount of work that measures how fast a core runs right now.
/// On a shared host the same job takes up to twice as long when the
/// neighbours are busy; dividing a job's time by the time of this loop,
/// measured on the job's own thread while the job runs (SpeedSampler),
/// cancels much of that.
///
/// One pass is a dependent walk of 2^16 steps around a 32 KiB cycle of
/// indices with integer mixing per step: load-latency-bound, so its time
/// scales with the core's clock.  It calls no engine code, so a change to
/// the engine cannot move it.
class ReferenceLoop {
 public:
  /// One pass on the idle machine the benchmark was tuned on (a KVM guest
  /// on a 2.0 GHz Xeon, model 143): the speed that calibrated seconds
  /// (setup_s) are expressed at.
  static constexpr double kIdlePassSeconds = 1.095e-4;

  ReferenceLoop();

  /// Seconds one pass takes now: the fastest of `passes` passes, so a pass
  /// that another process preempted does not count.
  double Seconds(int passes = 3);

  /// One pass; allocates nothing, so a signal handler may call it.  The
  /// result mixes every step's index: equal on every pass and machine, so
  /// a compiler cannot drop the walk and a test can check the work is
  /// fixed.
  uint64_t Pass() const;

 private:
  std::vector<uint32_t> next_;
};

/// Samples the speed of the calling thread's core while a job runs: a
/// POSIX timer signals the thread every 5 ms and the handler times one
/// pass of a ReferenceLoop.  On the shared host measured, the slowdown
/// comes and goes within a second and differs between cores (the same
/// loop on another thread did not correlate with the job at all), so the
/// samples are taken on the job's own thread, spread through the job.  The
/// handler's time is reported so it can be taken off the job's time.
///
/// At most one sampler may exist at a time; Start and Stop must be called
/// from the thread that constructed it.
class SpeedSampler {
 public:
  SpeedSampler();
  ~SpeedSampler();
  SpeedSampler(const SpeedSampler&) = delete;
  SpeedSampler& operator=(const SpeedSampler&) = delete;

  /// Clears the samples and starts the timer.
  void Start();
  /// Stops the timer; later signals are ignored.
  void Stop();

  size_t samples() const;
  /// The pass time at the sampled mean speed (the harmonic mean of the
  /// sampled pass times); 0 with no samples.
  double PassSeconds() const;
  /// Seconds the handler took since Start; may be read while sampling.
  double HandlerSeconds() const;

 private:
  ReferenceLoop loop_;
  timer_t timer_{};
  bool have_timer_ = false;
};

}  // namespace perfbench

#endif  // FRONTIERS_PERFBENCH_CALIBRATION_H_
