#include "driver/calibration.h"

#include <signal.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <numeric>
#include <utility>

namespace perfbench {
namespace {

// 32 KiB of indices: the cycle stays in the L1 data cache, whose sets are
// indexed within a page, so the physical pages the process happens to get
// cannot change a pass's time.  (A 1 MiB cycle, which lives in L2, ran
// 2-6% slower for the whole life of four processes in forty, most likely
// through cache-set conflicts.)  Walked 8 times per pass, about 0.11 ms
// on an idle 2.0 GHz Xeon VM.
constexpr uint32_t kCycleLength = 1u << 13;
constexpr uint32_t kStepsPerPass = 1u << 16;
constexpr long kSampleIntervalNs = 5'000'000;

int64_t MonotonicNanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// State the signal handler writes.  The handler interrupts the sampled
// thread itself, so lock-free atomics suffice to read it at any time.
std::atomic<const ReferenceLoop*> g_loop{nullptr};
std::atomic<bool> g_active{false};
std::atomic<size_t> g_samples{0};
std::atomic<double> g_speed_sum{0.0};  // sum of 1 / pass seconds
std::atomic<int64_t> g_handler_ns{0};
std::atomic<uint64_t> g_sink{0};
static_assert(std::atomic<double>::is_always_lock_free &&
              std::atomic<int64_t>::is_always_lock_free);

void OnSample(int) {
  const ReferenceLoop* loop = g_loop.load(std::memory_order_relaxed);
  if (!g_active.load(std::memory_order_relaxed) || loop == nullptr) return;
  const int saved_errno = errno;  // the interrupted code may be reading it
  const int64_t start = MonotonicNanos();
  g_sink.store(loop->Pass(), std::memory_order_relaxed);
  const int64_t end = MonotonicNanos();
  if (end > start) {
    g_samples.store(g_samples.load(std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
    g_speed_sum.store(g_speed_sum.load(std::memory_order_relaxed) +
                          1e9 / static_cast<double>(end - start),
                      std::memory_order_relaxed);
  }
  g_handler_ns.store(g_handler_ns.load(std::memory_order_relaxed) +
                         (MonotonicNanos() - start),
                     std::memory_order_relaxed);
  errno = saved_errno;
}

}  // namespace

ReferenceLoop::ReferenceLoop() : next_(kCycleLength) {
  // Sattolo's shuffle with a fixed xorshift: one cycle through every slot,
  // in an order the prefetcher cannot follow.
  std::vector<uint32_t> order(kCycleLength);
  std::iota(order.begin(), order.end(), 0u);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (uint32_t i = kCycleLength - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(order[i], order[x % i]);
  }
  for (uint32_t i = 0; i < kCycleLength; ++i) {
    next_[order[i]] = order[(i + 1) % kCycleLength];
  }
}

uint64_t ReferenceLoop::Pass() const {
  uint32_t at = 0;
  uint64_t h = 0xCBF29CE484222325ull;
  uint64_t odd = 0;
  for (uint32_t step = 0; step < kStepsPerPass; ++step) {
    at = next_[at];
    h = (h ^ at) * 0x100000001B3ull;
    if ((h >> 61) & 1) ++odd;
  }
  return h + odd;
}

double ReferenceLoop::Seconds(int passes) {
  double best = 0.0;
  for (int i = 0; i < passes; ++i) {
    const int64_t start = MonotonicNanos();
    g_sink.store(Pass(), std::memory_order_relaxed);
    const double seconds =
        static_cast<double>(MonotonicNanos() - start) * 1e-9;
    if (i == 0 || seconds < best) best = seconds;
  }
  return best;
}

SpeedSampler::SpeedSampler() {
  g_loop.store(&loop_);
  struct sigaction action {};
  action.sa_handler = OnSample;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGRTMIN, &action, nullptr);
  sigevent event{};
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGRTMIN;
  event._sigev_un._tid = static_cast<pid_t>(syscall(SYS_gettid));
  have_timer_ = timer_create(CLOCK_MONOTONIC, &event, &timer_) == 0;
}

SpeedSampler::~SpeedSampler() {
  Stop();
  if (have_timer_) timer_delete(timer_);
  g_loop.store(nullptr);
}

void SpeedSampler::Start() {
  g_samples.store(0);
  g_speed_sum.store(0.0);
  g_handler_ns.store(0);
  g_active.store(true);
  if (!have_timer_) return;
  itimerspec spec{};
  spec.it_value.tv_nsec = kSampleIntervalNs;
  spec.it_interval.tv_nsec = kSampleIntervalNs;
  timer_settime(timer_, 0, &spec, nullptr);
}

void SpeedSampler::Stop() {
  g_active.store(false);
  if (!have_timer_) return;
  itimerspec off{};
  timer_settime(timer_, 0, &off, nullptr);
}

size_t SpeedSampler::samples() const { return g_samples.load(); }

double SpeedSampler::PassSeconds() const {
  const size_t samples = g_samples.load();
  return samples == 0 ? 0.0
                      : static_cast<double>(samples) / g_speed_sum.load();
}

double SpeedSampler::HandlerSeconds() const {
  return static_cast<double>(g_handler_ns.load()) * 1e-9;
}

}  // namespace perfbench
