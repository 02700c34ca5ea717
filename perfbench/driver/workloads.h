#ifndef FRONTIERS_PERFBENCH_WORKLOADS_H_
#define FRONTIERS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver/spans.h"

namespace perfbench {

/// Per-layer samples gathered during a run: one value per job (or per
/// call) under a metric name, with the metric's unit.
class Tally {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, std::vector<double>>& series() const {
    return series_;
  }
  const std::string& Unit(const std::string& name) const;

 private:
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, std::string> units_;
};

/// Where a workload reports: spans (nullptr when the job is untraced) and
/// per-layer samples.  `warm_up` marks the run's untimed first job.
struct Probe {
  SpanLog* log = nullptr;
  Tally* tally = nullptr;
  bool warm_up = false;
};

/// Workload scale: the full size the benchmark measures, or a tiny size
/// that runs every code path and check in well under a second.
enum class Size { kFull, kSmoke };

/// One benchmark workload.  The runner calls Setup (repeatedly, timing it),
/// Prepare once, then Setup + Job + Check + Release per job.  Job holds only the timed calls
/// into the engine; Check verifies the job's output against the paper's
/// numbers and throws std::runtime_error on any mismatch.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Parses the rendered inputs and constructs engines from scratch,
  /// replacing any previous state.  Records tgd.parse_s.
  virtual void Setup(Tally& tally) = 0;
  /// Untimed work done once before the warm-up job (reference runs).
  virtual void Prepare() {}
  virtual void Job(Probe& probe) = 0;
  virtual void Check(Probe& probe) = 0;
  /// Drops the last job's output before the next job starts.
  virtual void Release() {}
  /// Worker threads the workload's jobs use.
  virtual uint32_t Threads() const { return 1; }
};

/// Builds workload `name` with inputs rendered from `seed`; nullptr for an
/// unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       Size size);

}  // namespace perfbench

#endif  // FRONTIERS_PERFBENCH_WORKLOADS_H_
