#ifndef FRONTIERS_PERFBENCH_SPANS_H_
#define FRONTIERS_PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call, recorded by the benchmark around a call into a layer of
/// the engine.  Spans form a tree through `parent` (an index into the same
/// log, -1 for a root); every span of one job shares the job's `job` id.
struct SpanRecord {
  std::string name;   ///< "<layer>.<call>", e.g. "chase.run".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int job = 0;
};

/// The layer of a span: its name up to the first '.'.
std::string LayerOf(const std::string& span_name);

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children are clipped to the parent and
/// overlapping children are counted once).  Parallel to `spans`.
std::vector<int64_t> SelfNanos(const std::vector<SpanRecord>& spans);

/// Self time summed per layer, in seconds.
std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<SpanRecord>& spans);

/// Spans kept in memory and written out when the run ends.  Recording is
/// single-threaded: the benchmark opens spans only on its own thread,
/// around whole calls into the engine.
class SpanLog {
 public:
  /// RAII span; a default-constructed log pointer (nullptr) records
  /// nothing, so untraced runs pay one branch per call site.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  void set_job(int job) { job_ = job; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Chrome trace-event JSON ("X" events, microseconds) with `meta` as
  /// top-level metadata (a JSON object literal).
  std::string ToChromeTrace(const std::string& meta_json) const;

 private:
  std::vector<SpanRecord> spans_;
  int current_ = -1;
  int job_ = 0;
};

/// Monotonic clock in nanoseconds.
int64_t NowNanos();

}  // namespace perfbench

#endif  // FRONTIERS_PERFBENCH_SPANS_H_
