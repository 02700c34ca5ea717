#include "driver/spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

std::vector<int64_t> SelfNanos(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent < 0) continue;
    const SpanRecord& p = spans[s.parent];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[s.parent].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t reach = spans[i].start_ns;
    for (const auto& [lo, hi] : intervals) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::map<std::string, double> SelfSecondsByLayer(
    const std::vector<SpanRecord>& spans) {
  const std::vector<int64_t> self = SelfNanos(spans);
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[LayerOf(spans[i].name)] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  index_ = static_cast<int>(log_->spans_.size());
  log_->spans_.push_back(
      SpanRecord{name, NowNanos(), 0, log_->current_, log_->job_});
  log_->current_ = index_;
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  SpanRecord& s = log_->spans_[index_];
  s.end_ns = NowNanos();
  log_->current_ = s.parent;
}

std::string SpanLog::ToChromeTrace(const std::string& meta_json) const {
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"metadata\":" + meta_json + ",\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"job\":%d}}",
                  i == 0 ? "" : ",", s.name.c_str(), LayerOf(s.name).c_str(),
                  static_cast<double>(s.start_ns - base) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, s.job);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
