// The engine benchmark's driver: runs one workload in this process and
// prints a JSON report as its last line of standard output.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--size full|smoke] [--trace-dir <dir>]
//
// Untraced (--trace 0): set-up is repeated and timed, one warm-up job runs,
// then jobs run until --seconds have passed; every job's output is checked.
// Each job's wall and CPU time is also reported divided by the time of a
// fixed reference loop sampled on the job's thread while the job ran
// (job_ref, cpu_ref; see calibration.h), which cancels much of the shared
// host's drift in core speed.
// Traced (--trace 1): jobs alternate untraced and traced, spans are written
// to <trace-dir>/<workload>.trace.json, and the report carries the
// per-layer metrics, self time per layer and the tracing overhead.
// Exit code: 0 when every check passed, 1 when any job failed, 2 on bad
// arguments.

#include <sys/resource.h>
#include <time.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "driver/calibration.h"
#include "driver/spans.h"
#include "driver/stats.h"
#include "driver/workloads.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

// Set-up takes microseconds, so it is repeated for at least this long: a
// median over a few milliseconds would reflect one moment of host load.
constexpr double kSetupSeconds = 0.5;
constexpr size_t kMinSetupRepetitions = 101;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string trace_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "smoke") return false;
      args.size = value == "smoke" ? Size::kSmoke : Size::kFull;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

// Calls the engine's matcher made; the counter is always on.
uint64_t HomEnumerations() {
  static frontiers::obs::Counter& counter =
      frontiers::obs::DefaultRegistry().GetCounter(
          "frontiers.hom.enumerations");
  return counter.Value();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Fingerprint(uint32_t threads) {
  return "{\"hw_threads\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"cpu_model\":" + JsonString(CpuModel()) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
         ",\"worker_threads\":" + std::to_string(threads) + "}";
}

/// One reported metric: the median of its samples, with the sample count
/// and the tail percentile when the series is long enough.
struct Metric {
  std::string unit;
  Summary summary;
};

class Report {
 public:
  void Add(const std::string& name, const std::vector<double>& samples,
           const std::string& unit) {
    metrics_[name] = Metric{unit, Summarize(samples)};
  }
  void AddValue(const std::string& name, double value,
                const std::string& unit) {
    Add(name, {value}, unit);
  }

  std::string ToJson() const {
    std::string out = "{";
    for (const auto& [name, m] : metrics_) {
      if (out.size() > 1) out += ",";
      out += JsonString(name) + ":{\"value\":" + JsonNumber(m.summary.median) +
             ",\"unit\":" + JsonString(m.unit) +
             ",\"samples\":" + std::to_string(m.summary.count);
      if (m.summary.tail_percentile > 0.0) {
        out += ",\"tail_percentile\":" + JsonNumber(m.summary.tail_percentile) +
               ",\"tail\":" + JsonNumber(m.summary.tail);
      }
      out += "}";
    }
    return out + "}";
  }

 private:
  std::map<std::string, Metric> metrics_;
};

// Layers whose self time the traced run reports; "bench" is the driver's
// own time inside a job (output checks outside any engine call).
constexpr const char* kSelfTimeLayers[] = {"bench", "frontier", "hom",
                                           "rewriting", "chase", "snapshot"};

int Run(const Args& args) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.seed, args.size);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  SpanLog log;
  SpanLog* const trace_log = args.trace ? &log : nullptr;
  Tally setup_tally;   // tgd.parse_s
  Tally layer_tally;   // per-layer samples of traced jobs
  Tally scratch;       // samples of untraced jobs and re-setups, discarded
  std::vector<double> setup_s, job_s, cpu_s, traced_job_s;
  std::vector<double> ref_s, ref_samples, job_ref, cpu_ref;  // calibration.h
  ReferenceLoop reference;
  SpeedSampler sampler;
  size_t attempted = 0, failed = 0;
  std::vector<std::string> failures;

  auto guarded = [&](auto&& body) {
    try {
      body();
      return true;
    } catch (const std::exception& e) {
      ++failed;
      failures.push_back(e.what());
      return false;
    }
  };

  // Set-up: parse the rendered inputs and construct engines, repeatedly,
  // to time it; then the workload's untimed reference run.  Set-up is
  // timed against the reference loop like the jobs are, and reported in
  // seconds at the loop's idle speed (ReferenceLoop::kIdlePassSeconds).
  std::vector<double> setup_raw_s;
  sampler.Start();
  const bool setup_ok = guarded([&] {
    const int64_t phase_start = NowNanos();
    while (setup_raw_s.size() < kMinSetupRepetitions ||
           static_cast<double>(NowNanos() - phase_start) * 1e-9 <
               kSetupSeconds) {
      const double handler_before = sampler.HandlerSeconds();
      const int64_t start = NowNanos();
      workload->Setup(setup_tally);
      setup_raw_s.push_back(static_cast<double>(NowNanos() - start) * 1e-9 -
                            (sampler.HandlerSeconds() - handler_before));
    }
    sampler.Stop();
    const double pass = sampler.samples() > 0 ? sampler.PassSeconds()
                                              : reference.Seconds();
    for (double raw : setup_raw_s) {
      setup_s.push_back(raw * ReferenceLoop::kIdlePassSeconds / pass);
    }
    workload->Prepare();
  });
  sampler.Stop();
  if (!setup_ok) ++attempted;  // the failed set-up stands for the run's jobs

  auto run_job = [&](bool traced, bool warm_up) {
    ++attempted;
    log.set_job(static_cast<int>(attempted));
    Probe probe{traced ? trace_log : nullptr, traced ? &layer_tally : &scratch,
                warm_up};
    // Untraced timed jobs sample the core's speed while they run (see
    // calibration.h); the samples' own time is taken off the job's.
    const bool calibrated = !traced && !warm_up;
    guarded([&] {
      // Every job starts from freshly parsed inputs and engines, so jobs
      // do equal work: none inherits terms interned by an earlier one.
      workload->Setup(scratch);
      double wall = 0.0, cpu = 0.0;
      {
        SpanLog::Scope job(probe.log, "bench.job");
        const uint64_t enumerations_before = HomEnumerations();
        const double cpu_start = CpuSeconds();
        const int64_t start = NowNanos();
        if (calibrated) sampler.Start();
        workload->Job(probe);
        if (calibrated) sampler.Stop();
        wall = static_cast<double>(NowNanos() - start) * 1e-9;
        cpu = CpuSeconds() - cpu_start;
        probe.tally->Add(
            "hom.enumerations",
            static_cast<double>(HomEnumerations() - enumerations_before),
            "count");
        workload->Check(probe);
        workload->Release();
      }
      if (warm_up) return;
      if (traced) {
        traced_job_s.push_back(wall);
        return;
      }
      wall -= sampler.HandlerSeconds();
      cpu -= sampler.HandlerSeconds();
      // A job shorter than the sampling interval is timed against passes
      // run right after it.
      const double ref = sampler.samples() > 0 ? sampler.PassSeconds()
                                               : reference.Seconds();
      job_s.push_back(wall);
      cpu_s.push_back(cpu);
      ref_s.push_back(ref);
      ref_samples.push_back(static_cast<double>(sampler.samples()));
      job_ref.push_back(wall / ref);
      cpu_ref.push_back(cpu / ref);
    });
  };

  if (setup_ok) {
    run_job(/*traced=*/false, /*warm_up=*/true);
    const int64_t loop_start = NowNanos();
    for (size_t i = 0;; ++i) {
      const double elapsed =
          static_cast<double>(NowNanos() - loop_start) * 1e-9;
      const bool have_untraced = !job_s.empty();
      const bool have_traced = !args.trace || !traced_job_s.empty();
      if (elapsed >= args.seconds && have_untraced && have_traced) break;
      if (failed > 0) break;
      run_job(/*traced=*/args.trace && i % 2 == 1, /*warm_up=*/false);
    }
  }

  Report report;
  report.Add("job_s", job_s, "s");
  report.Add("cpu_s", cpu_s, "s");
  report.Add("setup_s", setup_s, "s");
  report.Add("setup_raw_s", setup_raw_s, "s");
  report.Add("ref_s", ref_s, "s");
  report.Add("ref_samples", ref_samples, "count");
  report.Add("job_ref", job_ref, "ref");
  report.Add("cpu_ref", cpu_ref, "ref");
  report.AddValue("peak_rss_mib", PeakRssMiB(), "MiB");
  report.AddValue("fail_ratio",
                  static_cast<double>(failed) / static_cast<double>(attempted),
                  "ratio");
  if (args.trace) {
    for (const auto& [name, samples] : setup_tally.series()) {
      report.Add(name, samples, setup_tally.Unit(name));
    }
    for (const auto& [name, samples] : layer_tally.series()) {
      report.Add(name, samples, layer_tally.Unit(name));
    }
    report.Add("trace.job_s", traced_job_s, "s");
    const Summary traced = Summarize(traced_job_s);
    const Summary untraced = Summarize(job_s);
    report.AddValue("trace.overhead_ratio",
                    untraced.median > 0.0 ? traced.median / untraced.median
                                          : 0.0,
                    "ratio");
    const std::map<std::string, double> self =
        SelfSecondsByLayer(log.spans());
    const double jobs = static_cast<double>(traced_job_s.size());
    for (const char* layer : kSelfTimeLayers) {
      const auto it = self.find(layer);
      const double total = it == self.end() ? 0.0 : it->second;
      report.AddValue(std::string("self.") + layer + "_s",
                      jobs > 0.0 ? total / jobs : 0.0, "s");
    }
  }

  const std::string fingerprint = Fingerprint(workload->Threads());
  if (args.trace) {
    const std::string path =
        args.trace_dir + "/" + args.workload + ".trace.json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << log.ToChromeTrace("{\"workload\":" + JsonString(args.workload) +
                             ",\"seed\":" + std::to_string(args.seed) +
                             ",\"fingerprint\":" + fingerprint + "}");
    if (!out) {
      std::fprintf(stderr, "cannot write trace file %s\n", path.c_str());
    }
  }

  std::string failure_list = "[";
  for (size_t i = 0; i < failures.size(); ++i) {
    if (i > 0) failure_list += ",";
    failure_list += JsonString(failures[i]);
  }
  failure_list += "]";
  std::printf(
      "{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"fingerprint\":%s,"
      "\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"failures\":%s,"
      "\"metrics\":%s}\n",
      JsonString(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0,
      fingerprint.c_str(), failed == 0 ? "true" : "false", attempted, failed,
      failure_list.c_str(), report.ToJson().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--size full|smoke] [--trace-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
