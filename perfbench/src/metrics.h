// Measurement helpers of the serving benchmark: percentiles, kernel
// counter deltas, benchmark-side spans with a Chrome trace-event export,
// the engine's TRACE table folded per opcode, and the result line.

#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "daemon/wire.h"
#include "monet/bat.h"
#include "monet/profiler.h"

namespace perfbench {

/// Linear-interpolated quantile q in [0, 1] of `v` (0 when empty).
double Quantile(std::vector<double> v, double q);

/// b - a, field by field, for the counters the benchmark reports.
mirror::monet::KernelStats KernelDelta(const mirror::monet::KernelStats& a,
                                       const mirror::monet::KernelStats& b);

/// Histogram percentile from a STATS snapshot, in milliseconds.
double HistP50Ms(const mirror::daemon::wire::HistogramSummary& h);

/// Benchmark-side spans: one id per request, one span per layer call,
/// kept in memory and written as Chrome trace-event JSON at the end.
class SpanLog {
 public:
  SpanLog() : epoch_(std::chrono::steady_clock::now()) {}
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(uint64_t request, const std::string& name, int lane,
           std::chrono::steady_clock::time_point start,
           std::chrono::steady_clock::time_point end);
  /// A span at an explicit offset from `base` (engine spans, whose times
  /// are relative to their query's start).
  void AddAt(uint64_t request, const std::string& name, const std::string& cat,
             int lane, std::chrono::steady_clock::time_point base,
             double start_us, double dur_us);
  bool WriteChrome(const std::string& path) const;
  size_t size() const;

 private:
  struct Span {
    uint64_t request;
    std::string name, cat;
    int lane;
    double ts_us, dur_us;
  };
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Folds one TRACE reply into engine milliseconds per opcode (instruction
/// spans only) and, when `spans` is set, records its instruction spans
/// under `request` starting at `query_start`.
void AddTraceTable(const mirror::daemon::wire::TraceReply& trace,
                   uint64_t request, int lane,
                   std::chrono::steady_clock::time_point query_start,
                   SpanLog* spans, std::map<std::string, double>* op_ms);

/// Named metrics with their units.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  /// `{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`
  /// over the given names (each must have been set).
  std::string ResultLine(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<std::string>& names) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
