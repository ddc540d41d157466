#include "metrics.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "base/str_util.h"

namespace perfbench {

namespace wire = mirror::daemon::wire;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * (v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - lo);
}

mirror::monet::KernelStats KernelDelta(const mirror::monet::KernelStats& a,
                                       const mirror::monet::KernelStats& b) {
  mirror::monet::KernelStats d;
  d.tuples_in = b.tuples_in - a.tuples_in;
  d.materializations = b.materializations - a.materializations;
  d.morsel_tasks = b.morsel_tasks - a.morsel_tasks;
  d.zone_blocks_skipped = b.zone_blocks_skipped - a.zone_blocks_skipped;
  d.topk_morsels_pruned = b.topk_morsels_pruned - a.topk_morsels_pruned;
  d.topk_shards_pruned = b.topk_shards_pruned - a.topk_shards_pruned;
  return d;
}

double HistP50Ms(const wire::HistogramSummary& h) {
  return wire::HistogramPercentile(h, 0.5) / 1e3;
}

void SpanLog::Add(uint64_t request, const std::string& name, int lane,
                  std::chrono::steady_clock::time_point start,
                  std::chrono::steady_clock::time_point end) {
  double ts = std::chrono::duration<double, std::micro>(start - epoch_).count();
  double dur = std::chrono::duration<double, std::micro>(end - start).count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({request, name, "bench", lane, ts, dur});
}

void SpanLog::AddAt(uint64_t request, const std::string& name,
                    const std::string& cat, int lane,
                    std::chrono::steady_clock::time_point base,
                    double start_us, double dur_us) {
  double ts = std::chrono::duration<double, std::micro>(base - epoch_).count() +
              start_us;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({request, name, cat, lane, ts, dur_us});
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteChrome(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << mirror::base::StrFormat(
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
        "\"dur\": %.3f, \"pid\": 1, \"tid\": %d, \"args\": {\"request\": "
        "%llu}}%s\n",
        s.name.c_str(), s.cat.c_str(), s.ts_us, s.dur_us, s.lane,
        static_cast<unsigned long long>(s.request),
        i + 1 < spans_.size() ? "," : "");
  }
  out << "]}\n";
  return out.good();
}

void AddTraceTable(const wire::TraceReply& trace, uint64_t request, int lane,
                   std::chrono::steady_clock::time_point query_start,
                   SpanLog* spans, std::map<std::string, double>* op_ms) {
  int opcode = -1, kind = -1, start = -1, dur = -1;
  for (size_t c = 0; c < trace.names.size(); ++c) {
    const std::string& n = trace.names[c];
    if (n == "opcode") opcode = static_cast<int>(c);
    if (n == "kind") kind = static_cast<int>(c);
    if (n == "start_ns") start = static_cast<int>(c);
    if (n == "dur_ns") dur = static_cast<int>(c);
  }
  if (opcode < 0 || kind < 0 || start < 0 || dur < 0) return;
  for (size_t r = 0; r < trace.rows; ++r) {
    if (trace.cols[kind].tail().IntAt(r) != 0) continue;  // instruction spans
    std::string op(trace.cols[opcode].tail().StrAt(r));
    double d_ns = static_cast<double>(trace.cols[dur].tail().IntAt(r));
    (*op_ms)[op] += d_ns / 1e6;
    if (spans != nullptr) {
      spans->AddAt(request, "engine." + op, "engine", 100 + lane, query_start,
                   trace.cols[start].tail().IntAt(r) / 1e3, d_ns / 1e3);
    }
  }
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  values_[name] = {value, unit};
}

bool MetricSet::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string MetricSet::ResultLine(bool correct, uint64_t attempted,
                                  uint64_t failed,
                                  const std::vector<std::string>& names) const {
  std::string out = mirror::base::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < names.size(); ++i) {
    const auto& [value, unit] = values_.at(names[i]);
    out += mirror::base::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                                   i ? ", " : "", names[i].c_str(), value,
                                   unit.c_str());
  }
  return out + "}}";
}

}  // namespace perfbench
