#include "trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace featsep::perfbench {
namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};
const Clock::time_point g_epoch = Clock::now();

std::mutex g_spans_mutex;
std::vector<Span> g_spans;  // Guarded by g_spans_mutex.

/// The innermost open span on this thread (id and request).
thread_local std::uint64_t t_open_id = 0;
thread_local std::uint64_t t_open_request = 0;

}  // namespace

std::string Span::layer() const {
  std::string full(name);
  std::size_t dot = full.rfind('.');
  return dot == std::string::npos ? full : full.substr(0, dot);
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

std::vector<Span> DrainSpans() {
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  return std::exchange(g_spans, {});
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request) {
  if (!Tracing()) return;
  active_ = true;
  span_.name = name;
  span_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_open_id;
  parent_request_ = t_open_request;
  span_.request = request != 0 ? request : t_open_request;
  t_open_id = span_.id;
  t_open_request = span_.request;
  span_.start = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end = Clock::now();
  // Restore the enclosing span as this thread's innermost one.
  t_open_id = span_.parent;
  t_open_request = parent_request_;
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  g_spans.push_back(span_);
}

std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (name == span.name) out.push_back(span.ms());
  }
  return out;
}

namespace {

/// Summed durations of each span's direct children, by parent id.
std::unordered_map<std::uint64_t, double> ChildMs(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, double> child_ms;
  for (const Span& span : spans) {
    if (span.parent != 0) child_ms[span.parent] += span.ms();
  }
  return child_ms;
}

}  // namespace

std::map<std::string, double> LayerSelfMs(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, double> child_ms = ChildMs(spans);
  std::map<std::string, double> self;
  for (const Span& span : spans) {
    auto it = child_ms.find(span.id);
    double children = it == child_ms.end() ? 0.0 : it->second;
    self[span.layer()] += std::max(0.0, span.ms() - children);
  }
  return self;
}

double SelfShare(const std::vector<Span>& spans,
                 const std::vector<std::string>& roots) {
  std::unordered_map<std::uint64_t, double> child_ms = ChildMs(spans);
  double total = 0, self = 0;
  for (const Span& span : spans) {
    if (std::find(roots.begin(), roots.end(), span.name) == roots.end()) {
      continue;
    }
    auto it = child_ms.find(span.id);
    double children = it == child_ms.end() ? 0.0 : it->second;
    total += span.ms();
    self += std::max(0.0, span.ms() - children);
  }
  return total > 0 ? self / total : 0;
}

void WriteSpans(const std::string& path, const std::string& workload,
                const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::app);
  // Microseconds since the recorder started, to the nanosecond: the default
  // six significant digits would round a long run's times to 10 us.
  out << std::fixed << std::setprecision(3);
  auto micros = [](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - g_epoch).count();
  };
  for (const Span& span : spans) {
    out << "{\"workload\":\"" << workload << "\",\"name\":\"" << span.name
        << "\",\"layer\":\"" << span.layer() << "\",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"request\":" << span.request
        << ",\"start_us\":" << micros(span.start)
        << ",\"end_us\":" << micros(span.end) << "}\n";
  }
}

}  // namespace featsep::perfbench
