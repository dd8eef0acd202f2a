#ifndef FEATSEP_PERFBENCH_TRACE_H_
#define FEATSEP_PERFBENCH_TRACE_H_

// The span recorder of the traced run. The benchmark wraps every public
// call it makes in a ScopedSpan named "<layer>.<call>", where the layer is
// one of featsep's modules (serve.async, serve.eval, serve.disk,
// serve.incremental, serve.shard, relational, cq, core, linsep) or "bench"
// for the benchmark's own work. Spans stay in memory until the run ends and
// are then written out as JSON lines. With recording off (the untraced
// run) a ScopedSpan costs one relaxed atomic load.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.h"

namespace featsep::perfbench {

struct Span {
  const char* name = "";  ///< A string literal, "<layer>.<call>".
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< Enclosing span on the same thread; 0 = root.
  std::uint64_t request = 0;  ///< Operation the span serves; 0 = none.
  Clock::time_point start{};
  Clock::time_point end{};

  double ms() const { return Millis(end - start); }
  /// The name up to its last '.'.
  std::string layer() const;
};

/// Turns recording on or off for every thread.
void SetTracing(bool on);
bool Tracing();

/// Moves every span recorded so far out of the recorder.
std::vector<Span> DrainSpans();

/// Records one span from construction to destruction. Spans nest per
/// thread: the innermost open span on the constructing thread becomes the
/// parent, and a zero `request` inherits the parent's request id.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  std::uint64_t parent_request_ = 0;
  Span span_;
};

/// Durations in milliseconds of the spans called `name`.
std::vector<double> DurationsMs(const std::vector<Span>& spans,
                                const std::string& name);

/// Per layer: the summed self time in milliseconds, a span's duration minus
/// the durations of its direct children.
std::map<std::string, double> LayerSelfMs(const std::vector<Span>& spans);

/// Self time of the spans named in `roots` divided by their total
/// duration: the share of an operation that no layer span accounts for.
double SelfShare(const std::vector<Span>& spans,
                 const std::vector<std::string>& roots);

/// Appends `spans` as JSON lines tagged with `workload` to `path`.
void WriteSpans(const std::string& path, const std::string& workload,
                const std::vector<Span>& spans);

}  // namespace featsep::perfbench

#endif  // FEATSEP_PERFBENCH_TRACE_H_
