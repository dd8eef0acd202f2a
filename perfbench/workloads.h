#ifndef FEATSEP_PERFBENCH_WORKLOADS_H_
#define FEATSEP_PERFBENCH_WORKLOADS_H_

// The three workloads. Each has two entry points:
//
//   Measure<W>  the untraced run: sets up several times (setup_s is the
//               median), runs the timed phase for config.seconds, checks
//               every answer against a serial oracle outside the timing, and
//               reports the end-to-end metrics.
//   Trace<W>    one leg of the traced run, config.seconds long: fit-cold
//               and mutate-stream record spans on every other operation,
//               serve-zipf runs an untraced and a traced phase of half the
//               time each, and the traced over untraced cost is
//               bench.trace_overhead. Then come the layer probes that need
//               calls the operation itself hides. Reports per-layer metrics
//               and hands back the recorded spans.
//
// Every workload reports the same end-to-end metric names (see README.md):
// "p50_ms"/"tail_ms" describe the workload's main operation and
// "side_p50_ms"/"side_tail_ms" its second one.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace featsep::perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Threads the load may use in total, the service's own included.
  std::size_t nproc = 4;
  /// A planted change for the sensitivity self-test, made through public
  /// options only: "" (none); for fit-cold "serial" (one shard, a serial
  /// pair sweep); for serve-zipf "nocache" (the in-memory answer cache off).
  std::string degrade;
  /// Scratch directory for disk tiers and shard jobs.
  std::filesystem::path work_dir;
};

Report MeasureFitCold(const RunConfig& config);
Report TraceFitCold(const RunConfig& config, std::vector<Span>* spans);

Report MeasureServeZipf(const RunConfig& config);
Report TraceServeZipf(const RunConfig& config, std::vector<Span>* spans);

Report MeasureMutateStream(const RunConfig& config);
Report TraceMutateStream(const RunConfig& config, std::vector<Span>* spans);

}  // namespace featsep::perfbench

#endif  // FEATSEP_PERFBENCH_WORKLOADS_H_
