#ifndef FEATSEP_PERFBENCH_STATS_H_
#define FEATSEP_PERFBENCH_STATS_H_

// Sample statistics, the phase clock, and the report every workload fills.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace featsep::perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

inline double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Nearest-rank percentile of `samples` (0 < p <= 100); 0 when empty.
double Percentile(std::vector<double> samples, double p);

double Median(std::vector<double> samples);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& samples);

/// The highest percentile on the ladder 99.9, 99.5, 99, 98, 95, 90, 80, 75,
/// 50 that leaves at least ten samples beyond it, for `n` samples.
double TailPercentileFor(std::size_t n);

/// A tail reading: the value at `percentile` of `count` samples.
struct Tail {
  double percentile = 0;
  std::size_t count = 0;
  double value = 0;
};

/// The value at `preferred` when at least ten samples lie beyond it,
/// otherwise at TailPercentileFor(n). End-to-end tails pass a fixed
/// percentile per workload so that runs stay comparable.
Tail TailOf(const std::vector<double>& samples, double preferred);

/// Accumulates the time spent inside timed sections, so oracle checks and
/// probes that run between operations do not count toward a phase.
class PhaseClock {
 public:
  void Resume() { started_ = Clock::now(); }
  void Pause() { total_ += Clock::now() - started_; }
  double seconds() const {
    return std::chrono::duration<double>(total_).count();
  }

 private:
  Clock::time_point started_{};
  Clock::duration total_{};
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (tail percentiles,
  /// sample counts, sizes).
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  /// Records a wrong answer: it fails the operation and the whole run.
  void Wrong(const std::string& what);
};

/// Adds "<prefix>_p50" and "<prefix>_tail" of `samples` to `report`, and a
/// note naming the tail percentile and sample count.
void AddP50AndTail(Report* report, const std::string& prefix,
                   const std::vector<double>& samples,
                   const std::string& unit);

/// Adds the end-to-end pair "<prefix>p50_ms"/"<prefix>tail_ms", the tail
/// at `tail_percentile` (fixed per workload so runs stay comparable), and a
/// note with the percentile and the sample count.
void AddLatency(Report* report, const std::string& prefix,
                const std::vector<double>& samples_ms,
                double tail_percentile);

/// Adds "bench.trace_overhead.<workload>": the traced cost of an operation
/// over the untraced one, minus one. Closed loops pass the mean operation
/// time; the open loop passes the p50 latency.
void AddTraceOverhead(Report* report, const std::string& workload,
                      double untraced_cost, double traced_cost);

/// Seed of item `index` of a stream derived from `seed` (splitmix64).
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t index);

/// Process high-water resident set size in MiB (VmHWM).
double PeakRssMb();

/// Total size of the regular files under `dir`, and their count.
std::uint64_t DirectoryBytes(const std::filesystem::path& dir,
                             std::size_t* files = nullptr);

/// DirectoryBytes in MiB.
inline double DiskMb(const std::filesystem::path& dir) {
  return static_cast<double>(DirectoryBytes(dir)) / (1024.0 * 1024.0);
}

}  // namespace featsep::perfbench

#endif  // FEATSEP_PERFBENCH_STATS_H_
