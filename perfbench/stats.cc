#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace featsep::perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * samples.size()));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50);
}

double Mean(const std::vector<double>& samples) {
  double sum = 0;
  for (double x : samples) sum += x;
  return samples.empty() ? 0 : sum / static_cast<double>(samples.size());
}

namespace {

std::size_t SamplesBeyond(std::size_t n, double p) {
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  return n > rank ? n - rank : 0;
}

}  // namespace

double TailPercentileFor(std::size_t n) {
  for (double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0}) {
    if (SamplesBeyond(n, p) >= 10) return p;
  }
  return 50.0;
}

Tail TailOf(const std::vector<double>& samples, double preferred) {
  Tail tail;
  tail.count = samples.size();
  tail.percentile = SamplesBeyond(samples.size(), preferred) >= 10
                        ? preferred
                        : TailPercentileFor(samples.size());
  tail.value = Percentile(samples, tail.percentile);
  return tail;
}

void Report::Wrong(const std::string& what) {
  correct = false;
  ++failed;
  if (notes.size() < 64) notes.push_back("WRONG ANSWER: " + what);
}

namespace {

std::string Format(const char* format, double a, double b, std::size_t n) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), format, a, b, n);
  return buffer;
}

}  // namespace

void AddP50AndTail(Report* report, const std::string& prefix,
                   const std::vector<double>& samples,
                   const std::string& unit) {
  Tail tail = TailOf(samples, 99.0);
  report->Add(prefix + "_p50", Median(samples), unit);
  report->Add(prefix + "_tail", tail.value, unit);
  report->Note(prefix + "_tail" +
               Format(" is p%.1f (median %.4g) of %zu samples",
                      tail.percentile, Median(samples), tail.count));
}

void AddLatency(Report* report, const std::string& prefix,
                const std::vector<double>& samples_ms,
                double tail_percentile) {
  Tail tail = TailOf(samples_ms, tail_percentile);
  report->Add(prefix + "p50_ms", Median(samples_ms), "ms");
  report->Add(prefix + "tail_ms", tail.value, "ms");
  std::string note =
      prefix + "tail_ms" +
      Format(" is p%.1f (median %.4g ms) of %zu samples", tail.percentile,
             Median(samples_ms), tail.count);
  if (tail.percentile != tail_percentile) {
    note += " - WARNING: too few samples for the fixed percentile";
  }
  char ladder[160];
  std::snprintf(ladder, sizeof(ladder), "; p90 %.4g, p95 %.4g, p99 %.4g ms",
                Percentile(samples_ms, 90), Percentile(samples_ms, 95),
                Percentile(samples_ms, 99));
  note += ladder;
  report->Note(note);
}

void AddTraceOverhead(Report* report, const std::string& workload,
                      double untraced_cost, double traced_cost) {
  report->Add("bench.trace_overhead." + workload,
              untraced_cost > 0 ? traced_cost / untraced_cost - 1 : 0,
              "ratio");
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      double kb = 0;
      std::sscanf(line.c_str() + 6, "%lf", &kb);
      return kb / 1024.0;
    }
  }
  return 0;
}

std::uint64_t DirectoryBytes(const std::filesystem::path& dir,
                             std::size_t* files) {
  namespace fs = std::filesystem;
  std::uint64_t bytes = 0;
  std::size_t count = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    std::error_code size_ec;
    if (it->is_regular_file(size_ec)) {
      bytes += it->file_size(size_ec);
      ++count;
    }
  }
  if (files != nullptr) *files = count;
  return bytes;
}

}  // namespace featsep::perfbench
