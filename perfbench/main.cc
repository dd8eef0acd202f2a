// featsep_perfbench: the end-to-end benchmark program. run.py builds it and
// passes its arguments through:
//
//   featsep_perfbench --workload fit-cold|serve-zipf|mutate-stream
//                     --seed N --seconds S --trace 0|1
//                     [--degrade serial|nocache]
//                     [--commit ID]
//
// --trace 0 runs the named workload untraced and reports its end-to-end
// metrics. --trace 1 is the traced run: it traces one leg of every
// workload, whichever is named, so each per-layer metric is measured on
// the workload whose layers it describes (README.md lists which). The legs
// share the --seconds of the run, so a traced run takes about as long as an
// untraced one. Spans
// are written to .bench_out/trace-<workload>-<seed>.jsonl, and disk tiers
// live under .bench_out/ while the run lasts.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong answer makes the exit
// code 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <unistd.h>
#include <vector>

#include "env_stamp.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace featsep::perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string degrade;
  std::string commit;
};

const char kOutDir[] = ".bench_out";

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "featsep_perfbench: %s\nusage: featsep_perfbench --workload "
               "fit-cold|serve-zipf|mutate-stream --seed N --seconds S "
               "--trace 0|1 [--degrade serial|nocache] "
               "[--commit ID]\n",
               problem.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (flag == "--degrade") {
      args.degrade = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload != "fit-cold" && args.workload != "serve-zipf" &&
      args.workload != "mutate-stream") {
    Usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  if (args.trace != 0 && args.trace != 1) Usage("--trace must be 0 or 1");
  if (!args.degrade.empty() && args.degrade != "serial" &&
      args.degrade != "nocache") {
    Usage("unknown degradation '" + args.degrade + "'");
  }
  return args;
}

/// Full precision; a non-finite value (never expected) prints as 0.
std::string Number(double value) {
  if (!std::isfinite(value)) value = 0;
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintResult(const Report& report) {
  for (const std::string& note : report.notes) {
    std::printf("note %s\n", note.c_str());
  }
  for (const Metric& metric : report.metrics) {
    std::printf("metric %s = %s %s\n", metric.name.c_str(),
                Number(metric.value).c_str(), metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " + Number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void Merge(Report* into, const Report& from) {
  into->correct = into->correct && from.correct;
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->metrics.insert(into->metrics.end(), from.metrics.begin(),
                       from.metrics.end());
  into->notes.insert(into->notes.end(), from.notes.begin(), from.notes.end());
}

int Main(int argc, char** argv) {
  namespace fs = std::filesystem;
  Args args = Parse(argc, argv);
  EnvStamp stamp = StampAtStart(args.seed, args.commit);

  RunConfig config;
  config.seed = args.seed;
  config.seconds = args.seconds;
  config.nproc = stamp.nproc;
  config.degrade = args.degrade;
  config.work_dir =
      fs::path(kOutDir) / ("work-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(config.work_dir, ec);
  fs::create_directories(config.work_dir, ec);
  if (ec) Usage("cannot create " + config.work_dir.string());

  std::printf(
      "# featsep perfbench workload=%s seed=%llu seconds=%s trace=%d%s\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      Number(args.seconds).c_str(), args.trace,
      args.degrade.empty() ? "" : (" degrade=" + args.degrade).c_str());
  Report report;
  if (args.trace == 0) {
    if (args.workload == "fit-cold") {
      report = MeasureFitCold(config);
    } else if (args.workload == "serve-zipf") {
      report = MeasureServeZipf(config);
    } else {
      report = MeasureMutateStream(config);
    }
    double attempted = static_cast<double>(report.attempted);
    report.Add("ok_ratio",
               attempted > 0 ? (attempted - report.failed) / attempted : 0,
               "ratio");
    report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  } else {
    using Leg = std::function<Report(const RunConfig&, std::vector<Span>*)>;
    const std::vector<std::pair<std::string, Leg>> legs = {
        {"fit-cold", TraceFitCold},
        {"serve-zipf", TraceServeZipf},
        {"mutate-stream", TraceMutateStream}};
    const fs::path trace_path =
        fs::path(kOutDir) /
        ("trace-" + args.workload + "-" + std::to_string(args.seed) +
         ".jsonl");
    fs::remove(trace_path, ec);
    RunConfig leg_config = config;
    leg_config.seconds = config.seconds / static_cast<double>(legs.size());
    for (const auto& [name, leg] : legs) {
      std::vector<Span> spans;
      Merge(&report, leg(leg_config, &spans));
      WriteSpans(trace_path.string(), name, spans);
    }
    report.Note("spans written to " + trace_path.string());
  }
  fs::remove_all(config.work_dir, ec);
  stamp.load_end = ReadLoadAvg();
  std::printf("env %s\n", StampJson(stamp).c_str());
  PrintResult(report);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace featsep::perfbench

int main(int argc, char** argv) {
  return featsep::perfbench::Main(argc, argv);
}
