#include "env_stamp.h"

#include <cstdio>
#include <sstream>
#include <thread>

#ifndef FEATSEP_CXX_COMPILER
#define FEATSEP_CXX_COMPILER "unknown"
#endif

namespace featsep::perfbench {

std::string ReadLoadAvg() {
  std::FILE* f = std::fopen("/proc/loadavg", "r");
  if (f == nullptr) return "unavailable";
  char buffer[128];
  std::size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, f);
  std::fclose(f);
  buffer[n] = '\0';
  std::string line(buffer);
  std::size_t end = line.find_last_not_of(" \n");
  return end == std::string::npos ? line : line.substr(0, end + 1);
}

EnvStamp StampAtStart(std::uint64_t seed, const std::string& commit) {
  EnvStamp stamp;
  unsigned hw = std::thread::hardware_concurrency();
  stamp.nproc = hw == 0 ? 1 : hw;
#ifdef NDEBUG
  stamp.build_type = "release";
#else
  stamp.build_type = "debug";
  std::fprintf(stderr,
               "WARNING: featsep was compiled without NDEBUG (a debug "
               "build). These numbers are meaningless; build Release.\n");
#endif
#ifdef FEATSEP_NATIVE
  stamp.native = true;
#endif
  stamp.compiler = FEATSEP_CXX_COMPILER;
  stamp.load_start = ReadLoadAvg();
  stamp.seed = seed;
  stamp.commit = commit.empty() ? "unknown" : commit;
  double one_minute = 0.0;
  if (std::sscanf(stamp.load_start.c_str(), "%lf", &one_minute) == 1 &&
      one_minute > 1.0) {
    std::fprintf(stderr,
                 "WARNING: 1-minute load average is %.2f - this machine is "
                 "busy, and the measured times will be noisy.\n",
                 one_minute);
  }
  return stamp;
}

std::string StampJson(const EnvStamp& stamp) {
  std::ostringstream out;
  out << "{\"nproc\": " << stamp.nproc << ", \"build_type\": \""
      << stamp.build_type << "\", \"featsep_native\": "
      << (stamp.native ? "true" : "false") << ", \"compiler\": \""
      << stamp.compiler << "\", \"load_avg_start\": \"" << stamp.load_start
      << "\", \"load_avg_end\": \"" << stamp.load_end << "\", \"seed\": "
      << stamp.seed << ", \"commit\": \"" << stamp.commit << "\"}";
  return out.str();
}

}  // namespace featsep::perfbench
