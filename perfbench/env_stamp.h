#ifndef FEATSEP_PERFBENCH_ENV_STAMP_H_
#define FEATSEP_PERFBENCH_ENV_STAMP_H_

// The environment stamp printed with every result: enough to judge whether
// two results are comparable, and a loud warning when they cannot be.

#include <cstddef>
#include <cstdint>
#include <string>

namespace featsep::perfbench {

struct EnvStamp {
  std::size_t nproc = 0;
  std::string build_type;  ///< "release" or "debug", from the library's NDEBUG.
  bool native = false;     ///< FEATSEP_NATIVE (-march=native).
  std::string compiler;
  std::string load_start;  ///< /proc/loadavg when the run started.
  std::string load_end;
  std::uint64_t seed = 0;
  std::string commit;
};

/// Stamps everything but load_end; warns on stderr about a debug build or
/// a busy machine.
EnvStamp StampAtStart(std::uint64_t seed, const std::string& commit);

/// /proc/loadavg, trimmed; "unavailable" when it cannot be read.
std::string ReadLoadAvg();

/// The stamp as one line of JSON.
std::string StampJson(const EnvStamp& stamp);

}  // namespace featsep::perfbench

#endif  // FEATSEP_PERFBENCH_ENV_STAMP_H_
