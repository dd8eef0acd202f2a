#ifndef FEATSEP_SERVE_WIRE_FORMAT_H_
#define FEATSEP_SERVE_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "util/hash.h"

namespace featsep {
namespace serve {
namespace wire {

/// Helpers shared by the persistent serve formats (disk cache entries,
/// shard jobs, shard results — DESIGN.md §13). Every format is line
/// structured with length-prefixed strings and ends with a `checksum
/// <hex16>` line whose FNV-1a-64 covers every byte before that line.
/// Parsing fails softly: truncated or corrupt bytes surface as a false
/// return, never a crash or over-read.

/// Sequential reader over format bytes.
struct Cursor {
  std::string_view bytes;
  std::size_t pos = 0;

  bool ReadLine(std::string_view* line) {
    if (pos > bytes.size()) return false;
    std::size_t nl = bytes.find('\n', pos);
    if (nl == std::string_view::npos) return false;
    *line = bytes.substr(pos, nl - pos);
    pos = nl + 1;
    return true;
  }

  /// Reads exactly n bytes followed by a newline.
  bool ReadExact(std::size_t n, std::string_view* out) {
    if (pos + n + 1 > bytes.size() || bytes[pos + n] != '\n') return false;
    *out = bytes.substr(pos, n);
    pos = pos + n + 1;
    return true;
  }

  /// Reads a "<len> <bytes>" token (length, one space, raw bytes, newline).
  bool ReadSized(std::string_view* out);
};

/// Strict decimal/hex u64 parse (lowercase hex only); rejects empty tokens,
/// stray characters, and overflow.
inline bool ParseU64(std::string_view token, std::uint64_t* out,
                     int base = 10) {
  if (token.empty()) return false;
  const auto radix = static_cast<std::uint64_t>(base);
  std::uint64_t value = 0;
  for (char c : token) {
    std::uint64_t d;
    if (c >= '0' && c <= '9') {
      d = static_cast<std::uint64_t>(c - '0');
    } else if (base == 16 && c >= 'a' && c <= 'f') {
      d = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    // value * radix + d must not exceed the maximum: bound before multiplying.
    if (value > (std::numeric_limits<std::uint64_t>::max() - d) / radix) {
      return false;
    }
    value = value * radix + d;
  }
  *out = value;
  return true;
}

/// Parses a "<keyword> <u64>" line.
inline bool ParseKeyedU64(std::string_view line, std::string_view keyword,
                          std::uint64_t* out, int base = 10) {
  if (line.size() <= keyword.size() + 1) return false;
  if (line.substr(0, keyword.size()) != keyword) return false;
  if (line[keyword.size()] != ' ') return false;
  return ParseU64(line.substr(keyword.size() + 1), out, base);
}

inline bool Cursor::ReadSized(std::string_view* out) {
  std::size_t space = bytes.find(' ', pos);
  if (space == std::string_view::npos) return false;
  std::uint64_t size = 0;
  if (!ParseU64(bytes.substr(pos, space - pos), &size)) return false;
  if (size > bytes.size()) return false;  // Implausible: cheap DoS guard.
  pos = space + 1;
  return ReadExact(size, out);
}

/// 16-hex-digit lowercase rendering of a u64, the on-disk spelling of
/// digests and checksums.
inline std::string DigestHex(std::uint64_t value) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[value & 0xf];
    value >>= 4;
  }
  return out;
}

/// Appends the trailing "checksum <hex16>\n" line over `payload`.
inline std::string WithChecksum(std::string payload) {
  std::uint64_t sum = Fnv1a64(payload);
  payload += "checksum ";
  payload += DigestHex(sum);
  payload += "\n";
  return payload;
}

/// Verifies that the cursor's remaining bytes are exactly one checksum line
/// matching everything before it.
inline bool VerifyChecksum(Cursor& cursor) {
  std::size_t payload_end = cursor.pos;
  std::string_view line;
  std::uint64_t stored = 0;
  if (!cursor.ReadLine(&line) || !ParseKeyedU64(line, "checksum", &stored, 16)) {
    return false;
  }
  if (cursor.pos != cursor.bytes.size()) return false;  // Trailing bytes.
  return stored == Fnv1a64(cursor.bytes.substr(0, payload_end));
}

}  // namespace wire
}  // namespace serve
}  // namespace featsep

#endif  // FEATSEP_SERVE_WIRE_FORMAT_H_
