#ifndef FEATSEP_TESTING_CORPUS_H_
#define FEATSEP_TESTING_CORPUS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "testing/instance.h"
#include "util/result.h"

namespace featsep {
namespace testing {

/// Persistent fuzz corpus: serialized FuzzInstances, one per file, named by
/// a content hash so concurrent fuzzers and CI caches merge by plain file
/// copy. The text format composes the io layer's database/CQ syntax:
///
///   config covergame
///   k 2
///   [db_a]
///   relation E 2
///   E(v0, v1)
///   [end]
///   [db_b]
///   ...
///   [end]
///
/// plus `query`/`query2` rule lines (parsed against db_a's schema), a
/// `fault <site> <kind> <visit>` line naming the site and kind as
/// CoverageSiteName / FaultKindName print them (never by enum number, so
/// adding or deleting a site cannot retarget a saved entry),
/// `seed`/`frozen`/`positives`/`negatives` value-name lists, `label` lines,
/// `example ±1 ... : ±1` feature rows, and `lp_row`/`lp_obj` integer rows.
/// Values are referenced by *name* (ids are re-interned on load); a seed id
/// outside the database — the generator's stale-id probe — serializes as
/// `#<id>`.

/// Renders `instance` in the corpus text format.
std::string SerializeFuzzInstance(const FuzzInstance& instance);

/// Parses the corpus text format. The result is sanitized
/// (SanitizeFuzzInstance), so adversarial or hand-edited entries cannot
/// exceed the reference-oracle budget.
Result<FuzzInstance> DeserializeFuzzInstance(std::string_view text);

/// The content-hash file name (FNV-1a 64 in hex + ".fz") for serialized
/// text.
std::string FuzzInstanceFileName(std::string_view serialized);

/// Writes `instance` into `dir` under its content-hash name; returns the
/// path, or an Error on I/O failure. Also used for crash artifacts.
Result<std::string> WriteFuzzInstanceFile(const std::string& dir,
                                          const FuzzInstance& instance);

/// The corpus held in memory, optionally mirrored to a directory.
class Corpus {
 public:
  /// Empty `dir`: in-memory only (Add never touches disk).
  explicit Corpus(std::string dir = "");

  /// Loads every *.fz file of the directory in lexicographic (hash) order.
  /// Unparseable files are skipped and reported into `errors` when non-null.
  /// Returns the number of instances loaded. No-op without a directory.
  std::size_t Load(std::vector<std::string>* errors = nullptr);

  /// Admits an instance (the scheduler calls this only on new coverage) and
  /// persists it when a directory is set. Returns its index, or an Error
  /// when the directory write fails (the in-memory admission still holds).
  Result<std::size_t> Add(const FuzzInstance& instance);

  std::size_t size() const { return instances_.size(); }
  const FuzzInstance& instance(std::size_t i) const { return instances_[i]; }
  /// Source path of entry i; empty for entries never written to disk.
  const std::string& path(std::size_t i) const { return paths_[i]; }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::vector<FuzzInstance> instances_;
  std::vector<std::string> paths_;
};

}  // namespace testing
}  // namespace featsep

#endif  // FEATSEP_TESTING_CORPUS_H_
