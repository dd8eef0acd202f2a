#ifndef FEATSEP_TESTING_INSTANCE_H_
#define FEATSEP_TESTING_INSTANCE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cq/cq.h"
#include "linsep/simplex.h"
#include "relational/database.h"
#include "testing/fuzz.h"
#include "testing/properties.h"
#include "workload/generators.h"

namespace featsep {
namespace testing {

/// A materialized fuzz input: the instance a property driver runs on,
/// decoupled from the seed stream that generated it so it can also be
/// mutated (mutate.h) and persisted to a corpus (corpus.h).
///
/// Which fields are meaningful depends on `config`: the config's row in the
/// table (FuzzConfigSpec, instance.cc) says which fields it reads. `config`
/// is never kMixed — mixed resolves to a concrete config before an instance
/// exists.
struct FuzzInstance {
  FuzzConfig config = FuzzConfig::kHom;
  std::shared_ptr<const Schema> schema;
  std::optional<Database> db_a;
  std::optional<Database> db_b;
  std::optional<Database> db_c;
  std::optional<ConjunctiveQuery> query;
  std::optional<ConjunctiveQuery> query2;
  std::vector<std::pair<Value, Value>> hom_seed;
  std::vector<Value> frozen;
  std::vector<Value> positives;
  std::vector<Value> negatives;
  std::vector<std::pair<Value, Label>> labels;
  std::size_t m = 1;
  std::size_t k = 1;
  std::size_t ell = 1;
  std::vector<FeatureVector> features;
  std::vector<Label> feature_labels;
  LpProblem lp;
  /// The fault spec: which FEATSEP_FAULT_POINT site to trip (CoverageSite
  /// value), what to inject there (FaultKind value), and on which 1-based
  /// probe visit.
  std::uint16_t fault_site = 0;
  std::uint8_t fault_kind = 0;
  std::uint64_t fault_visit = 1;
};

/// Bits of FuzzConfigSpec::scalars: the scalar lines of the corpus format
/// (corpus.h) a config writes, in this order.
enum FuzzScalarLine : unsigned {
  kLineK = 1u << 0,
  kLineM = 1u << 1,
  kLineEll = 1u << 2,
  kLineFault = 1u << 3,
};

/// A shrink predicate; it sanitizes each candidate before judging it.
using FuzzFails = std::function<bool(FuzzInstance)>;
/// The mutation operators of one mutate round (mutate.h).
using MutateOps = std::vector<std::function<void()>>;

/// The shape serve, incremental and crashio share: an entity database db_a,
/// a trace seed `k` and an op count `m` (the driver derives the trace).
struct TracedShape {
  std::size_t values = 0;   ///< Domain values of db_a.
  std::size_t facts = 0;    ///< Facts of db_a.
  std::size_t min_ops = 0;  ///< Generated `m` lies in [min_ops, max_ops].
  std::size_t max_ops = 0;
  std::size_t ops_cap = 0;  ///< Sanitize clamps `m` to [1, ops_cap].
  PropertyCheck (*driver)(const Database& db, std::uint64_t seed,
                          std::size_t num_ops) = nullptr;
};

/// One fuzz config. The table in instance.cc holds one row per FuzzConfig,
/// in enum order; names, parsing, the mixed pool, the featsep_fuzz usage
/// text and the corpus scalar lines derive from it. Adding a config means
/// one enum value, one row and its property driver.
struct FuzzConfigSpec {
  const char* name = nullptr;  ///< `--config` name and corpus `config` line.
  /// Drawn by `--config mixed`. Configs that re-run the engines several
  /// times per instance, start threads or touch the filesystem stay out.
  bool mixed = false;
  /// Draws the fields the config reads; deterministic in `rng`.
  void (*generate)(WorkloadRng& rng, FuzzInstance* instance) = nullptr;
  /// The property drivers; nullopt when every law holds or it is vacuous.
  PropertyCheck (*check)(const FuzzInstance& instance) = nullptr;
  /// Clamps the fields back into the reference-oracle budget.
  void (*sanitize)(FuzzInstance* instance) = nullptr;
  /// Greedily shrinks the fields the config reads while `fails` holds.
  void (*shrink)(FuzzInstance* instance, const FuzzFails& fails) = nullptr;
  /// Appends config-specific mutation operators, if any.
  void (*mutate_ops)(FuzzInstance* instance, WorkloadRng& rng,
                     MutateOps* ops) = nullptr;
  unsigned scalars = 0;  ///< FuzzScalarLine bits.
  TracedShape traced{};  ///< Traced-shape rows only.
};

/// The table row of a concrete config (CHECK-fails on kMixed).
const FuzzConfigSpec& FuzzConfigSpecOf(FuzzConfig config);

/// Generates the instance for (config, instance_seed). Deterministic: the
/// stream depends only on the two arguments, so a failure replays with
/// `--config <config> --seed <instance_seed> --iters 1`. kMixed resolves to
/// a concrete config by the seed first.
FuzzInstance GenerateFuzzInstance(FuzzConfig config,
                                  std::uint64_t instance_seed);

/// Runs the property drivers of `instance.config`. nullopt when every law
/// holds (including on vacuous instances, e.g. QBE with no entities).
PropertyCheck CheckFuzzInstance(const FuzzInstance& instance);

/// True when the query is range-restricted: nonempty, with every free
/// variable occurring in some atom. The engines assume safe queries;
/// sanitize drops queries that mutation made unsafe.
bool QueryIsSafe(const ConjunctiveQuery& query);

/// Clamps a (possibly mutated or deserialized) instance back into the
/// reference-oracle budget: trims databases, prunes dangling value
/// references, and caps k/m/ell and the LP dimensions. Generation always
/// produces sanitized instances; mutation and corpus loading call this.
void SanitizeFuzzInstance(FuzzInstance* instance);

/// Greedily minimizes `instance` while `still_failing` holds, reusing the
/// structural shrinkers (shrink.h) on whichever fields the config reads.
/// Candidates are sanitized before the predicate sees them.
FuzzInstance ShrinkFuzzInstance(
    FuzzInstance instance,
    const std::function<bool(const FuzzInstance&)>& still_failing);

}  // namespace testing
}  // namespace featsep

#endif  // FEATSEP_TESTING_INSTANCE_H_
