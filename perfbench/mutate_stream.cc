// mutate-stream: a closed loop with one caller (the Database mutation
// epoch allows one writer) over one sparse training database of 128 nodes.
// A warm EvalService with the disk tier on is paired with an
// IncrementalMaintainer and an IncrementalSeparability over the connected
// CQ[2] bank. Each seeded step makes one write and then a fixed number of
// reads. A write is one mutation (an E-fact insert or remove, an η insert
// or remove, or a SetLabel), then ApplyDelta, then Recheck, after which the
// answers and both verdicts are fresh. A read is a warm Matrix or a Vector
// for one entity; a Matrix read asks for a seeded subset of the bank, of one
// to all of its features, as fitted models of different sizes would. Labels
// follow "has an outgoing edge", which the bank can
// express: E writes relabel the edge's source, and a SetLabel write
// re-asserts the rule for one entity. The data thus stays separable, so
// the cost of a write does not swing between the separable and the
// inseparable regime from seed to seed (a label flipped against the rule
// makes Recheck's hom-equivalence tests search the whole database).

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/separability.h"
#include "core/statistic.h"
#include "cq/enumeration.h"
#include "linsep/separability_lp.h"
#include "serve/disk_cache.h"
#include "serve/eval_service.h"
#include "serve/incremental.h"
#include "workload/generators.h"
#include "workloads.h"

namespace featsep::perfbench {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kNodes = 128;
constexpr std::size_t kReadsPerStep = 16;
/// Matrix reads dominate so that the median read sits well inside their
/// population rather than on the boundary with the faster Vector reads.
constexpr double kMatrixReadShare = 0.9;
/// Feature subsets the Matrix reads draw from. Their sizes spread the read
/// latencies out: on a shared VM the same warm lookup runs at one of two
/// speeds, about 1.6x apart, that switch within a second, and the median of
/// reads of one fixed size jumped between the two from run to run.
constexpr std::size_t kReadSubsets = 64;
/// Full-bank warm Matrix calls timed for serve.eval.warm_cell_ns.
constexpr int kWarmMatrixRepeats = 200;
/// Oracle checkpoints: every kCheckEvery-th step, outside the timing.
constexpr std::size_t kCheckEvery = 200;
/// Set-up repetitions of the untraced run; setup_s is their median. Each
/// builds a database of its own, because the first CQ-SEP sweep, most of a
/// set-up, costs from 0.1 to 0.25 s depending on the database's wiring.
constexpr int kSetupRepeats = 15;
constexpr double kTailPercentile = 99;
constexpr double kWriteTailPercentile = 90;
constexpr int kStoreRepeats = 12;

enum class WriteKind { kEdgeInsert, kEdgeRemove, kEtaInsert, kEtaRemove,
                       kSetLabel };

struct Phase {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  /// Per step (one write and its reads): duration, and whether it ran with
  /// span recording on.
  std::vector<double> step_ms;
  std::vector<char> traced;
  double seconds = 0;

  double ops_per_s() const {
    return seconds > 0
               ? static_cast<double>(read_ms.size() + write_ms.size()) /
                     seconds
               : 0;
  }
};

class MutateStream {
 public:
  explicit MutateStream(const RunConfig& config) : config_(config) {
    EnumerationOptions options;
    options.include_disconnected = false;
    bank_ = EnumerateFeatureQueries(GraphWorkloadSchema(), 2, options);
    WorkloadRng rng(DeriveSeed(config_.seed, 0x5b5e));
    std::vector<std::size_t> order(bank_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t s = 0; s < kReadSubsets; ++s) {
      const std::size_t size = 1 + rng.Below(bank_.size());
      std::vector<ConjunctiveQuery> subset;
      for (std::size_t i = 0; i < size; ++i) {
        std::swap(order[i], order[i + rng.Below(order.size() - i)]);
        subset.push_back(bank_[order[i]]);
      }
      subsets_.push_back(std::move(subset));
    }
  }

  /// Builds and labels the database of set-up `generation`, warms the
  /// service and both tiers, and primes the incremental verdicts; returns
  /// seconds. The timed phase runs on the last set-up's database.
  double Setup(int generation) {
    maintainer_.reset();
    isep_.reset();
    service_.reset();
    std::error_code ec;
    if (!disk_dir_.empty()) fs::remove_all(disk_dir_, ec);
    disk_dir_ = config_.work_dir /
                ("mutate-stream-disk-" + std::to_string(generation));
    fs::remove_all(disk_dir_, ec);

    Clock::time_point start = Clock::now();
    rng_ = std::make_unique<WorkloadRng>(
        DeriveSeed(config_.seed, 0x3a7e + generation));
    auto db = std::make_shared<Database>(GraphWorkloadSchema());
    edge_ = db->schema().FindRelation("E");
    eta_ = db->schema().entity_relation();
    nodes_.clear();
    for (std::size_t i = 0; i < kNodes; ++i) {
      std::string name = "v";
      name += std::to_string(i);
      nodes_.push_back(db->Intern(name));
    }
    // A fixed degree sequence with random targets: every node with
    // i % 4 in {0, 1} has two outgoing edges, the rest none, so half the
    // entities (the even nodes) start positive whatever the seed.
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (i % 4 >= 2) continue;
      for (std::size_t added = 0; added < 2;) {
        Value b = nodes_[rng_->Below(kNodes)];
        if (b != nodes_[i] && db->AddFact(edge_, {nodes_[i], b})) ++added;
      }
    }
    for (std::size_t i = 0; i < kNodes; i += 2) db->AddFact(eta_, {nodes_[i]});
    initial_edges_ = db->FactsOf(edge_).size();
    initial_entities_ = db->Entities().size();
    training_ = std::make_shared<TrainingDatabase>(db);
    for (Value e : training_->Entities()) training_->SetLabel(e, Rule(e));

    serve::ServeOptions options;
    options.num_shards = config_.nproc;
    options.cache_dir = disk_dir_.string();
    service_ = std::make_unique<serve::EvalService>(options);
    service_->Matrix(bank_, *db);
    maintainer_ =
        std::make_unique<serve::IncrementalMaintainer>(service_.get(), bank_);
    isep_ = std::make_unique<serve::IncrementalSeparability>(bank_);
    verdict_ = isep_->Recheck(*training_, service_.get(), {});
    steps_ = 0;
    return MillisSince(start) / 1000.0;
  }

  /// Runs steps until `seconds` of steps have elapsed. With `alternate`,
  /// every other step runs with span recording on.
  Phase Run(double seconds, bool alternate, Report* report) {
    Phase phase;
    PhaseClock clock;
    while (clock.seconds() < seconds) {
      ++steps_;
      const bool traced = alternate && steps_ % 2 == 0;
      SetTracing(traced);
      clock.Resume();
      Clock::time_point start = Clock::now();
      Write();
      phase.write_ms.push_back(MillisSince(start));
      for (std::size_t r = 0; r < kReadsPerStep; ++r) {
        const std::vector<ConjunctiveQuery>* features = nullptr;
        Value entity = kNoValue;
        if (rng_->Chance(kMatrixReadShare)) {
          features = &subsets_[rng_->Below(subsets_.size())];
        } else {
          std::vector<Value> entities = db().Entities();
          entity = entities[rng_->Below(entities.size())];
        }
        Clock::time_point read_start = Clock::now();
        Read(features, entity);
        phase.read_ms.push_back(MillisSince(read_start));
      }
      clock.Pause();
      phase.step_ms.push_back(MillisSince(start));
      phase.traced.push_back(traced);
      SetTracing(false);
      if (steps_ % kCheckEvery == 0) Checkpoint(report);
    }
    phase.seconds = clock.seconds();
    Checkpoint(report);
    return phase;
  }

  /// Times DiskResultCache::Store of the current answers in a scratch
  /// directory beside the live tier.
  std::vector<double> TimeStores() {
    const fs::path dir = config_.work_dir / "mutate-stream-store-probe";
    std::error_code ec;
    fs::remove_all(dir, ec);
    std::vector<double> store_us;
    serve::DiskResultCache disk(dir.string());
    const std::uint64_t digest = db().ContentDigest();
    for (int repeat = 0; repeat < kStoreRepeats; ++repeat) {
      for (const ConjunctiveQuery& feature : bank_) {
        std::string key = feature.ToString();
        auto answer = service_->PeekCached(digest, key);
        std::vector<std::string> names;
        if (answer != nullptr) {
          names.assign(answer->names().begin(), answer->names().end());
        }
        Clock::time_point start = Clock::now();
        {
          ScopedSpan span("serve.disk.Store");
          disk.Store(digest, key, std::move(names));
        }
        store_us.push_back(MillisSince(start) * 1000.0);
      }
    }
    fs::remove_all(dir, ec);
    return store_us;
  }

  /// Nanoseconds per cell of a fully warm full-bank Matrix, the median of
  /// kWarmMatrixRepeats calls.
  double WarmCellNs() {
    std::vector<double> ns;
    const double cells =
        static_cast<double>(bank_.size() * db().Entities().size());
    for (int repeat = 0; repeat < kWarmMatrixRepeats; ++repeat) {
      Clock::time_point start = Clock::now();
      {
        ScopedSpan span("serve.eval.Matrix");
        service_->Matrix(bank_, db());
      }
      ns.push_back(MillisSince(start) * 1e6 / cells);
    }
    return Median(ns);
  }

  const serve::IncrementalMaintainer& maintainer() const {
    return *maintainer_;
  }
  const serve::IncrementalSeparability& isep() const { return *isep_; }
  const fs::path& disk_dir() const { return disk_dir_; }

 private:
  const Database& db() const { return training_->database(); }
  Database& mutable_db() { return training_->mutable_database(); }

  /// The labeling rule: +1 iff the value has an outgoing edge.
  Label Rule(Value value) const {
    return db().FactsWith(edge_, 0, value).empty() ? kNegative : kPositive;
  }

  /// Labels `value` by the rule if it is an entity.
  void Relabel(Value value) {
    if (!db().IsEntity(value)) return;
    ScopedSpan span("relational.SetLabel");
    training_->SetLabel(value, Rule(value));
  }

  /// E writes 60%, η writes 20%, SetLabel 20%. Inserts and removes of a
  /// kind alternate around the kind's initial fact count, so the database
  /// keeps its size while its wiring changes.
  WriteKind ChooseKind() {
    double u = rng_->Uniform();
    if (u < 0.6) {
      return db().FactsOf(edge_).size() > initial_edges_
                 ? WriteKind::kEdgeRemove
                 : WriteKind::kEdgeInsert;
    }
    if (u < 0.8) {
      return db().Entities().size() > initial_entities_
                 ? WriteKind::kEtaRemove
                 : WriteKind::kEtaInsert;
    }
    return WriteKind::kSetLabel;
  }

  void Write() {
    ScopedSpan write("bench.write", steps_);
    std::optional<Delta> delta;
    switch (ChooseKind()) {
      case WriteKind::kEdgeInsert: {
        for (int attempt = 0; attempt < 20 && !delta.has_value(); ++attempt) {
          Value a = nodes_[rng_->Below(kNodes)];
          Value b = nodes_[rng_->Below(kNodes)];
          if (a == b || db().ContainsFact(Fact{edge_, {a, b}})) continue;
          ScopedSpan span("relational.InsertFact");
          delta = mutable_db().InsertFact(edge_, {a, b});
        }
        if (delta.has_value()) Relabel(delta->args[0]);
        break;
      }
      case WriteKind::kEdgeRemove: {
        const std::vector<FactIndex>& edges = db().FactsOf(edge_);
        if (edges.empty()) break;
        std::vector<Value> args =
            db().fact(edges[rng_->Below(edges.size())]).args;
        {
          ScopedSpan span("relational.RemoveFact");
          delta = mutable_db().RemoveFact(edge_, args);
        }
        Relabel(args[0]);
        break;
      }
      case WriteKind::kEtaInsert: {
        const std::vector<Value>& domain = db().domain();
        for (int attempt = 0; attempt < 20 && !delta.has_value(); ++attempt) {
          Value v = domain[rng_->Below(domain.size())];
          if (db().IsEntity(v)) continue;
          ScopedSpan span("relational.InsertFact");
          delta = mutable_db().InsertFact(eta_, {v});
        }
        if (delta.has_value()) Relabel(delta->args[0]);
        break;
      }
      case WriteKind::kEtaRemove: {
        std::vector<Value> entities = db().Entities();
        Value v = entities[rng_->Below(entities.size())];
        {
          ScopedSpan span("relational.RemoveFact");
          delta = mutable_db().RemoveFact(eta_, {v});
        }
        break;
      }
      case WriteKind::kSetLabel: {
        std::vector<Value> entities = db().Entities();
        Relabel(entities[rng_->Below(entities.size())]);
        break;
      }
    }
    std::vector<std::string> changed;
    if (delta.has_value() && delta->applied) {
      ScopedSpan span("serve.incremental.ApplyDelta");
      changed = maintainer_->ApplyDelta(db(), *delta).changed_entities;
    }
    ScopedSpan span("serve.incremental.Recheck");
    verdict_ = isep_->Recheck(*training_, service_.get(), changed);
  }

  /// A Matrix of `features`, or with none a Vector of the bank for `entity`.
  void Read(const std::vector<ConjunctiveQuery>* features, Value entity) {
    ScopedSpan read("bench.read", steps_);
    if (features != nullptr) {
      ScopedSpan span("serve.eval.Matrix");
      service_->Matrix(*features, db());
    } else {
      ScopedSpan span("serve.eval.Vector");
      service_->Vector(bank_, db(), entity);
    }
  }

  /// Compares the served matrix and both verdicts with those of a
  /// fresh-content database, evaluated cold and serially.
  void Checkpoint(Report* report) {
    auto fresh = std::make_shared<Database>(GraphWorkloadSchema());
    const std::vector<Fact>& facts = db().facts();
    for (auto it = facts.rbegin(); it != facts.rend(); ++it) {
      std::vector<Value> args;
      for (Value v : it->args) {
        args.push_back(fresh->Intern(db().value_name(v)));
      }
      fresh->AddFact(it->relation, std::move(args));
    }
    TrainingDatabase fresh_training(fresh);
    for (Value e : fresh->Entities()) {
      fresh_training.SetLabel(
          e, training_->label(db().FindValue(fresh->value_name(e))));
    }
    std::vector<FeatureVector> cold = Statistic(bank_).Matrix(*fresh);
    std::vector<Value> fresh_entities = fresh->Entities();
    std::map<std::string, FeatureVector> expected;
    TrainingCollection collection;
    for (std::size_t i = 0; i < fresh_entities.size(); ++i) {
      expected[fresh->value_name(fresh_entities[i])] = cold[i];
      collection.emplace_back(cold[i], fresh_training.label(fresh_entities[i]));
    }
    std::vector<FeatureVector> served = service_->Matrix(bank_, db());
    std::vector<Value> entities = db().Entities();
    bool matrix_ok = served.size() == expected.size();
    for (std::size_t i = 0; matrix_ok && i < entities.size(); ++i) {
      auto it = expected.find(db().value_name(entities[i]));
      matrix_ok = it != expected.end() && it->second == served[i];
    }
    if (!matrix_ok) {
      report->Wrong("mutate-stream: served matrix differs from a cold "
                    "serial evaluation at step " + std::to_string(steps_));
    }
    if (FindSeparator(collection).has_value() != verdict_.lin_separable) {
      report->Wrong("mutate-stream: incremental linear-separability verdict "
                    "differs at step " + std::to_string(steps_));
    }
    CqSepOptions options;
    options.num_threads = config_.nproc;
    CqSepResult cq = DecideCqSep(fresh_training, options);
    if (verdict_.cq_sep.outcome != BudgetOutcome::kCompleted ||
        cq.separable != verdict_.cq_sep.separable) {
      report->Wrong("mutate-stream: incremental CQ-SEP verdict differs at "
                    "step " + std::to_string(steps_));
    }
  }

  RunConfig config_;
  std::vector<ConjunctiveQuery> bank_;
  std::vector<std::vector<ConjunctiveQuery>> subsets_;
  std::unique_ptr<WorkloadRng> rng_;
  RelationId edge_ = kNoRelation;
  RelationId eta_ = kNoRelation;
  std::vector<Value> nodes_;
  std::size_t initial_edges_ = 0;
  std::size_t initial_entities_ = 0;
  std::shared_ptr<TrainingDatabase> training_;
  fs::path disk_dir_;
  std::unique_ptr<serve::EvalService> service_;
  std::unique_ptr<serve::IncrementalMaintainer> maintainer_;
  std::unique_ptr<serve::IncrementalSeparability> isep_;
  serve::IncrementalSeparability::Verdict verdict_;
  std::size_t steps_ = 0;
};

}  // namespace

Report MeasureMutateStream(const RunConfig& config) {
  MutateStream workload(config);
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) setup_s.push_back(workload.Setup(r));
  Report report;
  Phase phase = workload.Run(config.seconds, /*alternate=*/false, &report);
  report.attempted += phase.read_ms.size() + phase.write_ms.size();
  report.Add("setup_s", Median(setup_s), "s");
  AddLatency(&report, "", phase.read_ms, kTailPercentile);
  AddLatency(&report, "side_", phase.write_ms, kWriteTailPercentile);
  report.Add("ops_per_s", phase.ops_per_s(), "1/s");
  report.Note("side_* is writes (mutation + ApplyDelta + Recheck); "
              "p50/tail are reads");
  report.Note("disk_mb = " + std::to_string(DiskMb(workload.disk_dir())) +
              " MiB in the disk tier at the end of the run");
  return report;
}

Report TraceMutateStream(const RunConfig& config, std::vector<Span>* spans) {
  MutateStream workload(config);
  Report report;
  workload.Setup(0);
  Phase phase = workload.Run(config.seconds, /*alternate=*/true, &report);
  serve::IncrementalStats inc = workload.maintainer().stats();
  serve::IncrementalSepStats sep = workload.isep().stats();
  SetTracing(true);
  std::vector<double> store_us = workload.TimeStores();
  const double warm_cell_ns = workload.WarmCellNs();
  SetTracing(false);
  std::vector<Span> recorded = DrainSpans();
  report.attempted += phase.read_ms.size() + phase.write_ms.size();
  std::vector<double> traced_ms, untraced_ms;
  for (std::size_t i = 0; i < phase.step_ms.size(); ++i) {
    (phase.traced[i] ? traced_ms : untraced_ms).push_back(phase.step_ms[i]);
  }

  const double writes = static_cast<double>(phase.write_ms.size());
  AddP50AndTail(&report, "serve.incremental.apply_ms",
                DurationsMs(recorded, "serve.incremental.ApplyDelta"), "ms");
  AddP50AndTail(&report, "serve.incremental.recheck_ms",
                DurationsMs(recorded, "serve.incremental.Recheck"), "ms");
  const double screened = static_cast<double>(inc.entities_screened_out);
  const double rechecked = static_cast<double>(inc.entities_rechecked);
  report.Add("serve.incremental.screened_out_ratio",
             screened + rechecked > 0 ? screened / (screened + rechecked) : 0,
             "ratio");
  report.Add("serve.incremental.features_patched",
             writes > 0 ? inc.features_patched / writes : 0, "count");
  report.Add("serve.incremental.cells_changed",
             writes > 0 ? inc.cells_changed / writes : 0, "count");
  const double lin = static_cast<double>(sep.lin_warm_hits + sep.lin_resolves);
  report.Add("serve.incremental.lin_warm_ratio",
             lin > 0 ? sep.lin_warm_hits / lin : 0, "ratio");
  report.Add("serve.incremental.cqsep_full_sweeps",
             writes > 0 ? sep.cqsep_resolves / writes : 0, "count");

  std::vector<double> mutate_us =
      DurationsMs(recorded, "relational.InsertFact");
  std::vector<double> removes = DurationsMs(recorded, "relational.RemoveFact");
  mutate_us.insert(mutate_us.end(), removes.begin(), removes.end());
  for (double& d : mutate_us) d *= 1000.0;
  report.Add("relational.mutate_us", Median(mutate_us), "us");
  AddP50AndTail(&report, "serve.disk.store_us", store_us, "us");
  report.Add("serve.eval.warm_cell_ns", warm_cell_ns, "ns");
  report.Add("serve.disk.dir_mb.mutate-stream", DiskMb(workload.disk_dir()),
             "MiB");
  report.Add("bench.self_share.mutate-stream",
             SelfShare(recorded, {"bench.write", "bench.read"}), "ratio");
  AddTraceOverhead(&report, "mutate-stream", Mean(untraced_ms),
                   Mean(traced_ms));
  for (const auto& [layer, ms] : LayerSelfMs(recorded)) {
    report.Note("mutate-stream self time " + layer + ": " +
                std::to_string(ms) + " ms");
  }
  spans->insert(spans->end(), recorded.begin(), recorded.end());
  return report;
}

}  // namespace featsep::perfbench
