// fit-cold: a closed loop with one caller fitting a seeded stream of
// distinct, noise-free planted training databases. Each stream item is
// fitted once: DecideCqmSep(m = 2) through an EvalService sharded nproc
// wide and DecideCqSep with nproc threads on the item's training database,
// then DecideGhwSep(k = 1) on a smaller companion database drawn from the
// same seed. Every (digest, feature) key is new, so the cq kernel, the
// sharding pool, the pair sweep, linsep and the cover game do the work, and
// the answer caches do none.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ghw_separability.h"
#include "core/separability.h"
#include "cq/enumeration.h"
#include "cq/evaluation.h"
#include "cq/homomorphism.h"
#include "linsep/separability_lp.h"
#include "serve/eval_service.h"
#include "serve/shard_protocol.h"
#include "workload/generators.h"
#include "workloads.h"

namespace featsep::perfbench {
namespace {

// Sizing, from the traced split. A matrix cell and a CQ-SEP pair each cost
// about in proportion to the whole database, while the exact LP grows with
// the square of the entity count and the cover game of GHW(1)-SEP faster
// still (16 entities: 32 ms with 4 background nodes, 1.6 s with 64). So the
// training database has few entities and a large background, which makes
// the feature matrix and the pair sweep the bulk of a fit, and GHW(1)-SEP
// runs on a companion small enough not to swamp them.
constexpr std::size_t kEntities = 16;
constexpr std::size_t kBackgroundNodes = 1600;
constexpr std::size_t kBackgroundEdges = 2400;
constexpr std::size_t kGhwEntities = 8;
constexpr std::size_t kGhwBackgroundNodes = 4;
constexpr std::size_t kGhwBackgroundEdges = 6;
/// Set-up repetitions of the untraced run; setup_s is their median.
constexpr int kSetupRepeats = 25;
constexpr double kTailPercentile = 95;
/// The traced leg probes every kProbeEvery-th traced fit layer by layer.
constexpr std::size_t kProbeEvery = 4;
constexpr std::size_t kHomSamplesPerProbe = 12;
constexpr std::size_t kPairSamplesPerProbe = 6;

std::shared_ptr<TrainingDatabase> MakeTraining(std::uint64_t seed,
                                               std::size_t entities,
                                               std::size_t background_nodes,
                                               std::size_t background_edges) {
  RandomGraphParams params;
  params.num_entities = entities;
  params.num_background_nodes = background_nodes;
  params.num_background_edges = background_edges;
  params.planted_path_length = 2;
  params.label_noise = 0.0;
  params.seed = seed;
  return RandomPlantedGraph(params);
}

/// One item of the stream: the database CQ[2]-SEP and CQ-SEP fit, and the
/// companion GHW(1)-SEP fits.
struct Item {
  std::shared_ptr<TrainingDatabase> training;
  std::shared_ptr<TrainingDatabase> ghw_training;
};

Item MakeItem(std::uint64_t seed, std::uint64_t index) {
  const std::uint64_t item_seed = DeriveSeed(seed, index);
  return {MakeTraining(item_seed, kEntities, kBackgroundNodes,
                       kBackgroundEdges),
          MakeTraining(item_seed, kGhwEntities, kGhwBackgroundNodes,
                       kGhwBackgroundEdges)};
}

struct Phase {
  std::vector<double> fit_ms;
  std::vector<double> cqm_ms;
  std::vector<double> cqsep_pairs;
  /// Per fit: whether it ran with span recording on.
  std::vector<char> traced;
  double seconds = 0;
  /// Inputs of the traced fits to probe layer by layer.
  std::vector<std::shared_ptr<TrainingDatabase>> probe_inputs;

  double ops_per_s() const {
    return seconds > 0 ? static_cast<double>(fit_ms.size()) / seconds : 0;
  }
};

class FitCold {
 public:
  explicit FitCold(const RunConfig& config)
      : config_(config), threads_(ThreadsFor(config)) {}

  /// Builds the service and the first stream item, which is what the first
  /// fit needs; returns seconds. Later items are made between fits,
  /// outside the timing.
  double Setup() {
    service_.reset();
    Clock::time_point start = Clock::now();
    index_ = 0;
    next_ = MakeItem(config_.seed, index_);
    serve::ServeOptions options;
    options.num_shards = threads_;
    service_ = std::make_unique<serve::EvalService>(options);
    return MillisSince(start) / 1000.0;
  }

  /// Fits databases until `seconds` of fitting have elapsed. With
  /// `alternate`, every other fit runs with span recording on, so traced
  /// and untraced fits share one machine state.
  Phase Run(double seconds, bool alternate, Report* report) {
    Phase phase;
    CqmSepOptions cqm_options;
    cqm_options.service = service_.get();
    CqSepOptions cq_options;
    cq_options.num_threads = threads_;
    PhaseClock clock;
    while (clock.seconds() < seconds) {
      const Item item = std::move(next_);
      const std::uint64_t request = ++index_;
      const TrainingDatabase& training = *item.training;
      const bool traced = alternate && request % 2 == 0;
      SetTracing(traced);
      CqmSepResult cqm;
      CqSepResult cq;
      GhwSepResult ghw;
      clock.Resume();
      Clock::time_point start = Clock::now();
      Clock::duration cqm_time{};
      {
        ScopedSpan fit("bench.fit", request);
        {
          ScopedSpan span("relational.ContentDigest");
          training.database().ContentDigest();
        }
        Clock::time_point cqm_start = Clock::now();
        {
          ScopedSpan span("core.DecideCqmSep");
          cqm = DecideCqmSep(training, 2, cqm_options);
        }
        cqm_time = Clock::now() - cqm_start;
        {
          ScopedSpan span("core.DecideCqSep");
          cq = DecideCqSep(training, cq_options);
        }
        {
          ScopedSpan span("core.DecideGhwSep");
          ghw = DecideGhwSep(*item.ghw_training, 1);
        }
      }
      Clock::duration fit_time = Clock::now() - start;
      clock.Pause();
      phase.fit_ms.push_back(Millis(fit_time));
      phase.cqm_ms.push_back(Millis(cqm_time));
      phase.cqsep_pairs.push_back(static_cast<double>(cq.pairs_checked));
      phase.traced.push_back(traced);
      Check(training, cqm, cq, ghw, report);
      if (traced && request % (2 * kProbeEvery) == 0) {
        phase.probe_inputs.push_back(item.training);
      }
      next_ = MakeItem(config_.seed, index_);
    }
    SetTracing(false);
    phase.seconds = clock.seconds();
    return phase;
  }

  /// Re-runs the layers a fit hides inside DecideCqmSep, one call at a
  /// time, on the probed fits' databases; adds the per-layer metrics.
  void Probe(const Phase& phase, Report* report) {
    std::vector<ConjunctiveQuery> bank =
        EnumerateFeatureQueries(GraphWorkloadSchema(), 2);
    std::vector<std::unique_ptr<CqEvaluator>> evaluators;
    std::vector<std::pair<Database, std::vector<Value>>> canonical;
    for (const ConjunctiveQuery& feature : bank) {
      evaluators.push_back(std::make_unique<CqEvaluator>(feature));
      canonical.push_back(feature.CanonicalDatabase());
    }
    serve::ServeOptions cold_options;
    cold_options.num_shards = config_.nproc;
    cold_options.cache_capacity = 0;
    serve::EvalService cold(cold_options);

    std::vector<double> matrix_ms, select_us, hom_nodes, equiv_us, solve_ms,
        efficiency;
    WorkloadRng rng(DeriveSeed(config_.seed, 0xf17));
    std::uint64_t request = 0;
    for (const auto& training : phase.probe_inputs) {
      const Database& db = training->database();
      const std::vector<Value> entities = db.Entities();
      ScopedSpan root("bench.probe", ++request);
      std::vector<FeatureVector> rows;
      Clock::time_point start = Clock::now();
      {
        ScopedSpan span("serve.eval.Matrix");
        rows = cold.Matrix(bank, db);
      }
      matrix_ms.push_back(MillisSince(start));

      double summed_us = 0;
      for (std::size_t f = 0; f < bank.size(); ++f) {
        for (std::size_t e = 0; e < entities.size(); ++e) {
          std::optional<bool> selects;
          Clock::time_point cell_start = Clock::now();
          {
            ScopedSpan span("cq.TrySelectsEntity");
            selects =
                evaluators[f]->TrySelectsEntity(db, entities[e], nullptr);
          }
          double us = MillisSince(cell_start) * 1000.0;
          summed_us += us;
          select_us.push_back(us);
          if (!selects.has_value() || (*selects ? 1 : -1) != rows[e][f]) {
            report->Wrong("fit-cold: served cold matrix cell differs from "
                          "the serial kernel");
          }
        }
      }
      efficiency.push_back(summed_us / 1000.0 /
                           (static_cast<double>(config_.nproc) *
                            matrix_ms.back()));

      for (std::size_t s = 0; s < kHomSamplesPerProbe; ++s) {
        std::size_t f = rng.Below(bank.size());
        Value entity = entities[rng.Below(entities.size())];
        const auto& [from, free_tuple] = canonical[f];
        ScopedSpan span("cq.FindHomomorphism");
        HomResult hom = FindHomomorphism(from, db, {{free_tuple[0], entity}});
        hom_nodes.push_back(static_cast<double>(hom.nodes));
      }

      std::vector<Value> positives = training->PositiveExamples();
      std::vector<Value> negatives = training->NegativeExamples();
      for (std::size_t s = 0;
           s < kPairSamplesPerProbe && !positives.empty() && !negatives.empty();
           ++s) {
        Value p = positives[rng.Below(positives.size())];
        Value n = negatives[rng.Below(negatives.size())];
        Clock::time_point pair_start = Clock::now();
        std::optional<bool> equivalent;
        {
          ScopedSpan span("cq.TryHomEquivalent");
          equivalent = TryHomEquivalent(db, {p}, db, {n}, nullptr);
        }
        equiv_us.push_back(MillisSince(pair_start) * 1000.0);
        if (!equivalent.has_value() || *equivalent) {
          report->Wrong("fit-cold: differently-labeled entities are "
                        "hom-equivalent in planted-separable data");
        }
      }

      TrainingCollection collection;
      for (std::size_t e = 0; e < entities.size(); ++e) {
        collection.emplace_back(rows[e], training->label(entities[e]));
      }
      Clock::time_point lp_start = Clock::now();
      bool separable = false;
      {
        ScopedSpan span("linsep.FindSeparator");
        separable = FindSeparator(collection).has_value();
      }
      solve_ms.push_back(MillisSince(lp_start));
      if (!separable) {
        report->Wrong("fit-cold: the CQ[2] training collection is not "
                      "linearly separable");
      }
    }
    report->Add("serve.eval.cold_matrix_ms", Median(matrix_ms), "ms");
    report->Add("serve.eval.parallel_efficiency", Median(efficiency),
                "ratio");
    report->Add("cq.select_us", Median(select_us), "us");
    report->Add("cq.hom_nodes", Mean(hom_nodes), "count");
    report->Add("cq.hom_equiv_us", Median(equiv_us), "us");
    report->Add("linsep.solve_ms", Median(solve_ms), "ms");
    ShardLeg(bank, phase, report);
  }

  const serve::EvalService& service() const { return *service_; }

 private:
  /// Replays the probed fits' Matrix calls in shard mode: the coordinator
  /// evaluates locally while nproc - 1 in-process RunShardWorkerDir threads
  /// claim shards from the same directory.
  void ShardLeg(const std::vector<ConjunctiveQuery>& bank, const Phase& phase,
                Report* report) {
    namespace fs = std::filesystem;
    const fs::path dir = config_.work_dir / "fit-cold-shards";
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    serve::ServeOptions options;
    options.shard_dir = dir.string();
    options.cache_capacity = 0;
    options.num_shards = 1;
    serve::EvalService sharded(options);

    std::vector<std::thread> workers;
    for (std::size_t w = 0; w + 1 < config_.nproc; ++w) {
      workers.emplace_back([dir] {
        serve::ShardWorkerPoolOptions pool;
        pool.idle_exit = std::chrono::milliseconds(300);
        pool.poll = std::chrono::milliseconds(2);
        pool.worker.poll = std::chrono::milliseconds(2);
        serve::RunShardWorkerDir(dir.string(), pool);
      });
    }
    std::vector<double> matrix_ms;
    for (const auto& training : phase.probe_inputs) {
      const Database& db = training->database();
      Clock::time_point start = Clock::now();
      std::vector<FeatureVector> rows;
      {
        ScopedSpan span("serve.shard.Matrix");
        rows = sharded.Matrix(bank, db);
      }
      matrix_ms.push_back(MillisSince(start));
      if (rows != Statistic(bank).Matrix(db)) {
        report->Wrong("fit-cold: shard-mode matrix differs from serial");
      }
    }
    for (std::thread& worker : workers) worker.join();
    serve::ServeStats stats = sharded.stats();
    report->Add("serve.shard.matrix_ms", Median(matrix_ms), "ms");
    report->Add("serve.shard.jobs", static_cast<double>(stats.shard_jobs),
                "count");
    report->Add("serve.shard.local_shards",
                static_cast<double>(stats.local_shards), "count");
    report->Add("serve.shard.remote_shards",
                static_cast<double>(stats.remote_shards), "count");
    fs::remove_all(dir, ec);
  }

  static void Check(const TrainingDatabase& training, const CqmSepResult& cqm,
                    const CqSepResult& cq, const GhwSepResult& ghw,
                    Report* report) {
    if (cqm.outcome != BudgetOutcome::kCompleted || !cqm.separable ||
        !cqm.model.has_value() ||
        cqm.model->TrainingErrors(training) != 0) {
      report->Wrong("fit-cold: CQ[2]-SEP did not fit the planted data");
    } else if (cq.outcome != BudgetOutcome::kCompleted || !cq.separable) {
      report->Wrong("fit-cold: CQ-SEP verdict is not separable");
    } else if (!ghw.separable) {
      report->Wrong("fit-cold: GHW(1)-SEP verdict is not separable");
    }
  }

  /// Shards of the service and threads of the pair sweep: nproc, unless a
  /// planted change says otherwise.
  static std::size_t ThreadsFor(const RunConfig& config) {
    return config.degrade == "serial" ? 1 : config.nproc;
  }

  RunConfig config_;
  std::size_t threads_;
  /// The item the next fit takes, and the number of items taken so far.
  Item next_;
  std::uint64_t index_ = 0;
  std::unique_ptr<serve::EvalService> service_;
};

}  // namespace

Report MeasureFitCold(const RunConfig& config) {
  FitCold workload(config);
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) setup_s.push_back(workload.Setup());
  Report report;
  Phase phase = workload.Run(config.seconds, /*alternate=*/false, &report);
  report.attempted = phase.fit_ms.size();
  report.Add("setup_s", Median(setup_s), "s");
  AddLatency(&report, "", phase.fit_ms, kTailPercentile);
  AddLatency(&report, "side_", phase.cqm_ms, kTailPercentile);
  report.Add("ops_per_s", phase.ops_per_s(), "1/s");
  report.Note("side_* is the CQ[2]-SEP stage (DecideCqmSep) of each fit");
  return report;
}

Report TraceFitCold(const RunConfig& config, std::vector<Span>* spans) {
  FitCold workload(config);
  workload.Setup();
  Report report;
  Phase phase = workload.Run(config.seconds, /*alternate=*/true, &report);
  serve::ServeStats stats = workload.service().stats();
  std::vector<Span> run_spans = DrainSpans();
  report.attempted = phase.fit_ms.size();

  std::vector<double> traced_ms, untraced_ms, pairs;
  for (std::size_t i = 0; i < phase.fit_ms.size(); ++i) {
    (phase.traced[i] ? traced_ms : untraced_ms).push_back(phase.fit_ms[i]);
    pairs.push_back(phase.cqsep_pairs[i]);
  }
  const double fits = static_cast<double>(phase.fit_ms.size());
  report.Add("core.cqmsep_ms",
             Median(DurationsMs(run_spans, "core.DecideCqmSep")), "ms");
  report.Add("core.cqsep_ms",
             Median(DurationsMs(run_spans, "core.DecideCqSep")), "ms");
  report.Add("core.ghwsep_ms",
             Median(DurationsMs(run_spans, "core.DecideGhwSep")), "ms");
  report.Add("core.cqsep_pairs", Mean(pairs), "count");
  std::vector<double> digest_us =
      DurationsMs(run_spans, "relational.ContentDigest");
  for (double& d : digest_us) d *= 1000.0;
  report.Add("relational.digest_us", Median(digest_us), "us");
  report.Add("serve.eval.features_evaluated",
             fits > 0 ? stats.features_evaluated / fits : 0, "count");
  report.Add("serve.eval.entity_evaluations",
             fits > 0 ? stats.entity_evaluations / fits : 0, "count");
  report.Add("bench.self_share.fit-cold", SelfShare(run_spans, {"bench.fit"}),
             "ratio");
  AddTraceOverhead(&report, "fit-cold", Mean(untraced_ms), Mean(traced_ms));
  for (const auto& [layer, ms] : LayerSelfMs(run_spans)) {
    report.Note("fit-cold self time " + layer + ": " + std::to_string(ms) +
                " ms");
  }

  SetTracing(true);
  workload.Probe(phase, &report);
  SetTracing(false);
  std::vector<Span> probe_spans = DrainSpans();
  spans->insert(spans->end(), run_spans.begin(), run_spans.end());
  spans->insert(spans->end(), probe_spans.begin(), probe_spans.end());
  return report;
}

}  // namespace featsep::perfbench
