#include "cq/homomorphism.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cq/hom_nogoods.h"
#include "testing/coverage.h"
#include "testing/faults.h"
#include "util/budget.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/svo_bitset.h"

namespace featsep {

namespace {

/// splitmix64 step — the restart workers' value-order randomization stream.
inline std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// State shared by the workers of one parallel FindHomomorphism call. All
/// of it is call-local: nothing survives the call, so an interrupted or
/// cancelled run cannot poison any cross-call cache.
struct ParallelShared {
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> nodes{0};     // Global node count (max_nodes).
  std::atomic<std::uint64_t> restarts{0};
  NogoodStore* store = nullptr;            // nullptr = nogoods disabled.
  std::mutex winner_mutex;
  bool has_winner = false;
  HomResult winner;
};

/// Per-worker search personality.
struct WorkerConfig {
  std::size_t worker_id = 0;
  /// Randomize value order by per-frame rotation offsets.
  bool randomize = false;
  /// Run under the Luby restart schedule (recording nogoods when a store
  /// is attached).
  bool restarts = false;
};

/// Search state for one FindHomomorphism worker.
///
/// The CSP is solved over dense indices on both sides: variables are
/// positions into dom(from), candidate images are positions into dom(to),
/// and every domain is an SvoBitset over the 0..|dom(to)|-1 universe. All
/// per-fact structure (variable indices per position, repeated-variable
/// position pairs) and all per-(relation, position[, value]) target indexes
/// (allowed-value bitsets, support bitsets, candidate counts, fact-index
/// bitsets) are computed once per search and reused at every node, so the
/// inner loops are word-wise bit operations.
///
/// Parallel calls run one HomSearch per worker: the lazy target indexes are
/// per-worker (never synchronized — they are read/written from the hot
/// path), while the nogood store, done flag, and node counter are shared.
class HomSearch {
 public:
  HomSearch(const Database& from, const Database& to,
            const HomOptions& options)
      : from_(from), to_(to), options_(options) {}

  HomResult Run(const std::vector<std::pair<Value, Value>>& seed,
                ParallelShared* shared, const WorkerConfig& worker);

 private:
  /// Index of a variable (a dom(from) element) in vars_.
  using VarIndex = std::uint32_t;
  static constexpr VarIndex kNoVar = static_cast<VarIndex>(-1);
  /// Index of a candidate image in dom(to) (a position in to_.domain()).
  using DomIndex = std::uint32_t;
  static constexpr DomIndex kNoDomIndex = Database::kNoDomainIndex;

  /// Precomputed structure of one `from_` fact.
  struct FactInfo {
    std::vector<VarIndex> vars;  // Variable index per argument position.
    // Position pairs (p1 < p2) carrying the same variable; targets must
    // agree on them. Hoisted out of the per-candidate loops.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> rep_pairs;
  };

  /// How one Search() run ended (superset of the public HomStatus: restart
  /// workers additionally stop at their node limit, and parallel workers
  /// abandon the run once a sibling has won).
  enum class SearchEnd { kFound, kNone, kExhausted, kAborted, kRestart };

  /// One backtracking frame. Candidates are copied because Assign() may
  /// shrink the live domain via a neighbor's forward check; randomized
  /// workers scan them from a per-frame rotation offset (wrapping once), so
  /// restarts explore genuinely different subtrees without allocation.
  struct Frame {
    VarIndex var;
    SvoBitset candidates;
    std::size_t cursor = 0;       // Next candidate bit to scan.
    std::size_t offset = 0;       // Rotation start (randomized workers).
    bool wrapped = false;         // Scan has wrapped past the end once.
    DomIndex pref = kNoDomIndex;  // Preferred image, tried before the scan.
    DomIndex image = kNoDomIndex; // Decision currently in effect.
    std::size_t mark = 0;         // Trail mark taken before the last Assign.
    bool assigned = false;        // An Assign from this frame is in effect.
    // Images whose subtrees were exhausted at this frame (only tracked when
    // nogoods are being recorded).
    std::vector<DomIndex> refuted;
  };

  void BuildStructures();
  /// Filters every variable's domain through the unary constraints induced
  /// by its (relation, position) occurrences in `from_`.
  bool ApplyUnaryConstraints();
  /// Runs Search under the worker's restart schedule (or once, for the
  /// classic sequential worker).
  SearchEnd RunSearchLoop();
  /// One backtracking run, stopping after `node_limit` nodes when nonzero.
  SearchEnd Search(std::uint64_t node_limit);
  Frame MakeFrame(VarIndex var);
  /// Next untried candidate of `frame`, or kNoDomIndex when exhausted.
  DomIndex NextCandidate(Frame& frame);
  /// Records negative-last-decision nogoods for the run's refuted subtrees.
  void RecordNogoods(const std::vector<Frame>& stack);
  /// Undoes every frame's assignment (back to the post-seed state).
  void Unwind(std::vector<Frame>& stack);
  /// Assigns var := the dom(to) element at `image`, then forward-checks all
  /// facts containing var, pruning neighbor domains. Returns false on
  /// wipe-out. Opens a new trail epoch (copy-on-first-write granularity).
  bool Assign(VarIndex var, DomIndex image);
  /// Forward checking for one fact given the current partial assignment.
  /// Shrinks the domains of the fact's unassigned variables; false on
  /// wipe-out or if the fact can no longer be matched.
  bool CheckFact(FactIndex fact_index);
  /// Intersects var's domain with `mask`, saving the old domain on the
  /// trail at most once per epoch. False on wipe-out.
  bool PruneDomain(VarIndex var, const SvoBitset& mask);
  /// Minimum-remaining-values selection with a static-degree tie-break.
  VarIndex SelectVar() const;

  std::uint32_t RelPosId(RelationId relation, std::size_t pos) const {
    return relpos_base_[relation] + static_cast<std::uint32_t>(pos);
  }
  /// Bitset of dom(to) positions of values occurring at (relation, pos) in
  /// `to_`. Built lazily, once per (relation, pos).
  const SvoBitset& Allowed(RelationId relation, std::size_t pos);
  /// Per-position support bitsets of (relation, pos, image): entry p is the
  /// set of dom(to) positions of values at argument p among the `to_` facts
  /// of `relation` carrying `image` at `pos`. Built lazily, once per key.
  const std::vector<SvoBitset>& Support(RelationId relation, std::size_t pos,
                                        DomIndex image_index, Value image);
  /// Fact-index bitset of (relation, pos, image): the facts of `relation`
  /// (as dense per-relation indices) carrying `image` at `pos`. Built
  /// lazily, once per key.
  const SvoBitset& FactBits(RelationId relation, std::size_t pos,
                            DomIndex image_index, Value image);
  /// Fact-index bitset of the `relation` facts whose arguments at p1 and p2
  /// are equal — the repeated-variable constraint as a word-wise AND.
  const SvoBitset& EqBits(RelationId relation, std::uint32_t p1,
                          std::uint32_t p2);
  /// Dense-fact-index -> dom index of argument `pos`, per (relation, pos).
  /// The support-accumulation table of the fact-bitset general path.
  const std::vector<HomSearch::DomIndex>& ArgIndex(RelationId relation,
                                                   std::size_t pos);

  void SaveDomain(VarIndex var);
  void UndoTo(std::size_t mark);

  /// Global node count for the max_nodes cap (shared across workers).
  std::uint64_t TotalNodes() const {
    return shared_ != nullptr
               ? shared_->nodes.load(std::memory_order_relaxed)
               : nodes_;
  }

  const Database& from_;
  const Database& to_;
  const HomOptions& options_;

  std::vector<Value> vars_;          // var index -> dom(from) element.
  std::vector<VarIndex> var_of_;     // from-value id -> var index (dense).
  const std::vector<Value>* to_dom_ = nullptr;          // index -> to-value.
  const std::vector<std::uint32_t>* to_index_ = nullptr;  // to-value -> index.
  std::size_t ndom_ = 0;             // |dom(to)|.

  std::vector<FactInfo> fact_info_;  // Indexed by FactIndex of from_.
  std::vector<std::uint32_t> degree_;  // Facts containing each variable.
  std::vector<std::uint32_t> relpos_base_;  // relation -> (rel, pos) id base.
  // FactIndex of to_ -> dense index within its relation's FactsOf list (the
  // fact-bitset universe of that relation). Built on the first FactBits
  // call: the table costs O(|facts(to_)|), which would dwarf the rest of the
  // per-call setup on searches that never leave the closed/single-assigned
  // fast paths.
  std::vector<std::uint32_t> fact_dense_id_;
  bool fact_dense_valid_ = false;

  std::vector<SvoBitset> domains_;
  std::vector<std::uint32_t> domain_size_;  // Cached domain popcounts.
  std::vector<Value> assigned_value_;       // kNoValue if unassigned.
  std::vector<DomIndex> assigned_index_;    // Dense twin of assigned_value_.
  std::size_t unassigned_ = 0;

  std::vector<SvoBitset> allowed_;          // Indexed by (rel, pos) id.
  std::vector<bool> allowed_valid_;
  // (rel, pos) id -> the to_ position index consulted for pivot sizes —
  // cached at setup so each probe is one hash find with no per-call
  // relation/pos navigation (and no O(|facts|) count-table builds).
  std::vector<const Database::PositionIndex*> pos_index_;
  // Indexed by (rel, pos); allocated on first ArgIndex call (general path
  // only), sized from relpos_total_.
  std::vector<std::vector<DomIndex>> arg_index_;
  std::vector<bool> arg_index_valid_;
  std::uint32_t relpos_total_ = 0;  // Number of (rel, pos) slots.
  // (rel, pos) id << 32 | image index -> per-position support bitsets.
  std::unordered_map<std::uint64_t, std::vector<SvoBitset>> support_cache_;
  // (rel, pos) id << 32 | image index -> fact-index bitset.
  std::unordered_map<std::uint64_t, SvoBitset> fact_bits_;
  // (rel, pos-pair) -> equal-argument fact-index bitset.
  std::unordered_map<std::uint64_t, SvoBitset> eq_bits_;

  std::vector<DomIndex> prefer_;     // Per-var preferred image, or kNoDomIndex.

  // Trail of saved (domain, popcount) snapshots; at most one per variable
  // per epoch (= Assign call), so undo cost tracks actual pruning.
  struct TrailEntry {
    VarIndex var;
    SvoBitset saved;
    std::uint32_t saved_size;
  };
  std::vector<TrailEntry> trail_;
  std::vector<std::uint64_t> saved_epoch_;  // Last epoch each var was saved.
  std::uint64_t epoch_ = 0;

  // Scratch bitsets reused across CheckFact calls (general path).
  std::vector<SvoBitset> scratch_;
  SvoBitset fact_scratch_;  // Compatible-fact accumulator (general path).
  Fact probe_;              // Reused tuple for all-assigned lookups.

  // Worker personality (parallel / restart searches).
  ParallelShared* shared_ = nullptr;
  WorkerConfig worker_;
  bool record_nogoods_ = false;
  bool consume_nogoods_ = false;
  std::uint64_t rng_state_ = 0;

  std::uint64_t nodes_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t nogoods_recorded_ = 0;
};

HomResult HomSearch::Run(const std::vector<std::pair<Value, Value>>& seed,
                         ParallelShared* shared, const WorkerConfig& worker) {
  HomResult result;
  shared_ = shared;
  worker_ = worker;
  NogoodStore* store = shared_ != nullptr ? shared_->store : nullptr;
  record_nogoods_ = worker_.restarts && store != nullptr;
  consume_nogoods_ = store != nullptr;

  // A zero/expired/cancelled budget at entry: return undecided before any
  // setup work, so abandoned requests cost nothing.
  if (!RecheckBudget(options_.budget)) {
    result.status = HomStatus::kExhausted;
    result.outcome = options_.budget->outcome();
    return result;
  }

  // Variables are the domain elements of `from_`.
  vars_ = from_.domain();
  var_of_.assign(from_.num_values(), kNoVar);
  for (VarIndex i = 0; i < vars_.size(); ++i) var_of_[vars_[i]] = i;
  to_dom_ = &to_.domain();
  to_index_ = &to_.domain_index();
  ndom_ = to_dom_->size();
  assigned_value_.assign(vars_.size(), kNoValue);
  assigned_index_.assign(vars_.size(), kNoDomIndex);
  unassigned_ = vars_.size();

  if (!vars_.empty() && ndom_ == 0) {
    result.status = HomStatus::kNone;
    result.nodes = nodes_;
    return result;
  }

  BuildStructures();

  if (!ApplyUnaryConstraints()) {
    FEATSEP_COVERAGE(kHomUnaryWipeout);
    result.status = HomStatus::kNone;
    result.nodes = nodes_;
    return result;
  }

  prefer_.assign(vars_.size(), kNoDomIndex);
  for (const auto& [source, image] : options_.prefer) {
    if (source >= var_of_.size() || var_of_[source] == kNoVar) continue;
    if (image >= to_index_->size()) continue;
    DomIndex index = (*to_index_)[image];
    if (index != kNoDomIndex) prefer_[var_of_[source]] = index;
  }

  // Apply the seed as forced assignments.
  std::vector<std::pair<Value, Value>> free_seeds;  // outside dom(from).
  for (const auto& [source, image] : seed) {
    VarIndex var = source < var_of_.size() ? var_of_[source] : kNoVar;
    if (var == kNoVar) {
      free_seeds.emplace_back(source, image);
      continue;
    }
    if (assigned_value_[var] != kNoValue) {
      if (assigned_value_[var] != image) {
        FEATSEP_COVERAGE(kHomSeedReject);
        result.status = HomStatus::kNone;
        result.nodes = nodes_;
        return result;
      }
      continue;
    }
    DomIndex index =
        image < to_index_->size() ? (*to_index_)[image] : kNoDomIndex;
    if (index == kNoDomIndex || !domains_[var].test(index) ||
        !Assign(var, index)) {
      FEATSEP_COVERAGE(kHomSeedReject);
      result.status = HomStatus::kNone;
      result.nodes = nodes_;
      return result;
    }
  }

  switch (RunSearchLoop()) {
    case SearchEnd::kFound:
      result.status = HomStatus::kFound;
      break;
    case SearchEnd::kNone:
      result.status = HomStatus::kNone;
      break;
    case SearchEnd::kExhausted:
    case SearchEnd::kAborted:
    case SearchEnd::kRestart:  // Unreachable: RunSearchLoop resumes.
      result.status = HomStatus::kExhausted;
      break;
  }
  result.nodes = nodes_;
  result.restarts = restarts_;
  result.nogoods_recorded = nogoods_recorded_;
  if (result.status == HomStatus::kExhausted) {
    result.outcome =
        options_.budget != nullptr && options_.budget->Interrupted()
            ? options_.budget->outcome()
            : BudgetOutcome::kBudgetExhausted;  // max_nodes / sibling won.
  }
  if (result.status == HomStatus::kFound) {
    // Mapping indexed by value id over all interned values of `from_`.
    result.mapping.assign(from_.num_values(), kNoValue);
    for (VarIndex i = 0; i < vars_.size(); ++i) {
      result.mapping[vars_[i]] = assigned_value_[i];
    }
    for (const auto& [source, image] : free_seeds) {
      if (source < result.mapping.size()) result.mapping[source] = image;
    }
  }
  return result;
}

void HomSearch::BuildStructures() {
  const Schema& schema = from_.schema();
  relpos_base_.resize(schema.size());
  std::uint32_t base = 0;
  for (RelationId r = 0; r < schema.size(); ++r) {
    relpos_base_[r] = base;
    base += static_cast<std::uint32_t>(schema.arity(r));
  }
  allowed_.resize(base);
  allowed_valid_.assign(base, false);
  pos_index_.resize(base);
  for (RelationId r = 0; r < schema.size(); ++r) {
    for (std::size_t p = 0; p < schema.arity(r); ++p) {
      pos_index_[relpos_base_[r] + p] = &to_.PositionIndexOf(r, p);
    }
  }
  relpos_total_ = base;  // arg_index_ tables allocate lazily off this.

  fact_info_.resize(from_.facts().size());
  for (FactIndex fi = 0; fi < from_.facts().size(); ++fi) {
    const Fact& fact = from_.fact(fi);
    FactInfo& info = fact_info_[fi];
    info.vars.reserve(fact.args.size());
    for (Value v : fact.args) info.vars.push_back(var_of_[v]);
    for (std::uint32_t p1 = 0; p1 < fact.args.size(); ++p1) {
      for (std::uint32_t p2 = p1 + 1; p2 < fact.args.size(); ++p2) {
        if (fact.args[p1] == fact.args[p2]) info.rep_pairs.emplace_back(p1, p2);
      }
    }
  }

  degree_.resize(vars_.size());
  for (VarIndex i = 0; i < vars_.size(); ++i) {
    degree_[i] =
        static_cast<std::uint32_t>(from_.FactsContaining(vars_[i]).size());
  }

  domains_.clear();
  domains_.reserve(vars_.size());
  for (VarIndex i = 0; i < vars_.size(); ++i) {
    domains_.emplace_back(ndom_, true);
  }
  domain_size_.assign(vars_.size(), static_cast<std::uint32_t>(ndom_));
  saved_epoch_.assign(vars_.size(), 0);
}

const SvoBitset& HomSearch::Allowed(RelationId relation, std::size_t pos) {
  std::uint32_t id = RelPosId(relation, pos);
  if (!allowed_valid_[id]) {
    SvoBitset bits(ndom_);
    for (FactIndex fi : to_.FactsOf(relation)) {
      bits.set((*to_index_)[to_.fact(fi).args[pos]]);
    }
    allowed_[id] = std::move(bits);
    allowed_valid_[id] = true;
  }
  return allowed_[id];
}

const std::vector<SvoBitset>& HomSearch::Support(RelationId relation,
                                                 std::size_t pos,
                                                 DomIndex image_index,
                                                 Value image) {
  std::uint64_t key =
      (static_cast<std::uint64_t>(RelPosId(relation, pos)) << 32) |
      image_index;
  auto it = support_cache_.find(key);
  if (it != support_cache_.end()) return it->second;
  std::size_t arity = to_.schema().arity(relation);
  std::vector<SvoBitset> support;
  support.reserve(arity);
  for (std::size_t p = 0; p < arity; ++p) support.emplace_back(ndom_);
  for (FactIndex fi : to_.FactsWith(relation, pos, image)) {
    const Fact& target = to_.fact(fi);
    for (std::size_t p = 0; p < arity; ++p) {
      support[p].set((*to_index_)[target.args[p]]);
    }
  }
  return support_cache_.emplace(key, std::move(support)).first->second;
}

const SvoBitset& HomSearch::FactBits(RelationId relation, std::size_t pos,
                                     DomIndex image_index, Value image) {
  std::uint64_t key =
      (static_cast<std::uint64_t>(RelPosId(relation, pos)) << 32) |
      image_index;
  auto it = fact_bits_.find(key);
  if (it != fact_bits_.end()) return it->second;
  if (!fact_dense_valid_) {
    fact_dense_valid_ = true;
    fact_dense_id_.resize(to_.facts().size());
    for (RelationId r = 0; r < to_.schema().size(); ++r) {
      const std::vector<FactIndex>& of = to_.FactsOf(r);
      for (std::uint32_t j = 0; j < of.size(); ++j) fact_dense_id_[of[j]] = j;
    }
  }
  SvoBitset bits(to_.FactsOf(relation).size());
  for (FactIndex fi : to_.FactsWith(relation, pos, image)) {
    bits.set(fact_dense_id_[fi]);
  }
  return fact_bits_.emplace(key, std::move(bits)).first->second;
}

const SvoBitset& HomSearch::EqBits(RelationId relation, std::uint32_t p1,
                                   std::uint32_t p2) {
  // Arity ≤ 2^12 keeps the packed key unambiguous (schemas are tiny).
  std::uint64_t key = (static_cast<std::uint64_t>(relation) << 24) |
                      (static_cast<std::uint64_t>(p1) << 12) | p2;
  auto it = eq_bits_.find(key);
  if (it != eq_bits_.end()) return it->second;
  const std::vector<FactIndex>& of = to_.FactsOf(relation);
  SvoBitset bits(of.size());
  for (std::uint32_t j = 0; j < of.size(); ++j) {
    const Fact& target = to_.fact(of[j]);
    if (target.args[p1] == target.args[p2]) bits.set(j);
  }
  return eq_bits_.emplace(key, std::move(bits)).first->second;
}

const std::vector<HomSearch::DomIndex>& HomSearch::ArgIndex(
    RelationId relation, std::size_t pos) {
  std::uint32_t id = RelPosId(relation, pos);
  if (arg_index_.empty()) {
    arg_index_.resize(relpos_total_);
    arg_index_valid_.assign(relpos_total_, false);
  }
  if (!arg_index_valid_[id]) {
    const std::vector<FactIndex>& of = to_.FactsOf(relation);
    std::vector<DomIndex> index(of.size());
    for (std::uint32_t j = 0; j < of.size(); ++j) {
      index[j] = (*to_index_)[to_.fact(of[j]).args[pos]];
    }
    arg_index_[id] = std::move(index);
    arg_index_valid_[id] = true;
  }
  return arg_index_[id];
}

bool HomSearch::ApplyUnaryConstraints() {
  for (FactIndex fi = 0; fi < from_.facts().size(); ++fi) {
    const Fact& fact = from_.fact(fi);
    const FactInfo& info = fact_info_[fi];
    for (std::size_t pos = 0; pos < fact.args.size(); ++pos) {
      domains_[info.vars[pos]].intersect_with(Allowed(fact.relation, pos));
    }
  }
  for (VarIndex i = 0; i < vars_.size(); ++i) {
    domain_size_[i] = static_cast<std::uint32_t>(domains_[i].count());
    if (domain_size_[i] == 0) return false;
  }
  return true;
}

HomSearch::VarIndex HomSearch::SelectVar() const {
  VarIndex best = kNoVar;
  std::uint32_t best_size = 0;
  for (VarIndex i = 0; i < vars_.size(); ++i) {
    if (assigned_value_[i] != kNoValue) continue;
    std::uint32_t size = domain_size_[i];
    if (best == kNoVar || size < best_size ||
        (size == best_size && degree_[i] > degree_[best])) {
      best = i;
      best_size = size;
      if (size <= 1) break;
    }
  }
  FEATSEP_CHECK_NE(best, kNoVar);
  return best;
}

HomSearch::SearchEnd HomSearch::RunSearchLoop() {
  if (!worker_.restarts) return Search(0);
  // Luby-restart worker: run k is capped at Luby(k) * restart_base nodes.
  // The schedule's unbounded growth guarantees termination — some run's
  // limit eventually exceeds the whole tree — and each restart reseeds the
  // rotation stream, so runs explore genuinely different value orders while
  // the recorded nogoods keep shrinking the effective tree.
  std::uint64_t base = options_.restart_base == 0 ? 1 : options_.restart_base;
  for (std::uint64_t k = 1;; ++k) {
    rng_state_ = options_.rng_seed ^
                 (0x517cc1b727220a95ULL * (worker_.worker_id + 1)) ^
                 (0x2545f4914f6cdd1dULL * k);
    SearchEnd end = Search(Luby(k) * base);
    if (end != SearchEnd::kRestart) return end;
    ++restarts_;
    if (shared_ != nullptr) {
      shared_->restarts.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

HomSearch::Frame HomSearch::MakeFrame(VarIndex var) {
  Frame frame;
  frame.var = var;
  frame.candidates = domains_[var];
  if (worker_.randomize && ndom_ > 1) {
    frame.offset = static_cast<std::size_t>(SplitMix64(rng_state_) % ndom_);
    frame.cursor = frame.offset;
  }
  DomIndex pref = prefer_[var];
  if (pref != kNoDomIndex && frame.candidates.test(pref)) {
    frame.candidates.reset(pref);  // Consumed through the pref slot.
    frame.pref = pref;
  }
  return frame;
}

HomSearch::DomIndex HomSearch::NextCandidate(Frame& frame) {
  if (frame.pref != kNoDomIndex) {
    FEATSEP_COVERAGE(kHomPreferHit);
    DomIndex image = frame.pref;
    frame.pref = kNoDomIndex;
    return image;
  }
  for (;;) {
    std::size_t bit = frame.candidates.find_next(frame.cursor);
    if (!frame.wrapped) {
      if (bit == SvoBitset::kNoBit) {
        if (frame.offset == 0) return kNoDomIndex;  // Nothing to wrap onto.
        frame.wrapped = true;
        frame.cursor = 0;
        continue;
      }
      frame.cursor = bit + 1;
      return static_cast<DomIndex>(bit);
    }
    if (bit == SvoBitset::kNoBit || bit >= frame.offset) return kNoDomIndex;
    frame.cursor = bit + 1;
    return static_cast<DomIndex>(bit);
  }
}

void HomSearch::RecordNogoods(const std::vector<Frame>& stack) {
  NogoodStore* store = shared_->store;
  // The decision prefix grows frame by frame; refuted values at frame i
  // yield nogoods {d₁, …, d₍ᵢ₋₁₎, (varᵢ, u)}. Beyond kMaxPairs the store
  // would drop them anyway, so stop extending the prefix there.
  std::vector<NogoodPair> pairs;
  for (const Frame& frame : stack) {
    if (pairs.size() + 1 > NogoodStore::kMaxPairs) break;
    for (DomIndex u : frame.refuted) {
      pairs.push_back(NogoodPair{frame.var, u});
      if (store->Record(pairs)) ++nogoods_recorded_;
      pairs.pop_back();
    }
    if (!frame.assigned) break;  // Deeper frames have no decision in effect.
    pairs.push_back(NogoodPair{frame.var, frame.image});
  }
}

void HomSearch::Unwind(std::vector<Frame>& stack) {
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.assigned) {
      UndoTo(frame.mark);
      assigned_value_[frame.var] = kNoValue;
      assigned_index_[frame.var] = kNoDomIndex;
      ++unassigned_;
    }
    stack.pop_back();
  }
}

HomSearch::SearchEnd HomSearch::Search(std::uint64_t node_limit) {
  if (unassigned_ == 0) {
    FEATSEP_COVERAGE(kHomFound);
    return SearchEnd::kFound;
  }

  // Iterative backtracking with an explicit frame stack: sources can have
  // tens of thousands of variables (e.g., QBE products), far beyond safe
  // call-stack recursion depth.
  std::vector<Frame> stack;
  stack.push_back(MakeFrame(SelectVar()));
  std::uint64_t run_nodes = 0;

  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.assigned) {
      // Control returned to this frame: undo its assignment's effects. The
      // popped subtree was fully explored, so the image is refuted here.
      UndoTo(frame.mark);
      assigned_value_[frame.var] = kNoValue;
      assigned_index_[frame.var] = kNoDomIndex;
      ++unassigned_;
      frame.assigned = false;
      if (record_nogoods_) frame.refuted.push_back(frame.image);
    }
    if (options_.max_nodes != 0 && TotalNodes() >= options_.max_nodes) {
      FEATSEP_COVERAGE(kHomExhausted);
      Unwind(stack);
      return SearchEnd::kExhausted;
    }
    if (shared_ != nullptr &&
        shared_->done.load(std::memory_order_relaxed)) {
      Unwind(stack);
      return SearchEnd::kAborted;
    }
    if (node_limit != 0 && run_nodes >= node_limit) {
      if (record_nogoods_) RecordNogoods(stack);
      Unwind(stack);
      return SearchEnd::kRestart;
    }
    DomIndex image = NextCandidate(frame);
    if (image == kNoDomIndex) {
      FEATSEP_COVERAGE(kHomBacktrack);
      FEATSEP_FAULT_POINT(kHomBacktrack);
      stack.pop_back();
      continue;
    }
    if (consume_nogoods_ &&
        shared_->store->Forbidden(frame.var, image, assigned_index_)) {
      // A recorded nogood proves no solution extends the current assignment
      // with this image — skip it; that is itself a refutation here.
      if (record_nogoods_) frame.refuted.push_back(image);
      continue;
    }
    ++nodes_;
    ++run_nodes;
    if (shared_ != nullptr) {
      shared_->nodes.fetch_add(1, std::memory_order_relaxed);
    }
    FEATSEP_COVERAGE(kHomNode);
    FEATSEP_FAULT_POINT(kHomNode);
    if (!ChargeBudget(options_.budget)) {
      FEATSEP_COVERAGE(kHomExhausted);
      Unwind(stack);
      return SearchEnd::kExhausted;
    }
    frame.mark = trail_.size();
    frame.assigned = true;
    frame.image = image;
    if (Assign(frame.var, image)) {
      if (unassigned_ == 0) {
        FEATSEP_COVERAGE(kHomFound);
        return SearchEnd::kFound;
      }
      stack.push_back(MakeFrame(SelectVar()));
    }
    // On Assign failure the loop retries this frame (undo happens above).
  }
  FEATSEP_COVERAGE(kHomNone);
  return SearchEnd::kNone;
}

bool HomSearch::Assign(VarIndex var, DomIndex image) {
  ++epoch_;
  assigned_index_[var] = image;
  assigned_value_[var] = (*to_dom_)[image];
  --unassigned_;
  for (FactIndex fi : from_.FactsContaining(vars_[var])) {
    if (!CheckFact(fi)) return false;
  }
  return true;
}

bool HomSearch::CheckFact(FactIndex fact_index) {
  const Fact& fact = from_.fact(fact_index);
  const FactInfo& info = fact_info_[fact_index];
  const std::size_t arity = fact.args.size();

  std::size_t assigned_count = 0;
  for (std::size_t pos = 0; pos < arity; ++pos) {
    if (assigned_value_[info.vars[pos]] != kNoValue) ++assigned_count;
  }

  // Closed fast path: every position is assigned, so the constraint reduces
  // to "does the mapped tuple exist in `to_`?" — one hash lookup, no bitsets
  // and nothing left to prune. Repeated-variable equalities hold trivially
  // because the same assignment feeds both positions.
  if (assigned_count == arity) {
    FEATSEP_COVERAGE(kHomClosedCheck);
    probe_.relation = fact.relation;
    probe_.args.resize(arity);
    for (std::size_t pos = 0; pos < arity; ++pos) {
      probe_.args[pos] = assigned_value_[info.vars[pos]];
    }
    return to_.ContainsFact(probe_);
  }

  // Find the assigned position whose (relation, pos, image) candidate list
  // in `to_` is smallest, through the position-index pointers cached at
  // setup (one hash find per assigned position, no per-call navigation).
  const std::uint32_t rel_base = relpos_base_[fact.relation];
  std::size_t pivot = static_cast<std::size_t>(-1);
  std::uint32_t pivot_size = 0;
  for (std::size_t pos = 0; pos < arity; ++pos) {
    VarIndex var = info.vars[pos];
    if (assigned_value_[var] == kNoValue) continue;
    const Database::PositionIndex& index = *pos_index_[rel_base + pos];
    auto it = index.find(assigned_value_[var]);
    std::uint32_t size =
        it == index.end() ? 0 : static_cast<std::uint32_t>(it->second.size());
    if (pivot == static_cast<std::size_t>(-1) || size < pivot_size) {
      pivot = pos;
      pivot_size = size;
    }
  }

  // Fast path: one assigned position and no repeated variables. Every fact
  // in the pivot's candidate list is compatible, so the per-position
  // supports are exactly the precomputed support bitsets — forward checking
  // degenerates to one word-wise AND per unassigned position.
  if (assigned_count == 1 && info.rep_pairs.empty()) {
    FEATSEP_COVERAGE(kHomFastCheck);
    if (pivot_size == 0) {
      FEATSEP_COVERAGE(kHomDeadFact);
      return false;
    }
    if (!options_.forward_checking) return true;
    VarIndex pivot_var = info.vars[pivot];
    const std::vector<SvoBitset>& support =
        Support(fact.relation, pivot, assigned_index_[pivot_var],
                assigned_value_[pivot_var]);
    for (std::size_t pos = 0; pos < arity; ++pos) {
      if (pos == pivot) continue;
      if (!PruneDomain(info.vars[pos], support[pos])) return false;
    }
    return true;
  }

  // General path: several assigned positions or repeated variables. A
  // target fact must agree with *all* assigned positions simultaneously
  // (pairwise support is not enough at arity ≥ 3). Intersect the
  // per-(relation, pos, image) fact-index bitsets — plus the equal-argument
  // bitsets for repeated source variables — so the compatible-candidate set
  // falls out of a few word-wise ANDs instead of a scalar scan over the
  // pivot's candidate list.
  FEATSEP_COVERAGE(kHomGeneralCheck);
  const std::vector<FactIndex>& rel_facts = to_.FactsOf(fact.relation);
  const std::size_t nfacts = rel_facts.size();
  if (nfacts == 0 ||
      (pivot != static_cast<std::size_t>(-1) && pivot_size == 0)) {
    FEATSEP_COVERAGE(kHomDeadFact);
    return false;
  }

  std::size_t live;
  if (pivot != static_cast<std::size_t>(-1)) {
    VarIndex pivot_var = info.vars[pivot];
    fact_scratch_ = FactBits(fact.relation, pivot, assigned_index_[pivot_var],
                             assigned_value_[pivot_var]);
    live = pivot_size;
  } else {
    if (fact_scratch_.size() != nfacts) fact_scratch_ = SvoBitset(nfacts);
    fact_scratch_.set_all();
    live = nfacts;
  }
  for (std::size_t pos = 0; pos < arity && live != 0; ++pos) {
    if (pos == pivot) continue;
    VarIndex var = info.vars[pos];
    if (assigned_value_[var] == kNoValue) continue;
    live = fact_scratch_.intersect_with_count(
        FactBits(fact.relation, pos, assigned_index_[var],
                 assigned_value_[var]));
  }
  for (const auto& [p1, p2] : info.rep_pairs) {
    if (live == 0) break;
    live = fact_scratch_.intersect_with_count(EqBits(fact.relation, p1, p2));
  }
  if (live == 0) {
    FEATSEP_COVERAGE(kHomDeadFact);
    return false;
  }
  if (!options_.forward_checking) return true;

  // Accumulate per-position supports of the compatible facts, then prune
  // the domains of this fact's unassigned variables.
  if (scratch_.size() < arity) scratch_.resize(arity);
  for (std::size_t pos = 0; pos < arity; ++pos) {
    if (assigned_value_[info.vars[pos]] != kNoValue) continue;
    if (scratch_[pos].size() != ndom_) scratch_[pos] = SvoBitset(ndom_);
    scratch_[pos].reset_all();
    const std::vector<DomIndex>& args = ArgIndex(fact.relation, pos);
    fact_scratch_.for_each(
        [&](std::size_t dense) { scratch_[pos].set(args[dense]); });
  }
  for (std::size_t pos = 0; pos < arity; ++pos) {
    VarIndex var = info.vars[pos];
    if (assigned_value_[var] != kNoValue) continue;
    if (!PruneDomain(var, scratch_[pos])) return false;
  }
  return true;
}

bool HomSearch::PruneDomain(VarIndex var, const SvoBitset& mask) {
  // Fused read-only probe first: the common no-shrink case costs one pass
  // and no copy at all.
  std::uint32_t count =
      static_cast<std::uint32_t>(domains_[var].and_count(mask));
  // Intersections only shrink, so an equal popcount means an equal set.
  if (count == domain_size_[var]) return true;
  FEATSEP_COVERAGE(kHomPrune);
  SaveDomain(var);
  domains_[var].intersect_with(mask);
  domain_size_[var] = count;
  if (count == 0) {
    FEATSEP_COVERAGE(kHomWipeout);
    return false;
  }
  return true;
}

void HomSearch::SaveDomain(VarIndex var) {
  if (saved_epoch_[var] == epoch_) return;  // Copy-on-first-write per epoch.
  saved_epoch_[var] = epoch_;
  trail_.push_back(TrailEntry{var, domains_[var], domain_size_[var]});
}

void HomSearch::UndoTo(std::size_t mark) {
  while (trail_.size() > mark) {
    TrailEntry& entry = trail_.back();
    domains_[entry.var] = std::move(entry.saved);
    domain_size_[entry.var] = entry.saved_size;
    trail_.pop_back();
  }
}

}  // namespace

HomResult FindHomomorphism(const Database& from, const Database& to,
                           const std::vector<std::pair<Value, Value>>& seed,
                           const HomOptions& options) {
  const std::size_t threads =
      options.num_threads == 0 ? HardwareThreads() : options.num_threads;
  if (threads <= 1) {
    // The classic sequential search — or, with sequential_restarts, a
    // single deterministic Luby-restart worker (the restart/nogood
    // machinery's reproducible mode). Nogoods need a store even without
    // sharing, so hang a private one off a local ParallelShared.
    HomSearch search(from, to, options);
    if (!options.sequential_restarts) {
      return search.Run(seed, nullptr, WorkerConfig{0, false, false});
    }
    ParallelShared shared;
    NogoodStore store;
    if (options.use_nogoods) shared.store = &store;
    return search.Run(seed, &shared, WorkerConfig{0, true, true});
  }

  // Intra-instance parallel search on the shared pool: worker 0 runs the
  // deterministic sequential order and is always claimed first (so the call
  // terminates exactly when the sequential search does), workers 1.. run
  // Luby-restart searches over randomized value orders, all sharing one
  // nogood store. The first definitive answer wins; found witnesses are
  // verified before they are reported, so any-time soundness never rests on
  // worker scheduling.
  ParallelShared shared;
  NogoodStore store;
  if (options.use_nogoods) shared.store = &store;

  BudgetOutcome worker_outcome = BudgetOutcome::kCompleted;
  std::mutex outcome_mutex;
  auto run_worker = [&](std::size_t w) {
    // A restart worker the pool only reaches after the race is decided
    // never builds its search state.
    if (shared.done.load(std::memory_order_acquire)) return;
    try {
      HomSearch search(from, to, options);
      HomResult result =
          search.Run(seed, &shared, WorkerConfig{w, w != 0, w != 0});
      if (result.status == HomStatus::kFound ||
          result.status == HomStatus::kNone) {
        if (result.status == HomStatus::kFound) {
          FEATSEP_CHECK(VerifyHomomorphism(from, to, result.mapping))
              << "parallel homomorphism worker produced an invalid witness";
        }
        std::lock_guard<std::mutex> lock(shared.winner_mutex);
        if (!shared.has_winner) {
          shared.has_winner = true;
          shared.winner = std::move(result);
        }
        shared.done.store(true, std::memory_order_release);
      } else {
        std::lock_guard<std::mutex> lock(outcome_mutex);
        if (worker_outcome == BudgetOutcome::kCompleted) {
          worker_outcome = result.outcome;
        }
      }
    } catch (...) {
      // ParallelFor rethrows the error (e.g., the fault harness's injected
      // bad_alloc) in the calling thread; `done` cancels the siblings.
      shared.done.store(true, std::memory_order_release);
      throw;
    }
  };
  ParallelFor(threads, threads, run_worker);

  std::uint64_t total_nodes = shared.nodes.load(std::memory_order_relaxed);
  std::uint64_t total_restarts =
      shared.restarts.load(std::memory_order_relaxed);
  if (shared.has_winner) {
    HomResult result = std::move(shared.winner);
    result.nodes = total_nodes;
    result.restarts = total_restarts;
    result.nogoods_recorded = store.size();
    result.outcome = BudgetOutcome::kCompleted;
    return result;
  }
  // Every worker was interrupted (budget, cancellation, or max_nodes).
  HomResult result;
  result.status = HomStatus::kExhausted;
  result.nodes = total_nodes;
  result.restarts = total_restarts;
  result.nogoods_recorded = store.size();
  result.outcome = options.budget != nullptr && options.budget->Interrupted()
                       ? options.budget->outcome()
                       : (worker_outcome != BudgetOutcome::kCompleted
                              ? worker_outcome
                              : BudgetOutcome::kBudgetExhausted);
  return result;
}

bool HomomorphismExists(const Database& from, const Database& to,
                        const std::vector<std::pair<Value, Value>>& seed,
                        const HomOptions& options) {
  HomResult result = FindHomomorphism(from, to, seed, options);
  FEATSEP_CHECK(result.status != HomStatus::kExhausted)
      << "homomorphism search budget exhausted";
  return result.status == HomStatus::kFound;
}

bool VerifyHomomorphism(const Database& from, const Database& to,
                        const std::vector<Value>& mapping) {
  for (Value v : from.domain()) {
    if (v >= mapping.size() || mapping[v] == kNoValue) return false;
  }
  std::vector<Value> image_args;
  for (const Fact& fact : from.facts()) {
    image_args.clear();
    image_args.reserve(fact.args.size());
    for (Value v : fact.args) image_args.push_back(mapping[v]);
    if (!to.ContainsFact(Fact{fact.relation, image_args})) return false;
  }
  return true;
}

bool HomEquivalent(const Database& from, const std::vector<Value>& from_tuple,
                   const Database& to, const std::vector<Value>& to_tuple) {
  std::optional<bool> result =
      TryHomEquivalent(from, from_tuple, to, to_tuple, nullptr);
  FEATSEP_CHECK(result.has_value());  // No budget, so never interrupted.
  return *result;
}

std::optional<bool> TryHomEquivalent(const Database& from,
                                     const std::vector<Value>& from_tuple,
                                     const Database& to,
                                     const std::vector<Value>& to_tuple,
                                     ExecutionBudget* budget,
                                     const HomOptions& base) {
  FEATSEP_CHECK_EQ(from_tuple.size(), to_tuple.size());
  std::vector<std::pair<Value, Value>> forward;
  std::vector<std::pair<Value, Value>> backward;
  for (std::size_t i = 0; i < from_tuple.size(); ++i) {
    forward.emplace_back(from_tuple[i], to_tuple[i]);
    backward.emplace_back(to_tuple[i], from_tuple[i]);
  }
  HomOptions forward_options = base;
  forward_options.prefer.clear();
  forward_options.budget = budget;
  HomResult fwd = FindHomomorphism(from, to, forward, forward_options);
  if (fwd.status == HomStatus::kExhausted) return std::nullopt;
  if (fwd.status != HomStatus::kFound) return false;
  // Replay the forward witness as the backward search's value ordering: if
  // h maps v to w, try w -> v first. When h is close to invertible this
  // lets the backward search walk straight to a witness.
  HomOptions backward_options = base;
  backward_options.prefer.clear();
  backward_options.budget = budget;
  for (Value v : from.domain()) {
    Value w = fwd.mapping[v];
    if (w != kNoValue) backward_options.prefer.emplace_back(w, v);
  }
  HomResult bwd = FindHomomorphism(to, from, backward, backward_options);
  if (bwd.status == HomStatus::kExhausted) return std::nullopt;
  return bwd.status == HomStatus::kFound;
}

}  // namespace featsep
