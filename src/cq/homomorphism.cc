#include "cq/homomorphism.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "testing/coverage.h"
#include "testing/faults.h"
#include "util/budget.h"
#include "util/check.h"
#include "util/svo_bitset.h"

namespace featsep {

namespace {

/// Search state for FindHomomorphism and PreparedHomSearch.
///
/// The CSP is solved over dense indices on both sides: variables are
/// positions into dom(from), candidate images are positions into dom(to),
/// and every domain is an SvoBitset over the 0..|dom(to)|-1 universe. All
/// per-fact structure (variable indices per position, repeated-variable
/// position pairs) and the per-(relation, position, value) support bitsets
/// are computed once per search and reused at every node, so the inner
/// loops are word-wise bit operations. The unary constraints come from the
/// target's cached Database::position_bitsets(), shared by every search
/// into it.
///
/// A HomSearch may Run many times (PreparedHomSearch): the first Run
/// prepares the seed-independent state — variables, per-fact structure and
/// the unary-constrained base domains — and every later Run rewinds the
/// trail back to those base domains instead, keeping every lazy target
/// index built so far. Nothing is snapshotted: every domain change after
/// preparation is already on the trail.
class HomSearch {
 public:
  HomSearch(const Database& from, const Database& to) : from_(from), to_(to) {}

  /// The search for a homomorphism extending `seed`, charged one step per
  /// node to `budget` (nullptr = unbounded).
  HomResult Run(const std::vector<std::pair<Value, Value>>& seed,
                ExecutionBudget* budget);

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

  /// One backtracking frame. Candidates are copied because Assign() may
  /// shrink the live domain via a neighbor's forward check.
  struct Frame {
    VarIndex var;
    SvoBitset candidates;
    std::size_t cursor = 0;  // Next candidate bit to scan.
    std::size_t mark = 0;    // Trail mark taken before the last Assign.
    bool assigned = false;   // An Assign from this frame is in effect.
  };

  /// The seed-independent setup of the first Run. False when some variable
  /// has no candidate image at all, i.e. no seed can succeed.
  bool Prepare();
  /// Restores the post-Prepare state: base domains, nothing assigned.
  void Rewind();
  void BuildStructures();
  /// Filters every variable's domain through the unary constraints induced
  /// by its (relation, position) occurrences in `from_`, and a variable
  /// repeated inside a fact through the target's diagonal at those positions.
  bool ApplyUnaryConstraints();
  /// The backtracking search from the post-seed state: kFound leaves the
  /// witness in assigned_value_; kExhausted means the budget tripped.
  HomStatus Search();
  Frame MakeFrame(VarIndex var);
  /// Next untried candidate of `frame`, or kNoDomIndex when exhausted.
  DomIndex NextCandidate(Frame& frame);
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
  /// Per-position support bitsets of (relation, pos, image): entry p is the
  /// set of dom(to) positions of values at argument p among the `to_` facts
  /// of `relation` carrying `image` at `pos`. Built lazily, once per key.
  const std::vector<SvoBitset>& Support(RelationId relation, std::size_t pos,
                                        DomIndex image_index, Value image);

  void SaveDomain(VarIndex var);
  void UndoTo(std::size_t mark);

  const Database& from_;
  const Database& to_;
  ExecutionBudget* budget_ = nullptr;  // The current Run's budget.

  std::vector<Value> vars_;          // var index -> dom(from) element.
  std::vector<VarIndex> var_of_;     // from-value id -> var index (dense).
  const std::vector<Value>* to_dom_ = nullptr;          // index -> to-value.
  const std::vector<std::uint32_t>* to_index_ = nullptr;  // to-value -> index.
  std::size_t ndom_ = 0;             // |dom(to)|.

  std::vector<FactInfo> fact_info_;  // Indexed by FactIndex of from_.
  std::vector<std::uint32_t> degree_;  // Facts containing each variable.
  std::vector<std::uint32_t> relpos_base_;  // relation -> (rel, pos) id base.

  std::vector<SvoBitset> domains_;
  std::vector<std::uint32_t> domain_size_;  // Cached domain popcounts.
  std::vector<Value> assigned_value_;       // kNoValue if unassigned.
  std::vector<DomIndex> assigned_index_;    // Dense twin of assigned_value_.
  std::size_t unassigned_ = 0;

  // (rel, pos) id -> the to_ position index consulted for pivot sizes —
  // cached at setup so each probe is one hash find with no per-call
  // relation/pos navigation (and no O(|facts|) count-table builds).
  std::vector<const Database::PositionIndex*> pos_index_;
  // (rel, pos) id << 32 | image index -> per-position support bitsets.
  std::unordered_map<std::uint64_t, std::vector<SvoBitset>> support_cache_;

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

  // Per-position support accumulators reused across CheckFact calls
  // (general path).
  std::vector<SvoBitset> scratch_;
  Fact probe_;  // Reused tuple for all-assigned lookups.

  std::uint64_t nodes_ = 0;

  bool prepared_ = false;
  bool satisfiable_ = false;  // Prepare()'s verdict, reused by every Run.
};

HomResult HomSearch::Run(const std::vector<std::pair<Value, Value>>& seed,
                         ExecutionBudget* budget) {
  HomResult result;
  budget_ = budget;

  // A zero/expired/cancelled budget at entry: return undecided before any
  // setup work, so abandoned requests cost nothing.
  if (!RecheckBudget(budget_)) {
    result.status = HomStatus::kExhausted;
    result.outcome = budget_->outcome();
    return result;
  }

  if (prepared_) {
    Rewind();
  } else {
    prepared_ = true;
    satisfiable_ = Prepare();
  }
  if (!satisfiable_) {
    result.status = HomStatus::kNone;
    return result;
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
      return result;
    }
  }

  result.status = Search();
  result.nodes = nodes_;
  if (result.status == HomStatus::kExhausted) {
    result.outcome = budget_->outcome();
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

bool HomSearch::Prepare() {
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

  if (!vars_.empty() && ndom_ == 0) return false;

  BuildStructures();

  if (!ApplyUnaryConstraints()) {
    FEATSEP_COVERAGE(kHomUnaryWipeout);
    return false;
  }
  return true;
}

void HomSearch::Rewind() {
  UndoTo(0);
  std::fill(assigned_value_.begin(), assigned_value_.end(), kNoValue);
  std::fill(assigned_index_.begin(), assigned_index_.end(), kNoDomIndex);
  unassigned_ = vars_.size();
  nodes_ = 0;
}

void HomSearch::BuildStructures() {
  const Schema& schema = from_.schema();
  relpos_base_.resize(schema.size());
  std::uint32_t base = 0;
  for (RelationId r = 0; r < schema.size(); ++r) {
    relpos_base_[r] = base;
    base += static_cast<std::uint32_t>(schema.arity(r));
  }
  pos_index_.resize(base);
  for (RelationId r = 0; r < schema.size(); ++r) {
    for (std::size_t p = 0; p < schema.arity(r); ++p) {
      pos_index_[relpos_base_[r] + p] = &to_.PositionIndexOf(r, p);
    }
  }

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

bool HomSearch::ApplyUnaryConstraints() {
  const Database::PositionBitsets& target = to_.position_bitsets();
  for (FactIndex fi = 0; fi < from_.facts().size(); ++fi) {
    const Fact& fact = from_.fact(fi);
    const FactInfo& info = fact_info_[fi];
    for (std::size_t pos = 0; pos < fact.args.size(); ++pos) {
      domains_[info.vars[pos]].intersect_with(target.at(fact.relation, pos));
    }
    for (const auto& [p1, p2] : info.rep_pairs) {
      domains_[info.vars[p1]].intersect_with(
          target.diagonal(fact.relation, p1, p2));
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

HomSearch::Frame HomSearch::MakeFrame(VarIndex var) {
  Frame frame;
  frame.var = var;
  frame.candidates = domains_[var];
  return frame;
}

HomSearch::DomIndex HomSearch::NextCandidate(Frame& frame) {
  std::size_t bit = frame.candidates.find_next(frame.cursor);
  if (bit == SvoBitset::kNoBit) return kNoDomIndex;
  frame.cursor = bit + 1;
  return static_cast<DomIndex>(bit);
}

HomStatus HomSearch::Search() {
  if (unassigned_ == 0) {
    FEATSEP_COVERAGE(kHomFound);
    return HomStatus::kFound;
  }

  // Iterative backtracking with an explicit frame stack: sources can have
  // tens of thousands of variables (e.g., QBE products), far beyond safe
  // call-stack recursion depth.
  std::vector<Frame> stack;
  stack.push_back(MakeFrame(SelectVar()));

  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.assigned) {
      // Control returned to this frame: undo its assignment's effects.
      UndoTo(frame.mark);
      assigned_value_[frame.var] = kNoValue;
      assigned_index_[frame.var] = kNoDomIndex;
      ++unassigned_;
      frame.assigned = false;
    }
    DomIndex image = NextCandidate(frame);
    if (image == kNoDomIndex) {
      FEATSEP_COVERAGE(kHomBacktrack);
      FEATSEP_FAULT_POINT(kHomBacktrack);
      stack.pop_back();
      continue;
    }
    FEATSEP_COVERAGE(kHomNode);
    FEATSEP_FAULT_POINT(kHomNode);
    if (!ChargeBudget(budget_)) {
      FEATSEP_COVERAGE(kHomExhausted);
      return HomStatus::kExhausted;
    }
    ++nodes_;
    frame.mark = trail_.size();
    frame.assigned = true;
    if (Assign(frame.var, image)) {
      if (unassigned_ == 0) {
        FEATSEP_COVERAGE(kHomFound);
        return HomStatus::kFound;
      }
      stack.push_back(MakeFrame(SelectVar()));
    }
    // On Assign failure the loop retries this frame (undo happens above).
  }
  FEATSEP_COVERAGE(kHomNone);
  return HomStatus::kNone;
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
  // (pairwise support is not enough at arity ≥ 3), so scan the pivot's
  // candidate facts once: a fact is compatible when it carries every
  // assigned image and agrees on every repeated-variable pair, and the
  // compatible facts' arguments are the supports of the unassigned
  // positions. No fact of arity ≤ 2 reaches this path (a binary fact with
  // one assigned position and a repeated variable is already closed).
  FEATSEP_COVERAGE(kHomGeneralCheck);
  if (scratch_.size() < arity) scratch_.resize(arity);
  for (std::size_t pos = 0; pos < arity; ++pos) {
    if (assigned_value_[info.vars[pos]] != kNoValue) continue;
    if (scratch_[pos].size() != ndom_) scratch_[pos] = SvoBitset(ndom_);
    scratch_[pos].reset_all();
  }
  auto compatible = [&](const std::vector<Value>& args) {
    for (std::size_t pos = 0; pos < arity; ++pos) {
      Value image = assigned_value_[info.vars[pos]];
      if (image != kNoValue && args[pos] != image) return false;
    }
    for (const auto& [p1, p2] : info.rep_pairs) {
      if (args[p1] != args[p2]) return false;
    }
    return true;
  };
  bool live = false;
  for (FactIndex fi : to_.FactsWith(fact.relation, pivot,
                                    assigned_value_[info.vars[pivot]])) {
    const std::vector<Value>& args = to_.fact(fi).args;
    if (!compatible(args)) continue;
    live = true;
    for (std::size_t pos = 0; pos < arity; ++pos) {
      if (assigned_value_[info.vars[pos]] != kNoValue) continue;
      scratch_[pos].set((*to_index_)[args[pos]]);
    }
  }
  if (!live) {
    FEATSEP_COVERAGE(kHomDeadFact);
    return false;
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
                           ExecutionBudget* budget) {
  return HomSearch(from, to).Run(seed, budget);
}

struct PreparedHomSearch::State {
  State(const Database& from, const Database& to) : search(from, to) {}
  HomSearch search;
};

PreparedHomSearch::PreparedHomSearch(const Database& from, const Database& to)
    : state_(std::make_unique<State>(from, to)) {}

PreparedHomSearch::~PreparedHomSearch() = default;
PreparedHomSearch::PreparedHomSearch(PreparedHomSearch&&) noexcept = default;
PreparedHomSearch& PreparedHomSearch::operator=(PreparedHomSearch&&) noexcept =
    default;

HomResult PreparedHomSearch::Run(
    const std::vector<std::pair<Value, Value>>& seed, ExecutionBudget* budget) {
  return state_->search.Run(seed, budget);
}

bool HomomorphismExists(const Database& from, const Database& to,
                        const std::vector<std::pair<Value, Value>>& seed) {
  return FindHomomorphism(from, to, seed).status == HomStatus::kFound;
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
                                     ExecutionBudget* budget) {
  FEATSEP_CHECK_EQ(from_tuple.size(), to_tuple.size());
  std::vector<std::pair<Value, Value>> forward;
  std::vector<std::pair<Value, Value>> backward;
  for (std::size_t i = 0; i < from_tuple.size(); ++i) {
    forward.emplace_back(from_tuple[i], to_tuple[i]);
    backward.emplace_back(to_tuple[i], from_tuple[i]);
  }
  HomResult fwd = FindHomomorphism(from, to, forward, budget);
  if (fwd.status == HomStatus::kExhausted) return std::nullopt;
  if (fwd.status != HomStatus::kFound) return false;
  HomResult bwd = FindHomomorphism(to, from, backward, budget);
  if (bwd.status == HomStatus::kExhausted) return std::nullopt;
  return bwd.status == HomStatus::kFound;
}

}  // namespace featsep
