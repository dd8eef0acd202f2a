#include "covergame/cover_game.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "testing/coverage.h"
#include "testing/faults.h"
#include "util/budget.h"
#include "util/check.h"
#include "util/hash.h"

namespace featsep {

namespace {

constexpr std::size_t kWordBits = 64;

/// The most tuples a hub wider than one element may number directly, as
/// digits in base to_.num_values() (1 KiB of allowed-tuple bits).
constexpr std::size_t kMaxDirectKeys = 8192;

std::size_t WordsFor(std::size_t bits) {
  return (bits + kWordBits - 1) / kWordBits;
}

/// Calls fn(i) for every set bit i of words[0, num_words).
template <typename Fn>
void ForEachBit(const std::uint64_t* words, std::size_t num_words, Fn fn) {
  for (std::size_t w = 0; w < num_words; ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      fn(w * kWordBits + static_cast<std::size_t>(__builtin_ctzll(bits)));
    }
  }
}

bool AllZero(const std::uint64_t* words, std::size_t num_words) {
  return std::all_of(words, words + num_words,
                     [](std::uint64_t w) { return w == 0; });
}

void ClearBit(std::uint64_t* words, std::size_t i) {
  words[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
}

bool TestBit(const std::uint64_t* words, std::size_t i) {
  return ((words[i / kWordBits] >> (i % kWordBits)) & 1) != 0;
}

/// Appends the bits [0, n) set, in whole words.
void AppendOnes(std::vector<std::uint64_t>* words, std::size_t n) {
  words->resize(words->size() + WordsFor(n), ~std::uint64_t{0});
  if (n % kWordBits != 0) {
    words->back() = (std::uint64_t{1} << (n % kWordBits)) - 1;
  }
}

}  // namespace

/// Dense per-hub ids for the tuples, two or more values wide, that
/// strategies project to on a hub: open addressing with linear probing over
/// (hub, tuple), each tuple read through a view's element indexes.
struct CoverGameSolver::KeyTable {
  struct Entry {
    std::uint64_t hash;
    std::uint32_t hub;
    std::uint32_t id;
    std::size_t first_value;  // values[first_value, + hub width)
  };
  std::vector<Entry> entries;
  std::vector<Value> values;
  std::vector<std::uint32_t> slots = std::vector<std::uint32_t>(64, 0);

  static std::uint64_t Hash(std::uint32_t hub, const Value* image,
                            const std::uint32_t* index, std::size_t width) {
    std::uint64_t h = hub;
    for (std::size_t j = 0; j < width; ++j) {
      h = (h ^ image[index[j]]) * 0x9E3779B97F4A7C15ULL;
      h ^= h >> 29;
    }
    return h;
  }

  /// The slot holding (hub, tuple), or the empty slot where it belongs.
  std::size_t Probe(std::uint64_t hash, std::uint32_t hub, const Value* image,
                    const std::uint32_t* index, std::size_t width) const {
    std::size_t mask = slots.size() - 1;
    for (std::size_t s = hash & mask;; s = (s + 1) & mask) {
      if (slots[s] == 0) return s;
      const Entry& entry = entries[slots[s] - 1];
      if (entry.hash != hash || entry.hub != hub) continue;
      const Value* stored = values.data() + entry.first_value;
      bool equal = true;
      for (std::size_t j = 0; equal && j < width; ++j) {
        equal = stored[j] == image[index[j]];
      }
      if (equal) return s;
    }
  }

  /// The id of a tuple interned before.
  std::uint32_t Find(std::uint32_t hub, const Value* image,
                     const std::uint32_t* index, std::size_t width) const {
    std::size_t s = Probe(Hash(hub, image, index, width), hub, image, index,
                          width);
    return entries[slots[s] - 1].id;
  }

  /// The tuple's id, numbering a new tuple with (*num_keys)++.
  std::uint32_t Intern(std::uint32_t hub, const Value* image,
                       const std::uint32_t* index, std::size_t width,
                       std::size_t* num_keys) {
    std::uint64_t hash = Hash(hub, image, index, width);
    std::size_t s = Probe(hash, hub, image, index, width);
    if (slots[s] != 0) return entries[slots[s] - 1].id;
    entries.push_back(Entry{hash, hub, static_cast<std::uint32_t>(*num_keys),
                            values.size()});
    ++*num_keys;
    for (std::size_t j = 0; j < width; ++j) values.push_back(image[index[j]]);
    slots[s] = static_cast<std::uint32_t>(entries.size());
    if (entries.size() * 2 > slots.size()) {
      slots.assign(slots.size() * 2, 0);
      std::size_t mask = slots.size() - 1;
      for (std::size_t e = 0; e < entries.size(); ++e) {
        std::size_t t = entries[e].hash & mask;
        while (slots[t] != 0) t = (t + 1) & mask;
        slots[t] = static_cast<std::uint32_t>(e + 1);
      }
    }
    return entries.back().id;
  }
};

/// One fixpoint computation's state: live strategies as one bitset per
/// position, allowed tuples as one bitset per hub, a FIFO worklist of the
/// positions whose strategies shrank since they were last propagated, and
/// epoch stamps marking the tuples a position's live strategies project to.
struct CoverGameSolver::Fixpoint {
  std::vector<std::uint64_t> live;
  std::vector<std::uint64_t> allowed;
  std::vector<std::uint32_t> worklist;
  std::size_t head = 0;
  std::vector<std::uint8_t> queued;
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;

  Fixpoint(std::vector<std::uint64_t> initial_live,
           std::vector<std::uint64_t> initial_allowed,
           std::size_t num_positions, std::size_t max_keys)
      : live(std::move(initial_live)),
        allowed(std::move(initial_allowed)),
        queued(num_positions, 0),
        stamp(max_keys, 0) {}

  void Push(std::uint32_t p) {
    if (queued[p] != 0) return;
    queued[p] = 1;
    worklist.push_back(p);
  }

  std::uint32_t NextEpoch() {
    if (++epoch == 0) {
      std::fill(stamp.begin(), stamp.end(), 0);
      epoch = 1;
    }
    return epoch;
  }
};

CoverGameSolver::CoverGameSolver(const Database& from, const Database& to,
                                 std::size_t k, ExecutionBudget* budget)
    : from_(from), to_(to), k_(k), budget_(budget) {
  FEATSEP_CHECK_GE(k, 1u) << "cover game requires k >= 1";
  FEATSEP_CHECK(from.schema() == to.schema())
      << "cover game requires equal schemas";
  if (!RecheckBudget(budget_)) {
    interrupted_ = true;
    return;
  }
  EnumeratePositions();
  for (Position& position : positions_) {
    if (interrupted_) return;
    EnumerateMaps(&position);
  }
  if (interrupted_) return;
  BuildHubs();
  if (!interrupted_) ComputeBaseFreeFixpoint();
}

void CoverGameSolver::EnumeratePositions() {
  // Enumerate all subsets of at most k facts; canonicalize by element set.
  std::unordered_set<std::vector<Value>, VectorHash<Value>> seen;
  std::vector<FactIndex> chosen;

  auto add_position = [&](const std::vector<Value>& elements) {
    if (interrupted_) return;
    if (!ChargeBudget(budget_)) {
      interrupted_ = true;
      return;
    }
    if (!seen.insert(elements).second) return;
    Position position;
    position.elements = elements;
    // Facts of `from_` whose elements all lie in `elements`.
    std::unordered_set<FactIndex> covered;
    for (Value v : elements) {
      for (FactIndex fi : from_.FactsContaining(v)) {
        if (covered.count(fi) > 0) continue;
        const Fact& fact = from_.fact(fi);
        bool inside = true;
        for (Value arg : fact.args) {
          if (!std::binary_search(elements.begin(), elements.end(), arg)) {
            inside = false;
            break;
          }
        }
        if (inside) covered.insert(fi);
      }
    }
    position.covered_facts.assign(covered.begin(), covered.end());
    std::sort(position.covered_facts.begin(), position.covered_facts.end());
    FEATSEP_COVERAGE(kCoverPosition);
    positions_.push_back(std::move(position));
  };

  // The empty position (Spoiler holding no pebbles).
  add_position({});

  // Recursive enumeration of fact subsets of size 1..k.
  auto recurse = [&](auto&& self, FactIndex next) -> void {
    if (interrupted_) return;
    if (!chosen.empty()) {
      std::vector<Value> elements;
      for (FactIndex fi : chosen) {
        for (Value v : from_.fact(fi).args) elements.push_back(v);
      }
      std::sort(elements.begin(), elements.end());
      elements.erase(std::unique(elements.begin(), elements.end()),
                     elements.end());
      add_position(elements);
    }
    if (chosen.size() == k_) return;
    for (FactIndex fi = next; fi < from_.size(); ++fi) {
      chosen.push_back(fi);
      self(self, fi + 1);
      chosen.pop_back();
    }
  };
  recurse(recurse, 0);
}

void CoverGameSolver::EnumerateMaps(Position* position) {
  const std::vector<Value>& elements = position->elements;
  position->first_image = images_.size();
  if (elements.empty()) {
    position->num_maps = 1;  // The empty map.
    return;
  }

  // Backtracking over the covered facts, choosing an image fact in `to_`
  // for each; the element map must stay consistent. Every element of the
  // position occurs in some covered fact (positions are unions of facts),
  // so a full choice determines the whole map.
  std::unordered_map<Value, std::size_t> index_of;
  for (std::size_t i = 0; i < elements.size(); ++i) index_of[elements[i]] = i;

  std::vector<Value> image(elements.size(), kNoValue);
  std::unordered_set<std::vector<Value>, VectorHash<Value>> dedup;

  auto recurse = [&](auto&& self, std::size_t fact_pos) -> void {
    if (interrupted_) return;
    if (!ChargeBudget(budget_)) {
      interrupted_ = true;
      return;
    }
    if (fact_pos == position->covered_facts.size()) {
      // All elements are determined (every element is in a covered fact).
      if (dedup.insert(image).second) {
        FEATSEP_COVERAGE(kCoverMap);
        images_.insert(images_.end(), image.begin(), image.end());
        ++position->num_maps;
      }
      return;
    }
    const Fact& fact = from_.fact(position->covered_facts[fact_pos]);
    for (FactIndex ti : to_.FactsOf(fact.relation)) {
      const Fact& target = to_.fact(ti);
      // Try to unify: each source arg must map to the target arg.
      std::vector<std::pair<std::size_t, Value>> assigned;
      bool ok = true;
      for (std::size_t pos = 0; pos < fact.args.size(); ++pos) {
        std::size_t idx = index_of.at(fact.args[pos]);
        if (image[idx] == kNoValue) {
          image[idx] = target.args[pos];
          assigned.emplace_back(idx, target.args[pos]);
        } else if (image[idx] != target.args[pos]) {
          ok = false;
          break;
        }
      }
      if (ok) self(self, fact_pos + 1);
      for (const auto& [idx, value] : assigned) {
        (void)value;
        image[idx] = kNoValue;
      }
    }
  };
  recurse(recurse, 0);
}

void CoverGameSolver::BuildHubs() {
  // The element index TryDecide seeds from.
  positions_with_.assign(from_.num_values(), {});
  for (std::uint32_t p = 0; p < positions_.size(); ++p) {
    for (Value v : positions_[p].elements) positions_with_[v].push_back(p);
  }

  // Every nonempty element subset of every position, with the positions
  // holding it as (position, subset mask) pairs; the subsets held twice or
  // more become the hubs, in first-seen order.
  std::unordered_map<std::vector<Value>, std::size_t, VectorHash<Value>>
      subset_ids;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> holders;
  std::vector<Value> subset;
  for (std::uint32_t p = 0; p < positions_.size(); ++p) {
    if (!ChargeBudget(budget_)) {
      interrupted_ = true;
      return;
    }
    const std::vector<Value>& elements = positions_[p].elements;
    FEATSEP_CHECK_LT(elements.size(), 64u)
        << "cover-game position too wide to enumerate its subsets";
    for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << elements.size());
         ++mask) {
      subset.clear();
      for (std::size_t i = 0; i < elements.size(); ++i) {
        if ((mask >> i) & 1) subset.push_back(elements[i]);
      }
      auto [it, inserted] = subset_ids.try_emplace(subset, holders.size());
      if (inserted) holders.emplace_back();
      holders[it->second].emplace_back(p, mask);
    }
  }
  for (const auto& held : holders) {
    if (held.size() < 2) continue;
    std::uint32_t hub = static_cast<std::uint32_t>(hubs_.size());
    hubs_.push_back(Hub{});
    hubs_.back().width =
        static_cast<std::size_t>(__builtin_popcountll(held[0].second));
    for (const auto& [p, mask] : held) {
      views_.push_back(View{p, hub, view_indices_.size()});
      for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1) {
        view_indices_.push_back(
            static_cast<std::uint32_t>(__builtin_ctzll(rest)));
      }
    }
  }

  // Group the views by position, and list each hub's views.
  std::stable_sort(views_.begin(), views_.end(),
                   [](const View& x, const View& y) {
                     return x.position < y.position;
                   });
  for (std::size_t v = 0; v < views_.size(); ++v) {
    Position& position = positions_[views_[v].position];
    if (position.end_view == 0) position.first_view = v;
    position.end_view = v + 1;
    ++hubs_[views_[v].hub].end_member;
  }
  std::size_t next = 0;
  for (Hub& hub : hubs_) {
    hub.first_member = next;
    next += hub.end_member;
    hub.end_member = hub.first_member;
  }
  hub_views_.resize(views_.size());
  for (std::size_t v = 0; v < views_.size(); ++v) {
    hub_views_[hubs_[views_[v].hub].end_member++] =
        static_cast<std::uint32_t>(v);
  }

  // Number the tuples of each hub.
  std::size_t n = to_.num_values();
  for (Hub& hub : hubs_) {
    std::size_t count = n;  // n^width, computed while it stays small.
    for (std::size_t j = 1; j < hub.width && count <= kMaxDirectKeys; ++j) {
      count *= n;
    }
    hub.direct = hub.width == 1 || count <= kMaxDirectKeys;
    hub.num_keys = hub.direct ? count : 0;
  }
  key_table_ = std::make_unique<KeyTable>();
  for (const View& view : views_) {
    Hub& hub = hubs_[view.hub];
    if (hub.direct) continue;
    if (!ChargeBudget(budget_)) {
      interrupted_ = true;
      return;
    }
    const Position& position = positions_[view.position];
    for (std::size_t m = 0; m < position.num_maps; ++m) {
      key_table_->Intern(view.hub, Image(position, m),
                         view_indices_.data() + view.first_index, hub.width,
                         &hub.num_keys);
    }
  }
  for (const Hub& hub : hubs_) max_keys_ = std::max(max_keys_, hub.num_keys);
}

std::uint32_t CoverGameSolver::Key(const View& view, std::size_t map) const {
  const Value* image = Image(positions_[view.position], map);
  const std::uint32_t* index = view_indices_.data() + view.first_index;
  const Hub& hub = hubs_[view.hub];
  if (!hub.direct) {
    return key_table_->Find(view.hub, image, index, hub.width);
  }
  std::uint32_t key = image[index[hub.width - 1]];
  for (std::size_t j = hub.width - 1; j-- > 0;) {
    key = key * static_cast<std::uint32_t>(to_.num_values()) + image[index[j]];
  }
  return key;
}

void CoverGameSolver::ComputeBaseFreeFixpoint() {
  std::vector<std::uint64_t> live;
  for (Position& position : positions_) {
    if (position.num_maps == 0) base_free_lost_ = true;
    position.first_word = live.size();
    AppendOnes(&live, position.num_maps);
  }
  if (base_free_lost_) return;
  std::vector<std::uint64_t> allowed;
  for (Hub& hub : hubs_) {
    hub.first_word = allowed.size();
    AppendOnes(&allowed, hub.num_keys);
  }
  Fixpoint fixpoint(std::move(live), std::move(allowed), positions_.size(),
                    max_keys_);
  for (std::uint32_t p = 0; p < positions_.size(); ++p) fixpoint.Push(p);
  switch (Propagate(&fixpoint)) {
    case Propagation::kStable:
      base_free_live_ = std::move(fixpoint.live);
      base_free_allowed_ = std::move(fixpoint.allowed);
      break;
    case Propagation::kLost:
      base_free_lost_ = true;
      break;
    case Propagation::kInterrupted:
      interrupted_ = true;
      break;
  }
}

CoverGameSolver::Propagation CoverGameSolver::Propagate(
    Fixpoint* fixpoint) const {
  while (fixpoint->head < fixpoint->worklist.size()) {
    std::uint32_t p = fixpoint->worklist[fixpoint->head++];
    fixpoint->queued[p] = 0;
    FEATSEP_COVERAGE(kCoverFixpointRound);
    FEATSEP_FAULT_POINT(kCoverFixpointRound);
    if (!ChargeBudget(budget_)) return Propagation::kInterrupted;
    const Position& position = positions_[p];
    const std::uint64_t* live = fixpoint->live.data() + position.first_word;
    std::size_t live_words = WordsFor(position.num_maps);
    for (std::size_t v = position.first_view; v < position.end_view; ++v) {
      if (!ChargeBudget(budget_)) return Propagation::kInterrupted;
      const View& view = views_[v];
      const Hub& hub = hubs_[view.hub];
      // Narrow the hub to the tuples p's live strategies still project to.
      std::uint32_t epoch = fixpoint->NextEpoch();
      ForEachBit(live, live_words, [&](std::size_t m) {
        fixpoint->stamp[Key(view, m)] = epoch;
      });
      std::uint64_t* allowed = fixpoint->allowed.data() + hub.first_word;
      bool narrowed = false;
      ForEachBit(allowed, WordsFor(hub.num_keys), [&](std::size_t key) {
        if (fixpoint->stamp[key] != epoch) {
          ClearBit(allowed, key);
          narrowed = true;
        }
      });
      if (!narrowed) continue;
      // Revise the other positions holding the hub.
      for (std::size_t i = hub.first_member; i < hub.end_member; ++i) {
        const View& member = views_[hub_views_[i]];
        if (member.position == p) continue;
        if (!ChargeBudget(budget_)) return Propagation::kInterrupted;
        const Position& other = positions_[member.position];
        std::uint64_t* other_live = fixpoint->live.data() + other.first_word;
        std::size_t other_words = WordsFor(other.num_maps);
        bool shrank = false;
        ForEachBit(other_live, other_words, [&](std::size_t m) {
          if (!TestBit(allowed, Key(member, m))) {
            ClearBit(other_live, m);
            shrank = true;
          }
        });
        if (!shrank) continue;
        FEATSEP_COVERAGE(kCoverStrategyDeleted);
        if (AllZero(other_live, other_words)) {
          FEATSEP_COVERAGE(kCoverLose);
          return Propagation::kLost;
        }
        fixpoint->Push(member.position);
      }
    }
  }
  return Propagation::kStable;
}

std::size_t CoverGameSolver::num_candidate_strategies() const {
  std::size_t total = 0;
  for (const Position& position : positions_) total += position.num_maps;
  return total;
}

CoverGameSolver::~CoverGameSolver() = default;

bool CoverGameSolver::Decide(const std::vector<Value>& a_tuple,
                             const std::vector<Value>& b_tuple) const {
  Budgeted<bool> result = TryDecide(a_tuple, b_tuple);
  FEATSEP_CHECK(result.ok())
      << "unbudgeted cover-game entry point interrupted; use TryDecide";
  return result.value;
}

Budgeted<bool> CoverGameSolver::TryDecide(
    const std::vector<Value>& a_tuple,
    const std::vector<Value>& b_tuple) const {
  FEATSEP_CHECK_EQ(a_tuple.size(), b_tuple.size());
  Budgeted<bool> result;
  result.value = false;
  // A solver whose tables were truncated by the budget, or a budget already
  // tripped at entry, cannot decide anything.
  if (interrupted_ || !RecheckBudget(budget_)) {
    result.outcome = OutcomeOf(budget_);
    return result;
  }
  if (base_free_lost_) {
    FEATSEP_COVERAGE(kCoverLose);
    return result;
  }

  // Base map ā → b̄; must be functional.
  std::vector<std::pair<Value, Value>> base;
  auto base_image = [&](Value v) {
    for (const auto& [a, b] : base) {
      if (a == v) return b;
    }
    return kNoValue;
  };
  for (std::size_t i = 0; i < a_tuple.size(); ++i) {
    Value image = base_image(a_tuple[i]);
    if (image == kNoValue) {
      base.emplace_back(a_tuple[i], b_tuple[i]);
    } else if (image != b_tuple[i]) {
      FEATSEP_COVERAGE(kCoverBaseReject);
      return result;
    }
  }

  // Facts touching ā (candidates for the mixed / pure-ā checks).
  std::vector<FactIndex> touching_a;
  for (const auto& [a, b] : base) {
    (void)b;
    if (a < from_.num_values()) {
      const std::vector<FactIndex>& facts = from_.FactsContaining(a);
      touching_a.insert(touching_a.end(), facts.begin(), facts.end());
    }
  }
  std::sort(touching_a.begin(), touching_a.end());
  touching_a.erase(std::unique(touching_a.begin(), touching_a.end()),
                   touching_a.end());

  // Pure-ā facts must be preserved by the base map alone.
  for (FactIndex fi : touching_a) {
    const Fact& fact = from_.fact(fi);
    bool pure = true;
    std::vector<Value> args;
    args.reserve(fact.args.size());
    for (Value v : fact.args) {
      Value image = base_image(v);
      if (image == kNoValue) {
        pure = false;
        break;
      }
      args.push_back(image);
    }
    if (pure && !to_.ContainsFact(Fact{fact.relation, std::move(args)})) {
      FEATSEP_COVERAGE(kCoverBaseReject);
      return result;
    }
  }

  // Only the positions holding an element of a fact touching ā can meet ā
  // or a mixed fact; every other position keeps its G₀ strategies.
  std::vector<std::uint32_t> filtered;
  for (FactIndex fi : touching_a) {
    for (Value v : from_.fact(fi).args) {
      const std::vector<std::uint32_t>& holders = positions_with_[v];
      filtered.insert(filtered.end(), holders.begin(), holders.end());
    }
  }
  std::sort(filtered.begin(), filtered.end());
  filtered.erase(std::unique(filtered.begin(), filtered.end()),
                 filtered.end());

  Fixpoint fixpoint(base_free_live_, base_free_allowed_, positions_.size(),
                    max_keys_);
  for (std::uint32_t p : filtered) {
    const Position& position = positions_[p];
    const std::vector<Value>& elements = position.elements;

    // Mixed facts: touch ā, lie inside S ∪ set(ā), and use ≥1 element of
    // S \ set(ā) (pure-ā facts were already checked above).
    std::vector<FactIndex> mixed;
    for (FactIndex fi : touching_a) {
      const Fact& fact = from_.fact(fi);
      bool inside = true;
      bool uses_s_only_element = false;
      for (Value v : fact.args) {
        bool in_a = base_image(v) != kNoValue;
        bool in_s = std::binary_search(elements.begin(), elements.end(), v);
        if (!in_a && !in_s) {
          inside = false;
          break;
        }
        if (!in_a && in_s) uses_s_only_element = true;
      }
      if (inside && uses_s_only_element) mixed.push_back(fi);
    }

    std::uint64_t* live = fixpoint.live.data() + position.first_word;
    std::size_t words = WordsFor(position.num_maps);
    bool shrank = false;
    bool interrupted = false;
    ForEachBit(live, words, [&](std::size_t m) {
      if (interrupted || !ChargeBudget(budget_)) {
        interrupted = true;
        return;
      }
      const Value* map = Image(position, m);
      // (a) Agreement with the base map on S ∩ set(ā).
      bool ok = true;
      for (std::size_t i = 0; ok && i < elements.size(); ++i) {
        Value image = base_image(elements[i]);
        if (image != kNoValue && image != map[i]) ok = false;
      }
      // (b) Preservation of mixed facts under base ∪ map.
      for (std::size_t f = 0; ok && f < mixed.size(); ++f) {
        const Fact& fact = from_.fact(mixed[f]);
        std::vector<Value> args;
        args.reserve(fact.args.size());
        for (Value v : fact.args) {
          Value image = base_image(v);
          if (image == kNoValue) {
            auto pos = std::lower_bound(elements.begin(), elements.end(), v);
            image = map[pos - elements.begin()];
          }
          args.push_back(image);
        }
        if (!to_.ContainsFact(Fact{fact.relation, std::move(args)})) {
          ok = false;
        }
      }
      if (!ok) {
        ClearBit(live, m);
        shrank = true;
      }
    });
    if (interrupted) {
      result.outcome = OutcomeOf(budget_);
      return result;
    }
    if (!shrank) continue;
    if (AllZero(live, words)) {
      FEATSEP_COVERAGE(kCoverPositionDead);
      return result;
    }
    fixpoint.Push(p);
  }

  switch (Propagate(&fixpoint)) {
    case Propagation::kStable:
      FEATSEP_COVERAGE(kCoverWin);
      result.value = true;
      return result;
    case Propagation::kLost:
      return result;
    case Propagation::kInterrupted:
      result.outcome = OutcomeOf(budget_);
      return result;
  }
  return result;
}

bool CoverGameWins(const Database& from, const std::vector<Value>& a_tuple,
                   const Database& to, const std::vector<Value>& b_tuple,
                   std::size_t k) {
  CoverGameSolver solver(from, to, k);
  return solver.Decide(a_tuple, b_tuple);
}

std::vector<std::vector<bool>> CoverPreorder(
    const Database& db, const std::vector<Value>& elements, std::size_t k) {
  CoverGameSolver solver(db, db, k);
  std::size_t n = elements.size();
  std::vector<std::vector<bool>> result(n, std::vector<bool>(n, false));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      result[i][j] =
          i == j || solver.Decide({elements[i]}, {elements[j]});
    }
  }
  return result;
}

}  // namespace featsep
