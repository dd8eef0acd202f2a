#include "linsep/perceptron.h"

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace featsep {

namespace {

/// Total mistake-driven updates before giving up.
constexpr std::size_t kMaxUpdates = 20000;
constexpr std::uint64_t kSeed = 1;

/// xorshift64* PRNG; deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed == 0 ? 0x9e3779b9 : seed) {}
  std::uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dULL;
  }
  std::size_t Below(std::size_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

std::size_t CountErrors(const std::vector<std::vector<int>>& augmented,
                        const std::vector<Label>& labels,
                        const std::vector<std::int64_t>& weights) {
  std::size_t errors = 0;
  for (std::size_t i = 0; i < augmented.size(); ++i) {
    std::int64_t score = 0;
    for (std::size_t j = 0; j < weights.size(); ++j) {
      score += weights[j] * augmented[i][j];
    }
    Label predicted = score >= 0 ? kPositive : kNegative;
    if (predicted != labels[i]) ++errors;
  }
  return errors;
}

}  // namespace

std::pair<LinearClassifier, std::size_t> PocketPerceptron(
    const TrainingCollection& examples) {
  if (examples.empty()) {
    return {LinearClassifier(Rational(0), {}), 0};
  }
  std::size_t n = examples[0].first.size();

  // Augment with a constant feature +1 carrying -w₀: predict +1 iff
  // Σ wⱼbⱼ - w₀ ≥ 0 i.e. u·x' ≥ 0 with u = (w₁..wₙ, -w₀), x' = (b̄, 1).
  std::vector<std::vector<int>> augmented;
  std::vector<Label> labels;
  augmented.reserve(examples.size());
  for (const auto& [features, label] : examples) {
    FEATSEP_CHECK_EQ(features.size(), n);
    std::vector<int> x = features;
    x.push_back(1);
    augmented.push_back(std::move(x));
    labels.push_back(label);
  }

  std::vector<std::int64_t> weights(n + 1, 0);
  std::vector<std::int64_t> pocket = weights;
  std::size_t pocket_errors = CountErrors(augmented, labels, weights);

  Rng rng(kSeed);
  std::size_t updates = 0;
  std::size_t streak = 0;  // Consecutive correct random probes.
  while (updates < kMaxUpdates && pocket_errors > 0) {
    std::size_t i = rng.Below(augmented.size());
    std::int64_t score = 0;
    for (std::size_t j = 0; j <= n; ++j) score += weights[j] * augmented[i][j];
    Label predicted = score >= 0 ? kPositive : kNegative;
    if (predicted == labels[i]) {
      // Long streaks suggest improvement; re-evaluate for the pocket.
      if (++streak >= augmented.size()) {
        streak = 0;
        std::size_t errors = CountErrors(augmented, labels, weights);
        if (errors < pocket_errors) {
          pocket = weights;
          pocket_errors = errors;
        }
      }
      continue;
    }
    streak = 0;
    for (std::size_t j = 0; j <= n; ++j) {
      weights[j] += static_cast<std::int64_t>(labels[i]) * augmented[i][j];
    }
    ++updates;
    std::size_t errors = CountErrors(augmented, labels, weights);
    if (errors < pocket_errors) {
      pocket = weights;
      pocket_errors = errors;
    }
  }

  std::vector<Rational> w;
  w.reserve(n);
  for (std::size_t j = 0; j < n; ++j) w.emplace_back(pocket[j]);
  Rational threshold(-pocket[n]);
  LinearClassifier classifier(threshold, std::move(w));
  return {classifier, pocket_errors};
}

}  // namespace featsep
