#include "linsep/linear_classifier.h"

#include <sstream>
#include <utility>

#include "util/check.h"

namespace featsep {

LinearClassifier::LinearClassifier(Rational threshold,
                                   std::vector<Rational> weights)
    : threshold_(std::move(threshold)), weights_(std::move(weights)) {}

Label LinearClassifier::Classify(const FeatureVector& features) const {
  FEATSEP_CHECK_EQ(features.size(), weights_.size())
      << "feature vector arity mismatch";
  Rational sum = 0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    FEATSEP_CHECK(features[i] == 1 || features[i] == -1)
        << "feature entries must be +1/-1";
    // Most weights of a presolved separator are 0, and exact rational
    // addition is not free even then.
    if (weights_[i].is_zero()) continue;
    if (features[i] == 1) {
      sum += weights_[i];
    } else {
      sum -= weights_[i];
    }
  }
  return sum >= threshold_ ? kPositive : kNegative;
}

std::size_t LinearClassifier::CountErrors(
    const std::vector<std::pair<FeatureVector, Label>>& examples) const {
  std::size_t errors = 0;
  for (const auto& [features, label] : examples) {
    if (Classify(features) != label) ++errors;
  }
  return errors;
}

std::string LinearClassifier::ToString() const {
  std::ostringstream out;
  out << "Lambda(w0=" << threshold_.ToString();
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    out << ", w" << (i + 1) << "=" << weights_[i].ToString();
  }
  out << ")";
  return out.str();
}

}  // namespace featsep
