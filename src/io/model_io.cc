#include "io/model_io.h"

#include <sstream>
#include <utility>
#include <vector>

#include "io/cq_parser.h"
#include "util/strings.h"

namespace featsep {

namespace {

Result<Rational> ParseRational(std::string_view text) {
  text = StripWhitespace(text);
  std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    Result<BigInt> value = BigInt::FromString(text);
    if (!value.ok()) return value.error();
    return Rational(std::move(value.value()), BigInt(1));
  }
  Result<BigInt> numerator = BigInt::FromString(text.substr(0, slash));
  if (!numerator.ok()) return numerator.error();
  Result<BigInt> denominator = BigInt::FromString(text.substr(slash + 1));
  if (!denominator.ok()) return denominator.error();
  if (denominator.value().is_zero()) {
    return Error("zero denominator in rational");
  }
  return Rational(std::move(numerator.value()),
                  std::move(denominator.value()));
}

}  // namespace

std::string WriteSeparatorModel(const SeparatorModel& model) {
  std::ostringstream out;
  for (const ConjunctiveQuery& q : model.statistic.features()) {
    out << "feature " << q.ToString() << "\n";
  }
  out << "threshold " << model.classifier.threshold().ToString() << "\n";
  for (const Rational& w : model.classifier.weights()) {
    out << "weight " << w.ToString() << "\n";
  }
  return out.str();
}

Result<SeparatorModel> ReadSeparatorModel(
    std::shared_ptr<const Schema> schema, std::string_view text) {
  std::vector<ConjunctiveQuery> features;
  std::vector<Rational> weights;
  Rational threshold;
  std::size_t threshold_line = 0;  // 0: no threshold line yet.

  std::size_t line_number = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_number;
    std::string_view line = StripWhitespace(raw_line);
    if (line.empty() || line[0] == '#') continue;
    auto error = [&](const std::string& message) {
      return Error("line " + std::to_string(line_number) + ": " + message);
    };
    if (StartsWith(line, "feature ")) {
      Result<ConjunctiveQuery> q = ParseCq(schema, line.substr(8));
      if (!q.ok()) return error(q.error().message());
      features.push_back(std::move(q.value()));
    } else if (StartsWith(line, "threshold ")) {
      if (threshold_line != 0) {
        return error("second 'threshold' line (first on line " +
                     std::to_string(threshold_line) + ")");
      }
      Result<Rational> value = ParseRational(line.substr(10));
      if (!value.ok()) return error(value.error().message());
      threshold = std::move(value.value());
      threshold_line = line_number;
    } else if (StartsWith(line, "weight ")) {
      Result<Rational> value = ParseRational(line.substr(7));
      if (!value.ok()) return error(value.error().message());
      weights.push_back(std::move(value.value()));
    } else {
      return error("expected 'feature', 'threshold', or 'weight'");
    }
  }
  if (threshold_line == 0) return Error("missing threshold");
  if (weights.size() != features.size()) {
    return Error("weight count (" + std::to_string(weights.size()) +
                 ") does not match feature count (" +
                 std::to_string(features.size()) + ")");
  }
  return SeparatorModel{Statistic(std::move(features)),
                        LinearClassifier(std::move(threshold),
                                         std::move(weights))};
}

}  // namespace featsep
