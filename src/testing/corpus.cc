#include "testing/corpus.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/cq_parser.h"
#include "io/reader.h"
#include "io/writer.h"
#include "testing/coverage.h"
#include "testing/faults.h"
#include "util/hash.h"

namespace featsep {
namespace testing {

namespace {

/// A value reference: the interned name, or "#<id>" for ids outside the
/// database (the generator's stale-seed probe).
std::string ValueRef(const Database& db, Value value) {
  if (value < db.num_values()) return db.value_name(value);
  return "#" + std::to_string(value);
}

void WriteValueList(const Database& db, const char* key,
                    const std::vector<Value>& values,
                    std::ostringstream& out) {
  if (values.empty()) return;
  out << key;
  for (Value v : values) out << " " << ValueRef(db, v);
  out << "\n";
}

void WriteDbSection(const char* name, const Database& db,
                    std::ostringstream& out) {
  out << "[" << name << "]\n" << WriteDatabase(db) << "[end]\n";
}

struct Parser {
  std::istringstream in;
  std::string line;
  std::size_t line_number = 0;

  explicit Parser(std::string_view text) : in(std::string(text)) {}

  bool NextLine() {
    while (std::getline(in, line)) {
      ++line_number;
      // Trim trailing CR from files that crossed a Windows checkout.
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      return true;
    }
    return false;
  }

  Error At(const std::string& message) const {
    return Error("corpus line " + std::to_string(line_number) + ": " +
                 message);
  }
};

Result<Database> ParseDbSection(Parser& parser) {
  std::ostringstream body;
  while (true) {
    if (!std::getline(parser.in, parser.line)) {
      return parser.At("unterminated database section");
    }
    ++parser.line_number;
    if (!parser.line.empty() && parser.line.back() == '\r') {
      parser.line.pop_back();
    }
    if (parser.line == "[end]") break;
    body << parser.line << "\n";
  }
  Result<std::shared_ptr<Database>> db = ReadDatabase(body.str());
  if (!db.ok()) return parser.At(db.error().message());
  return Database(*db.value());
}

Result<Value> ParseValueRef(Parser& parser, const Database& db,
                            const std::string& token) {
  if (!token.empty() && token[0] == '#') {
    return static_cast<Value>(std::stoull(token.substr(1)));
  }
  Value value = db.FindValue(token);
  if (value == kNoValue) {
    return parser.At("unknown value name '" + token + "'");
  }
  return value;
}

Result<Label> ParseLabelToken(Parser& parser, const std::string& token) {
  if (token == "+" || token == "+1" || token == "1") return kPositive;
  if (token == "-" || token == "-1") return kNegative;
  return parser.At("bad label '" + token + "'");
}

Result<Rational> ParseRational(Parser& parser, const std::string& token) {
  try {
    std::size_t slash = token.find('/');
    if (slash == std::string::npos) {
      return Rational(static_cast<std::int64_t>(std::stoll(token)));
    }
    std::int64_t num = std::stoll(token.substr(0, slash));
    std::int64_t den = std::stoll(token.substr(slash + 1));
    if (den == 0) return parser.At("zero denominator in '" + token + "'");
    return Rational(num) / Rational(den);
  } catch (const std::exception&) {
    return parser.At("bad rational '" + token + "'");
  }
}

std::vector<std::string> Tokens(const std::string& rest) {
  std::istringstream in(rest);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

}  // namespace

std::string SerializeFuzzInstance(const FuzzInstance& instance) {
  std::ostringstream out;
  out << "config " << FuzzConfigName(instance.config) << "\n";
  const unsigned scalars = FuzzConfigSpecOf(instance.config).scalars;
  if (scalars & kLineK) out << "k " << instance.k << "\n";
  if (scalars & kLineM) out << "m " << instance.m << "\n";
  if (scalars & kLineEll) out << "ell " << instance.ell << "\n";
  if (scalars & kLineFault) {
    out << "fault "
        << CoverageSiteName(static_cast<CoverageSite>(instance.fault_site))
        << " " << FaultKindName(static_cast<FaultKind>(instance.fault_kind))
        << " " << instance.fault_visit << "\n";
  }
  if (instance.db_a.has_value()) WriteDbSection("db_a", *instance.db_a, out);
  if (instance.db_b.has_value()) WriteDbSection("db_b", *instance.db_b, out);
  if (instance.db_c.has_value()) WriteDbSection("db_c", *instance.db_c, out);
  if (instance.query.has_value()) {
    out << "query " << instance.query->ToString() << "\n";
  }
  if (instance.query2.has_value()) {
    out << "query2 " << instance.query2->ToString() << "\n";
  }
  if (instance.db_a.has_value() && instance.db_b.has_value()) {
    for (const auto& [source, image] : instance.hom_seed) {
      out << "seed " << ValueRef(*instance.db_a, source) << " "
          << ValueRef(*instance.db_b, image) << "\n";
    }
  }
  if (instance.db_a.has_value()) {
    WriteValueList(*instance.db_a, "frozen", instance.frozen, out);
    WriteValueList(*instance.db_a, "positives", instance.positives, out);
    WriteValueList(*instance.db_a, "negatives", instance.negatives, out);
    for (const auto& [value, label] : instance.labels) {
      out << "label " << ValueRef(*instance.db_a, value) << " "
          << (label > 0 ? "+1" : "-1") << "\n";
    }
  }
  for (std::size_t i = 0; i < instance.features.size(); ++i) {
    out << "example";
    for (int f : instance.features[i]) out << " " << (f > 0 ? "+1" : "-1");
    Label label = i < instance.feature_labels.size()
                      ? instance.feature_labels[i]
                      : kPositive;
    out << " : " << (label > 0 ? "+1" : "-1") << "\n";
  }
  for (std::size_t i = 0; i < instance.lp.a.size(); ++i) {
    out << "lp_row";
    for (const Rational& c : instance.lp.a[i]) out << " " << c.ToString();
    out << " <= " << instance.lp.b[i].ToString() << "\n";
  }
  if (!instance.lp.c.empty()) {
    out << "lp_obj";
    for (const Rational& c : instance.lp.c) out << " " << c.ToString();
    out << "\n";
  }
  return out.str();
}

Result<FuzzInstance> DeserializeFuzzInstance(std::string_view text) {
  Parser parser(text);
  if (!parser.NextLine() || parser.line.rfind("config ", 0) != 0) {
    return parser.At("expected 'config <name>' first");
  }
  std::optional<FuzzConfig> config = ParseFuzzConfig(parser.line.substr(7));
  if (!config.has_value() || *config == FuzzConfig::kMixed) {
    return parser.At("bad config '" + parser.line.substr(7) + "'");
  }
  FuzzInstance instance;
  instance.config = *config;

  while (parser.NextLine()) {
    const std::string& line = parser.line;
    auto starts = [&](const char* prefix) {
      return line.rfind(prefix, 0) == 0;
    };
    // Value-referencing directives resolve names against db_a.
    if ((starts("query") || starts("frozen ") || starts("positives ") ||
         starts("negatives ") || starts("label ")) &&
        !instance.db_a.has_value()) {
      return parser.At("directive needs a [db_a] section first");
    }
    if (line == "[db_a]" || line == "[db_b]" || line == "[db_c]") {
      // ParseDbSection overwrites parser.line (and thus `line`), so pin the
      // section name first.
      const std::string section = line;
      Result<Database> db = ParseDbSection(parser);
      if (!db.ok()) return db.error();
      if (section == "[db_a]") {
        instance.db_a = std::move(db.value());
        instance.schema = instance.db_a->schema_ptr();
      } else if (section == "[db_b]") {
        instance.db_b = std::move(db.value());
      } else {
        instance.db_c = std::move(db.value());
      }
    } else if (starts("query2 ") || starts("query ")) {
      bool second = starts("query2 ");
      Result<ConjunctiveQuery> query = ParseCq(
          instance.db_a->schema_ptr(), line.substr(second ? 7 : 6));
      if (!query.ok()) return parser.At(query.error().message());
      (second ? instance.query2 : instance.query) = std::move(query.value());
    } else if (starts("seed ")) {
      if (!instance.db_a.has_value() || !instance.db_b.has_value()) {
        return parser.At("seed needs [db_a] and [db_b] first");
      }
      std::vector<std::string> tokens = Tokens(line.substr(5));
      if (tokens.size() != 2) return parser.At("seed wants two values");
      // A name that did not survive the database round trip (isolated
      // values appear in no fact) degrades to a stale id, matching the
      // generator's stale-seed probe.
      auto seed_ref = [&](const Database& db,
                          const std::string& token) -> Result<Value> {
        if (!token.empty() && token[0] != '#' &&
            db.FindValue(token) == kNoValue) {
          return static_cast<Value>(db.num_values());
        }
        return ParseValueRef(parser, db, token);
      };
      Result<Value> source = seed_ref(*instance.db_a, tokens[0]);
      if (!source.ok()) return source.error();
      Result<Value> image = seed_ref(*instance.db_b, tokens[1]);
      if (!image.ok()) return image.error();
      instance.hom_seed.emplace_back(source.value(), image.value());
    } else if (starts("frozen ") || starts("positives ") ||
               starts("negatives ")) {
      std::size_t space = line.find(' ');
      std::vector<Value>* target =
          starts("frozen ") ? &instance.frozen
          : starts("positives ") ? &instance.positives
                                 : &instance.negatives;
      for (const std::string& token : Tokens(line.substr(space + 1))) {
        // Isolated values appear in no fact and so do not survive the
        // database round trip; sanitize would drop them anyway.
        if (!token.empty() && token[0] != '#' &&
            instance.db_a->FindValue(token) == kNoValue) {
          continue;
        }
        Result<Value> value = ParseValueRef(parser, *instance.db_a, token);
        if (!value.ok()) return value.error();
        target->push_back(value.value());
      }
    } else if (starts("label ")) {
      std::vector<std::string> tokens = Tokens(line.substr(6));
      if (tokens.size() != 2) return parser.At("label wants value and sign");
      if (!tokens[0].empty() && tokens[0][0] != '#' &&
          instance.db_a->FindValue(tokens[0]) == kNoValue) {
        continue;  // Label of a value that did not survive the round trip.
      }
      Result<Value> value = ParseValueRef(parser, *instance.db_a, tokens[0]);
      if (!value.ok()) return value.error();
      Result<Label> label = ParseLabelToken(parser, tokens[1]);
      if (!label.ok()) return label.error();
      instance.labels.emplace_back(value.value(), label.value());
    } else if (starts("example ")) {
      std::vector<std::string> tokens = Tokens(line.substr(8));
      if (tokens.size() < 2 || tokens[tokens.size() - 2] != ":") {
        return parser.At("example wants 'example f1 ... : label'");
      }
      FeatureVector features;
      for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
        Result<Label> f = ParseLabelToken(parser, tokens[i]);
        if (!f.ok()) return f.error();
        features.push_back(f.value());
      }
      Result<Label> label = ParseLabelToken(parser, tokens.back());
      if (!label.ok()) return label.error();
      instance.features.push_back(std::move(features));
      instance.feature_labels.push_back(label.value());
    } else if (starts("lp_row ")) {
      std::vector<std::string> tokens = Tokens(line.substr(7));
      if (tokens.size() < 3 || tokens[tokens.size() - 2] != "<=") {
        return parser.At("lp_row wants 'lp_row c1 ... <= b'");
      }
      std::vector<Rational> row;
      for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
        Result<Rational> c = ParseRational(parser, tokens[i]);
        if (!c.ok()) return c.error();
        row.push_back(c.value());
      }
      Result<Rational> bound = ParseRational(parser, tokens.back());
      if (!bound.ok()) return bound.error();
      instance.lp.a.push_back(std::move(row));
      instance.lp.b.push_back(bound.value());
    } else if (starts("lp_obj ")) {
      for (const std::string& token : Tokens(line.substr(7))) {
        Result<Rational> c = ParseRational(parser, token);
        if (!c.ok()) return c.error();
        instance.lp.c.push_back(c.value());
      }
    } else if (starts("fault ")) {
      std::vector<std::string> tokens = Tokens(line.substr(6));
      if (tokens.size() != 3) {
        return parser.At("fault wants '<site> <kind> <visit>'");
      }
      std::optional<CoverageSite> site = CoverageSiteFromName(tokens[0]);
      if (!site.has_value()) {
        return parser.At("unknown fault site '" + tokens[0] + "'");
      }
      std::optional<FaultKind> kind = FaultKindFromName(tokens[1]);
      if (!kind.has_value()) {
        return parser.At("unknown fault kind '" + tokens[1] + "'");
      }
      instance.fault_site = static_cast<std::uint16_t>(*site);
      instance.fault_kind = static_cast<std::uint8_t>(*kind);
      try {
        instance.fault_visit = std::stoull(tokens[2]);
      } catch (const std::exception&) {
        return parser.At("bad fault visit '" + tokens[2] + "'");
      }
    } else if (starts("k ") || starts("m ") || starts("ell ")) {
      std::vector<std::string> tokens = Tokens(line);
      if (tokens.size() != 2) return parser.At("bad '" + tokens[0] + "'");
      std::size_t value = 0;
      try {
        value = static_cast<std::size_t>(std::stoull(tokens[1]));
      } catch (const std::exception&) {
        return parser.At("bad count '" + tokens[1] + "'");
      }
      if (tokens[0] == "k") instance.k = value;
      if (tokens[0] == "m") instance.m = value;
      if (tokens[0] == "ell") instance.ell = value;
    } else {
      return parser.At("unrecognized directive '" + line + "'");
    }
  }

  // LP rows must agree with the objective width for the simplex; sanitize
  // normalizes row lengths and every budget cap.
  SanitizeFuzzInstance(&instance);
  return instance;
}

std::string FuzzInstanceFileName(std::string_view serialized) {
  std::ostringstream out;
  out << std::hex;
  out.width(16);
  out.fill('0');
  out << Fnv1a64(serialized);
  return out.str() + ".fz";
}

Result<std::string> WriteFuzzInstanceFile(const std::string& dir,
                                          const FuzzInstance& instance) {
  std::string serialized = SerializeFuzzInstance(instance);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return Error("cannot create corpus dir " + dir + ": " +
                       ec.message());
  std::filesystem::path path =
      std::filesystem::path(dir) / FuzzInstanceFileName(serialized);
  std::ofstream out(path);
  out << serialized;
  if (!out.good()) return Error("cannot write " + path.string());
  return path.string();
}

Corpus::Corpus(std::string dir) : dir_(std::move(dir)) {}

std::size_t Corpus::Load(std::vector<std::string>* errors) {
  if (dir_.empty()) return 0;
  std::error_code ec;
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".fz") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::size_t loaded = 0;
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file);
    std::ostringstream text;
    text << in.rdbuf();
    Result<FuzzInstance> instance = DeserializeFuzzInstance(text.str());
    if (!instance.ok()) {
      if (errors != nullptr) {
        errors->push_back(file.string() + ": " + instance.error().message());
      }
      continue;
    }
    instances_.push_back(std::move(instance.value()));
    paths_.push_back(file.string());
    ++loaded;
  }
  return loaded;
}

Result<std::size_t> Corpus::Add(const FuzzInstance& instance) {
  std::size_t index = instances_.size();
  instances_.push_back(instance);
  paths_.emplace_back();
  if (dir_.empty()) return index;
  Result<std::string> path = WriteFuzzInstanceFile(dir_, instance);
  if (!path.ok()) return path.error();
  paths_.back() = std::move(path.value());
  return index;
}

}  // namespace testing
}  // namespace featsep
