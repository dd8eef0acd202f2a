#include "io/reader.h"

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace featsep {

namespace {

struct ParsedLabel {
  std::string entity;
  Label label;
};

struct ParseState {
  Schema schema;
  std::vector<std::pair<std::string, std::vector<std::string>>> facts;
  std::vector<ParsedLabel> labels;
  // The line of each labeled entity's 'label' line.
  std::unordered_map<std::string, std::size_t> label_lines;
};

Result<bool> ParseLine(std::string_view line, std::size_t line_number,
                       ParseState* state) {
  auto error = [&](const std::string& message) {
    return Error("line " + std::to_string(line_number) + ": " + message);
  };

  line = StripWhitespace(line);
  if (line.empty() || line[0] == '#') return true;

  if (StartsWith(line, "relation ")) {
    std::vector<std::string> parts;
    for (const std::string& piece : Split(line, ' ')) {
      if (!piece.empty()) parts.push_back(piece);
    }
    if (parts.size() != 3 && parts.size() != 4) {
      return error("expected 'relation <name> <arity> [entity]'");
    }
    std::size_t arity = 0;
    for (char c : parts[2]) {
      if (c < '0' || c > '9' || arity > 1000) {
        return error("invalid arity '" + parts[2] + "'");
      }
      arity = arity * 10 + static_cast<std::size_t>(c - '0');
    }
    if (arity == 0) return error("invalid arity '" + parts[2] + "'");
    if (state->schema.FindRelation(parts[1]) != kNoRelation) {
      return error("duplicate relation '" + parts[1] + "'");
    }
    RelationId id = state->schema.AddRelation(parts[1], arity);
    if (parts.size() == 4) {
      if (parts[3] != "entity") {
        return error("expected 'entity', got '" + parts[3] + "'");
      }
      if (state->schema.has_entity_relation()) {
        return error("second entity relation");
      }
      if (arity != 1) {
        return error("entity relation must be unary");
      }
      state->schema.set_entity_relation(id);
    }
    return true;
  }

  if (StartsWith(line, "label ")) {
    std::vector<std::string> parts;
    for (const std::string& piece : Split(line, ' ')) {
      if (!piece.empty()) parts.push_back(piece);
    }
    if (parts.size() != 3) return error("expected 'label <entity> <+/->'");
    Label label;
    if (parts[2] == "+" || parts[2] == "+1") {
      label = kPositive;
    } else if (parts[2] == "-" || parts[2] == "-1") {
      label = kNegative;
    } else {
      return error("invalid label '" + parts[2] + "'");
    }
    auto [first, inserted] = state->label_lines.emplace(parts[1], line_number);
    if (!inserted) {
      return error("second 'label' line for '" + parts[1] + "' (first on line " +
                   std::to_string(first->second) + ")");
    }
    state->labels.push_back(ParsedLabel{parts[1], label});
    return true;
  }

  // Fact: Name(arg, arg, ...)
  std::size_t open = line.find('(');
  if (open == std::string_view::npos || line.back() != ')') {
    return error("expected a fact 'R(a, b)', a 'relation' declaration, a "
                 "'label' line, or a comment");
  }
  std::string name(StripWhitespace(line.substr(0, open)));
  if (name.empty()) return error("missing relation name");
  std::string_view args_text = line.substr(open + 1,
                                           line.size() - open - 2);
  std::vector<std::string> args;
  if (!StripWhitespace(args_text).empty()) {
    for (const std::string& piece : Split(args_text, ',')) {
      std::string arg(StripWhitespace(piece));
      if (arg.empty()) return error("empty argument");
      args.push_back(std::move(arg));
    }
  }
  RelationId rel = state->schema.FindRelation(name);
  if (rel == kNoRelation) return error("unknown relation '" + name + "'");
  if (state->schema.arity(rel) != args.size()) {
    return error("arity mismatch for '" + name + "'");
  }
  state->facts.emplace_back(std::move(name), std::move(args));
  return true;
}

Result<ParseState> Parse(std::string_view text) {
  ParseState state;
  std::size_t line_number = 0;
  for (const std::string& line : Split(text, '\n')) {
    ++line_number;
    Result<bool> result = ParseLine(line, line_number, &state);
    if (!result.ok()) return result.error();
  }
  return state;
}

}  // namespace

Result<std::shared_ptr<TrainingDatabase>> ReadTrainingDatabase(
    std::string_view text) {
  Result<ParseState> parsed = Parse(text);
  if (!parsed.ok()) return parsed.error();
  ParseState& state = parsed.value();
  if (!state.schema.has_entity_relation()) {
    return Error("no relation is marked 'entity'");
  }
  auto db = std::make_shared<Database>(
      std::make_shared<const Schema>(std::move(state.schema)));
  for (const auto& [name, args] : state.facts) {
    db->AddFact(name, args);
  }
  auto training = std::make_shared<TrainingDatabase>(db);
  for (const ParsedLabel& parsed_label : state.labels) {
    Value entity = db->FindValue(parsed_label.entity);
    if (entity == kNoValue || !db->IsEntity(entity)) {
      return Error("labeled value '" + parsed_label.entity +
                   "' is not an entity");
    }
    training->SetLabel(entity, parsed_label.label);
  }
  return training;
}

Result<std::shared_ptr<Database>> ReadDatabase(std::string_view text) {
  Result<ParseState> parsed = Parse(text);
  if (!parsed.ok()) return parsed.error();
  ParseState& state = parsed.value();
  if (!state.labels.empty()) {
    return Error("unexpected 'label' line in a plain database");
  }
  auto db = std::make_shared<Database>(
      std::make_shared<const Schema>(std::move(state.schema)));
  for (const auto& [name, args] : state.facts) {
    db->AddFact(name, args);
  }
  return db;
}

}  // namespace featsep
