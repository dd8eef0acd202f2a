// featsep command-line tool: run the paper's separability, feature
// generation, classification, relabeling, and query-by-example algorithms
// on databases in the featsep text format (see src/io/reader.h).
//
// Usage:
//   featsep_cli sep <training-file>
//       Separability report: CQ-SEP, GHW(1)/GHW(2)-SEP, CQ[1..3]-SEP.
//   featsep_cli train <training-file> <m> <model-file>
//       Generate a CQ[m] statistic + classifier and save it.
//   featsep_cli classify <training-file> <model-file> <db-file>
//       Apply a saved model to a database; prints one label per entity.
//   featsep_cli relabel <training-file> <k>
//       Algorithm 2: optimal GHW(k)-consistent relabeling.
//   featsep_cli qbe <db-file> +<entity> ... -<entity> ...
//       CQ query-by-example over the marked examples.
//
// <m> and <k> are plain decimal counts, and <k> is at least 1. A malformed
// count, a missing or unknown command, or a wrong argument count exits 2
// with the usage text before any file is read; other failures exit 1.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/ghw_separability.h"
#include "core/separability.h"
#include "io/model_io.h"
#include "io/reader.h"
#include "io/writer.h"
#include "qbe/qbe.h"
#include "util/strings.h"

namespace {

using namespace featsep;

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

constexpr char kUsage[] =
    "usage: featsep_cli sep <training-file>\n"
    "       featsep_cli train <training-file> <m> <model-file>\n"
    "       featsep_cli classify <training-file> <model-file> <db-file>\n"
    "       featsep_cli relabel <training-file> <k>\n"
    "       featsep_cli qbe <db-file> +<entity> ... -<entity> ...\n";

int Fail(const std::string& message) {
  std::fprintf(stderr, "featsep_cli: %s\n", message.c_str());
  return 1;
}

int UsageError(const std::string& message) {
  std::fprintf(stderr, "featsep_cli: %s\n%s", message.c_str(), kUsage);
  return 2;
}

int CmdSep(const std::string& path) {
  std::string text;
  if (!ReadFile(path, &text)) return Fail("cannot read " + path);
  auto training = ReadTrainingDatabase(text);
  if (!training.ok()) return Fail(training.error().message());

  CqSepResult cq = DecideCqSep(*training.value());
  std::printf("CQ-SEP:      %s\n", cq.separable ? "separable" : "NOT separable");
  if (cq.conflict.has_value()) {
    const Database& db = training.value()->database();
    std::printf("  conflict: %s vs %s (hom-equivalent, labels differ)\n",
                db.value_name(cq.conflict->first).c_str(),
                db.value_name(cq.conflict->second).c_str());
  }
  for (std::size_t k = 1; k <= 2; ++k) {
    GhwSepResult ghw = DecideGhwSep(*training.value(), k);
    std::printf("GHW(%zu)-SEP:  %s\n", k,
                ghw.separable ? "separable" : "NOT separable");
  }
  for (std::size_t m = 1; m <= 3; ++m) {
    CqmSepResult result = DecideCqmSep(*training.value(), m, 2);
    std::printf("CQ[%zu]-SEP:   %s (%zu features searched)\n", m,
                result.separable ? "separable" : "NOT separable",
                result.features_enumerated);
    if (result.separable) break;
  }
  return 0;
}

int CmdTrain(const std::string& training_path, std::size_t m,
             const std::string& model_path) {
  std::string text;
  if (!ReadFile(training_path, &text)) {
    return Fail("cannot read " + training_path);
  }
  auto training = ReadTrainingDatabase(text);
  if (!training.ok()) return Fail(training.error().message());

  CqmSepResult result = DecideCqmSep(*training.value(), m);
  if (!result.separable) {
    return Fail("training database is not CQ[" + std::to_string(m) +
                "]-separable");
  }
  std::ofstream out(model_path);
  if (!out) return Fail("cannot write " + model_path);
  out << WriteSeparatorModel(*result.model);
  std::printf("model with %zu features written to %s\n",
              result.model->statistic.dimension(), model_path.c_str());
  return 0;
}

int CmdClassify(const std::string& training_path,
                const std::string& model_path, const std::string& db_path) {
  std::string training_text;
  std::string model_text;
  std::string db_text;
  if (!ReadFile(training_path, &training_text)) {
    return Fail("cannot read " + training_path);
  }
  if (!ReadFile(model_path, &model_text)) {
    return Fail("cannot read " + model_path);
  }
  if (!ReadFile(db_path, &db_text)) return Fail("cannot read " + db_path);

  // The schema travels with the training file.
  auto training = ReadTrainingDatabase(training_text);
  if (!training.ok()) return Fail(training.error().message());
  auto schema = training.value()->database().schema_ptr();
  auto model = ReadSeparatorModel(schema, model_text);
  if (!model.ok()) return Fail(model.error().message());
  auto db = ReadDatabase(db_text);
  if (!db.ok()) return Fail(db.error().message());

  Labeling predicted = model.value().Apply(*db.value());
  for (Value e : db.value()->Entities()) {
    std::printf("%s %s\n", db.value()->value_name(e).c_str(),
                predicted.Get(e) == kPositive ? "+" : "-");
  }
  return 0;
}

int CmdRelabel(const std::string& path, std::size_t k) {
  std::string text;
  if (!ReadFile(path, &text)) return Fail("cannot read " + path);
  auto training = ReadTrainingDatabase(text);
  if (!training.ok()) return Fail(training.error().message());

  GhwRelabelResult result = GhwOptimalRelabel(*training.value(), k);
  std::printf("# optimal GHW(%zu)-consistent relabeling, disagreement %zu\n",
              k, result.disagreement);
  const Database& db = training.value()->database();
  for (Value e : training.value()->Entities()) {
    std::printf("label %s %s\n", db.value_name(e).c_str(),
                result.relabeled.Get(e) == kPositive ? "+" : "-");
  }
  return 0;
}

int CmdQbe(const std::string& path, const std::vector<std::string>& marks) {
  std::string text;
  if (!ReadFile(path, &text)) return Fail("cannot read " + path);
  // Accept both plain databases and training files (labels ignored).
  std::shared_ptr<Database> database;
  auto as_training = ReadTrainingDatabase(text);
  if (as_training.ok()) {
    database = as_training.value()->database_ptr();
  } else {
    auto db = ReadDatabase(text);
    if (!db.ok()) return Fail(db.error().message());
    database = db.value();
  }

  QbeInstance instance;
  instance.db = database.get();
  for (const std::string& mark : marks) {
    if (mark.size() < 2 || (mark[0] != '+' && mark[0] != '-')) {
      return Fail("examples must look like +name or -name: " + mark);
    }
    Value v = database->FindValue(mark.substr(1));
    if (v == kNoValue) return Fail("unknown value " + mark.substr(1));
    if (mark[0] == '+') {
      instance.positives.push_back(v);
    } else {
      instance.negatives.push_back(v);
    }
  }
  if (instance.positives.empty()) return Fail("need at least one +example");

  QbeResult result = SolveCqQbe(instance);
  if (!result.exists) {
    std::printf("no conjunctive query explains this selection\n");
    return 0;
  }
  std::printf("%s\n", result.explanation->ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return UsageError("missing command");
  const std::string& command = args[0];
  if (command == "sep" && args.size() == 2) return CmdSep(args[1]);
  if (command == "train" && args.size() == 4) {
    std::size_t m = 0;
    if (!ParseWhole(args[2], &m)) {
      return UsageError("bad value for <m>: '" + args[2] + "'");
    }
    return CmdTrain(args[1], m, args[3]);
  }
  if (command == "classify" && args.size() == 4) {
    return CmdClassify(args[1], args[2], args[3]);
  }
  if (command == "relabel" && args.size() == 3) {
    std::size_t k = 0;
    if (!ParseWhole(args[2], &k) || k == 0) {  // GHW(k) needs k >= 1.
      return UsageError("bad value for <k>: '" + args[2] + "'");
    }
    return CmdRelabel(args[1], k);
  }
  if (command == "qbe" && args.size() >= 3) {
    return CmdQbe(args[1], {args.begin() + 2, args.end()});
  }
  return UsageError("bad arguments for '" + command + "'");
}
