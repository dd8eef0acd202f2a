// Query-by-example (paper, Section 6.1) on a movie database: given people
// marked as positive and negative examples, synthesize a conjunctive query
// explaining the selection — or prove that none exists.

#include <cstdio>
#include <vector>

#include "qbe/qbe.h"
#include "workload/movies.h"

namespace {

void Explain(const featsep::Database& db,
             const std::vector<std::string>& positives,
             const std::vector<std::string>& negatives,
             const std::string& description) {
  using namespace featsep;
  QbeInstance instance;
  instance.db = &db;
  for (const std::string& name : positives) {
    instance.positives.push_back(db.FindValue(name));
  }
  for (const std::string& name : negatives) {
    instance.negatives.push_back(db.FindValue(name));
  }

  QbeResult result = SolveCqQbe(instance);  // Returns the product's core.

  std::printf("%s\n", description.c_str());
  std::printf("  S+ = {");
  for (std::size_t i = 0; i < positives.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", positives[i].c_str());
  }
  std::printf("}, S- = {");
  for (std::size_t i = 0; i < negatives.size(); ++i) {
    std::printf("%s%s", i ? ", " : "", negatives[i].c_str());
  }
  std::printf("}\n");
  std::printf("  largest product in the fold: %zu facts\n",
              result.product_facts);
  if (result.exists) {
    std::printf("  explanation: %s\n",
                result.explanation->ToString().c_str());
  } else {
    std::printf("  NO conjunctive query can explain this selection\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  auto db = featsep::MakeMovieDatabase();
  std::printf("Movie database: %zu facts over %zu people\n\n", db->size(),
              db->Entities().size());

  Explain(*db, {"ada", "bela", "dora", "fay"}, {"carlos", "emil", "gus"},
          "Who are the sci-fi actors?");
  Explain(*db, {"dora", "carlos"}, {"ada", "gus"},
          "Who directs a movie they act in?");
  Explain(*db, {"gus"}, {"ada", "emil"},
          "Who directs without acting?");
  Explain(*db, {"emil"}, {"fay"},
          "Impossible: everything true of emil is true of fay");
  return 0;
}
