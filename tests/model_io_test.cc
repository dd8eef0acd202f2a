#include "io/model_io.h"

#include <gtest/gtest.h>

#include "core/separability.h"
#include "test_util.h"

namespace featsep {
namespace {

using ::featsep::testing::AddEntity;
using ::featsep::testing::GraphSchema;

SeparatorModel MakeModel() {
  auto schema = GraphSchema();
  ConjunctiveQuery q1 = ConjunctiveQuery::MakeFeatureQuery(schema);
  q1.AddAtom(schema->FindRelation("E"),
             {q1.free_variable(), q1.NewVariable("y")});
  ConjunctiveQuery q2 = ConjunctiveQuery::MakeFeatureQuery(schema);
  q2.AddAtom(schema->FindRelation("E"),
             {q2.NewVariable("z"), q2.free_variable()});
  return SeparatorModel{
      Statistic({q1, q2}),
      LinearClassifier(Rational(BigInt(1), BigInt(2)),
                       {Rational(1), Rational(BigInt(-3), BigInt(4))})};
}

TEST(ModelIoTest, RoundTrip) {
  SeparatorModel model = MakeModel();
  std::string text = WriteSeparatorModel(model);
  auto parsed = ReadSeparatorModel(GraphSchema(), text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  EXPECT_EQ(parsed.value().statistic.dimension(), 2u);
  EXPECT_EQ(parsed.value().classifier.threshold(),
            Rational(BigInt(1), BigInt(2)));
  EXPECT_EQ(parsed.value().classifier.weights()[1],
            Rational(BigInt(-3), BigInt(4)));
}

TEST(ModelIoTest, RoundTrippedModelClassifiesIdentically) {
  SeparatorModel model = MakeModel();
  auto parsed = ReadSeparatorModel(GraphSchema(), WriteSeparatorModel(model));
  ASSERT_TRUE(parsed.ok());

  Database db(GraphSchema());
  Value e1 = AddEntity(db, "e1");
  Value e2 = AddEntity(db, "e2");
  testing::AddEdge(db, "e1", "x");
  testing::AddEdge(db, "y", "e2");
  Labeling original = model.Apply(db);
  Labeling reparsed = parsed.value().Apply(db);
  EXPECT_EQ(original.Get(e1), reparsed.Get(e1));
  EXPECT_EQ(original.Get(e2), reparsed.Get(e2));
}

TEST(ModelIoTest, TrainedModelSurvivesSerialization) {
  auto db = std::make_shared<Database>(GraphSchema());
  Value e1 = AddEntity(*db, "e1");
  Value e2 = AddEntity(*db, "e2");
  testing::AddEdge(*db, "e1", "a");
  TrainingDatabase training(db);
  training.SetLabel(e1, kPositive);
  training.SetLabel(e2, kNegative);
  CqmSepResult result = DecideCqmSep(training, 1);
  ASSERT_TRUE(result.separable);

  auto parsed = ReadSeparatorModel(db->schema_ptr(),
                                   WriteSeparatorModel(*result.model));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().TrainingErrors(training), 0u);
}

TEST(ModelIoTest, Errors) {
  auto schema = GraphSchema();
  EXPECT_FALSE(ReadSeparatorModel(schema, "weight 1\n").ok());
  EXPECT_FALSE(
      ReadSeparatorModel(schema, "threshold 0\nweight 1\n").ok());
  EXPECT_FALSE(ReadSeparatorModel(
                   schema, "feature q(x) :- Eta(x)\nthreshold 1/0\nweight 1\n")
                   .ok());
  EXPECT_FALSE(ReadSeparatorModel(schema, "bogus line\n").ok());
  // Valid minimal model: zero features, threshold only.
  EXPECT_TRUE(ReadSeparatorModel(schema, "threshold 0\n").ok());
}

TEST(ModelIoTest, RejectsASecondThresholdLine) {
  auto schema = GraphSchema();
  auto result = ReadSeparatorModel(schema,
                                   "feature q(x) :- Eta(x)\n"
                                   "threshold 0\n"
                                   "weight 1\n"
                                   "threshold 1\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("line 4"), std::string::npos)
      << result.error().message();
  EXPECT_NE(result.error().message().find("line 2"), std::string::npos)
      << result.error().message();
}

}  // namespace
}  // namespace featsep
