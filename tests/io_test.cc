#include <gtest/gtest.h>

#include "cq/containment.h"
#include "io/cq_parser.h"
#include "io/reader.h"
#include "io/writer.h"
#include "test_util.h"

namespace featsep {
namespace {

constexpr const char* kSample = R"(# a sample training database
relation Eta 1 entity
relation E 2

Eta(e1)
Eta(e2)
E(e1, a)
E(a, b)
E(e2, c)
label e1 +
label e2 -
)";

TEST(ReaderTest, ParsesTrainingDatabase) {
  auto result = ReadTrainingDatabase(kSample);
  ASSERT_TRUE(result.ok()) << result.error().message();
  const TrainingDatabase& training = *result.value();
  EXPECT_EQ(training.Entities().size(), 2u);
  EXPECT_EQ(training.database().size(), 5u);
  EXPECT_EQ(training.label(training.database().FindValue("e1")), kPositive);
  EXPECT_EQ(training.label(training.database().FindValue("e2")), kNegative);
  EXPECT_TRUE(training.IsFullyLabeled());
}

TEST(ReaderTest, ParsesPlainDatabase) {
  auto result = ReadDatabase(
      "relation R 2\n"
      "R(a, b)\n"
      "R(b, c)\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value()->size(), 2u);
  EXPECT_FALSE(result.value()->schema().has_entity_relation());
}

TEST(ReaderTest, ErrorMessagesCarryLineNumbers) {
  auto result = ReadDatabase(
      "relation R 2\n"
      "R(a)\n");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message().find("line 2"), std::string::npos);
}

TEST(ReaderTest, RejectsUnknownRelation) {
  EXPECT_FALSE(ReadDatabase("S(a)\n").ok());
}

TEST(ReaderTest, RejectsBadLabels) {
  EXPECT_FALSE(ReadTrainingDatabase("relation Eta 1 entity\n"
                                    "Eta(e)\n"
                                    "label e maybe\n")
                   .ok());
  EXPECT_FALSE(ReadTrainingDatabase("relation Eta 1 entity\n"
                                    "label ghost +\n")
                   .ok());
}

TEST(ReaderTest, RejectsASecondLabelLineForAnEntity) {
  for (const char* second : {"label e -\n", "label e +\n"}) {
    auto result = ReadTrainingDatabase(std::string("relation Eta 1 entity\n"
                                                   "Eta(e)\n"
                                                   "Eta(f)\n"
                                                   "label e +\n"
                                                   "label f -\n") +
                                       second);
    ASSERT_FALSE(result.ok()) << second;
    EXPECT_NE(result.error().message().find("line 6"), std::string::npos)
        << result.error().message();
    EXPECT_NE(result.error().message().find("line 4"), std::string::npos)
        << result.error().message();
  }
}

TEST(ReaderTest, RejectsSecondEntityRelation) {
  EXPECT_FALSE(ReadTrainingDatabase("relation Eta 1 entity\n"
                                    "relation Eta2 1 entity\n")
                   .ok());
}

TEST(ReaderTest, RejectsLabelsInPlainDatabase) {
  EXPECT_FALSE(ReadDatabase("relation Eta 1 entity\n"
                            "Eta(e)\n"
                            "label e +\n")
                   .ok());
}

TEST(WriterTest, RoundTripsTrainingDatabase) {
  auto original = ReadTrainingDatabase(kSample);
  ASSERT_TRUE(original.ok());
  std::string text = WriteTrainingDatabase(*original.value());
  auto reparsed = ReadTrainingDatabase(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.error().message();
  EXPECT_EQ(reparsed.value()->database().size(),
            original.value()->database().size());
  EXPECT_EQ(reparsed.value()->Entities().size(), 2u);
  EXPECT_EQ(
      reparsed.value()->label(reparsed.value()->database().FindValue("e1")),
      kPositive);
}

TEST(CqParserTest, ParsesFeatureQuery) {
  auto schema = testing::GraphSchema();
  auto parsed = ParseCq(schema, "q(x) :- Eta(x), E(x, y), E(y, z)");
  ASSERT_TRUE(parsed.ok()) << parsed.error().message();
  EXPECT_TRUE(parsed.value().IsUnary());
  EXPECT_EQ(parsed.value().NumAtoms(false), 2u);
  EXPECT_EQ(parsed.value().ToString(), "q(x) :- Eta(x), E(x, y), E(y, z)");
}

TEST(CqParserTest, RoundTripsToString) {
  auto schema = testing::GraphSchema();
  ConjunctiveQuery q = ConjunctiveQuery::MakeFeatureQuery(schema);
  Variable x = q.free_variable();
  Variable y = q.NewVariable("y");
  q.AddAtom(schema->FindRelation("E"), {y, x});
  auto parsed = ParseCq(schema, q.ToString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(AreEquivalent(q, parsed.value()));
}

TEST(CqParserTest, TrueBody) {
  auto schema = testing::GraphSchema();
  auto parsed = ParseCq(schema, "q(x) :- true");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().NumAtoms(true), 0u);
}

TEST(CqParserTest, Errors) {
  auto schema = testing::GraphSchema();
  EXPECT_FALSE(ParseCq(schema, "no separator").ok());
  EXPECT_FALSE(ParseCq(schema, "q(x) :- Unknown(x)").ok());
  EXPECT_FALSE(ParseCq(schema, "q(x) :- E(x)").ok());
  EXPECT_FALSE(ParseCq(schema, "q(x, x) :- Eta(x)").ok());
}

}  // namespace
}  // namespace featsep
