#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "relational/database.h"
#include "relational/database_ops.h"
#include "relational/schema.h"
#include "relational/training_database.h"
#include "test_util.h"
#include "util/parallel.h"
#include "util/svo_bitset.h"

namespace featsep {
namespace {

using ::featsep::testing::AddEntity;
using ::featsep::testing::GraphSchema;

TEST(SchemaTest, AddAndLookup) {
  Schema schema;
  RelationId r = schema.AddRelation("R", 2);
  RelationId s = schema.AddRelation("S", 3);
  EXPECT_EQ(schema.size(), 2u);
  EXPECT_EQ(schema.FindRelation("R"), r);
  EXPECT_EQ(schema.FindRelation("S"), s);
  EXPECT_EQ(schema.FindRelation("T"), kNoRelation);
  EXPECT_EQ(schema.arity(r), 2u);
  EXPECT_EQ(schema.name(s), "S");
  EXPECT_EQ(schema.max_arity(), 3u);
  EXPECT_FALSE(schema.has_entity_relation());
}

TEST(SchemaTest, EntityDesignation) {
  Schema schema;
  RelationId eta = schema.AddRelation("Eta", 1);
  schema.set_entity_relation(eta);
  EXPECT_TRUE(schema.has_entity_relation());
  EXPECT_EQ(schema.entity_relation(), eta);
}

TEST(SchemaTest, StructuralEquality) {
  Schema a;
  a.set_entity_relation(a.AddRelation("Eta", 1));
  a.AddRelation("E", 2);
  Schema b;
  b.set_entity_relation(b.AddRelation("Eta", 1));
  b.AddRelation("E", 2);
  EXPECT_TRUE(a == b);
  Schema c;
  c.set_entity_relation(c.AddRelation("Eta", 1));
  c.AddRelation("E", 3);
  EXPECT_FALSE(a == c);
}

TEST(DatabaseTest, InternIsIdempotent) {
  Database db(GraphSchema());
  Value a1 = db.Intern("a");
  Value a2 = db.Intern("a");
  EXPECT_EQ(a1, a2);
  EXPECT_EQ(db.FindValue("a"), a1);
  EXPECT_EQ(db.FindValue("zzz"), kNoValue);
  EXPECT_EQ(db.value_name(a1), "a");
}

TEST(DatabaseTest, FactsDeduplicate) {
  Database db(GraphSchema());
  EXPECT_TRUE(db.AddFact("E", {"a", "b"}));
  EXPECT_FALSE(db.AddFact("E", {"a", "b"}));
  EXPECT_TRUE(db.AddFact("E", {"b", "a"}));
  EXPECT_EQ(db.size(), 2u);
}

TEST(DatabaseTest, DomainTracksFactOccurrences) {
  Database db(GraphSchema());
  db.Intern("isolated");  // Interned but never in a fact.
  db.AddFact("E", {"a", "b"});
  EXPECT_EQ(db.domain().size(), 2u);
  EXPECT_TRUE(db.InDomain(db.FindValue("a")));
  EXPECT_FALSE(db.InDomain(db.FindValue("isolated")));
}

TEST(DatabaseTest, Indexes) {
  Database db(GraphSchema());
  db.AddFact("E", {"a", "b"});
  db.AddFact("E", {"a", "c"});
  db.AddFact("E", {"b", "c"});
  RelationId e = db.schema().FindRelation("E");
  Value a = db.FindValue("a");
  Value c = db.FindValue("c");
  EXPECT_EQ(db.FactsOf(e).size(), 3u);
  EXPECT_EQ(db.FactsWith(e, 0, a).size(), 2u);
  EXPECT_EQ(db.FactsWith(e, 1, c).size(), 2u);
  EXPECT_EQ(db.FactsWith(e, 1, a).size(), 0u);
  EXPECT_EQ(db.FactsContaining(a).size(), 2u);
}

TEST(DatabaseTest, FactsContainingListsRepeatedValueOnce) {
  Database db(GraphSchema());
  db.AddFact("E", {"a", "a"});
  Value a = db.FindValue("a");
  EXPECT_EQ(db.FactsContaining(a).size(), 1u);
}

TEST(DatabaseTest, Entities) {
  Database db(GraphSchema());
  AddEntity(db, "e1");
  AddEntity(db, "e2");
  db.AddFact("E", {"e1", "x"});
  EXPECT_EQ(db.Entities().size(), 2u);
  EXPECT_TRUE(db.IsEntity(db.FindValue("e1")));
  EXPECT_FALSE(db.IsEntity(db.FindValue("x")));
}

TEST(TrainingDatabaseTest, LabelingLifecycle) {
  auto db = std::make_shared<Database>(GraphSchema());
  Value e1 = AddEntity(*db, "e1");
  Value e2 = AddEntity(*db, "e2");
  TrainingDatabase training(db);
  EXPECT_FALSE(training.IsFullyLabeled());
  training.SetLabel(e1, kPositive);
  training.SetLabel(e2, kNegative);
  EXPECT_TRUE(training.IsFullyLabeled());
  EXPECT_EQ(training.label(e1), kPositive);
  EXPECT_EQ(training.PositiveExamples().size(), 1u);
  EXPECT_EQ(training.NegativeExamples().size(), 1u);
}

TEST(LabelingTest, Disagreement) {
  Labeling a;
  a.Set(0, kPositive);
  a.Set(1, kNegative);
  a.Set(2, kPositive);
  Labeling b;
  b.Set(0, kPositive);
  b.Set(1, kPositive);
  EXPECT_EQ(a.Disagreement(b), 2u);  // Entity 1 flipped, entity 2 missing.
}

TEST(DatabaseOpsTest, InducedSubdatabasePreservesIds) {
  Database db(GraphSchema());
  db.AddFact("E", {"a", "b"});
  db.AddFact("E", {"b", "c"});
  Value a = db.FindValue("a");
  Value b = db.FindValue("b");
  Database sub = InducedSubdatabase(db, {a, b});
  EXPECT_EQ(sub.size(), 1u);
  EXPECT_EQ(sub.FindValue("a"), a);
  EXPECT_EQ(sub.FindValue("b"), b);
  EXPECT_FALSE(sub.InDomain(db.FindValue("c")));
}

TEST(DatabaseOpsTest, MapDatabaseFoldsFacts) {
  Database db(GraphSchema());
  db.AddFact("E", {"a", "b"});
  db.AddFact("E", {"c", "b"});
  Value a = db.FindValue("a");
  Value b = db.FindValue("b");
  Value c = db.FindValue("c");
  std::vector<Value> mapping(db.num_values(), kNoValue);
  mapping[a] = a;
  mapping[b] = b;
  mapping[c] = a;  // Fold c onto a.
  Database mapped = MapDatabase(db, mapping);
  EXPECT_EQ(mapped.size(), 1u);  // Both facts collapse to E(a, b).
  EXPECT_TRUE(mapped.ContainsFact(Fact{db.schema().FindRelation("E"), {a, b}}));
}

TEST(DatabaseOpsTest, DisjointUnionRenamesCollisions) {
  Database a(GraphSchema());
  a.AddFact("E", {"x", "y"});
  Database b(GraphSchema());
  b.AddFact("E", {"x", "z"});
  std::vector<Value> b_map;
  Database u = DisjointUnion(a, b, "_2", &b_map);
  EXPECT_EQ(u.size(), 2u);
  EXPECT_EQ(u.domain().size(), 4u);  // x, y, x_2, z.
  EXPECT_NE(u.FindValue("x_2"), kNoValue);
  EXPECT_EQ(b_map[b.FindValue("x")], u.FindValue("x_2"));
}

TEST(DatabaseOpsTest, CopyPreservesEverything) {
  Database db(GraphSchema());
  AddEntity(db, "e");
  db.AddFact("E", {"e", "f"});
  Database copy = Copy(db);
  EXPECT_EQ(copy.size(), db.size());
  EXPECT_EQ(copy.num_values(), db.num_values());
  EXPECT_EQ(copy.FindValue("e"), db.FindValue("e"));
  EXPECT_TRUE(copy.IsEntity(copy.FindValue("e")));
}

TEST(DatabaseDigestTest, OrderAndInterningInsensitive) {
  Database a(GraphSchema());
  AddEntity(a, "e");
  a.AddFact("E", {"e", "f"});
  a.AddFact("E", {"f", "g"});

  Database b(GraphSchema());
  b.Intern("unused");  // Interned-but-factless values are not content.
  b.AddFact("E", {"f", "g"});
  b.AddFact("E", {"e", "f"});
  AddEntity(b, "e");

  EXPECT_EQ(a.ContentDigest(), b.ContentDigest());
  EXPECT_NE(a.FindValue("e"), b.FindValue("e"));  // Ids genuinely differ.
}

TEST(DatabaseDigestTest, DistinguishesContentAndTracksMutation) {
  Database a(GraphSchema());
  a.AddFact("E", {"x", "y"});
  Database b(GraphSchema());
  b.AddFact("E", {"x", "z"});
  EXPECT_NE(a.ContentDigest(), b.ContentDigest());

  std::uint64_t before = a.ContentDigest();
  a.AddFact("E", {"y", "x"});
  EXPECT_NE(a.ContentDigest(), before);  // AddFact invalidates the memo.
  EXPECT_EQ(Copy(a).ContentDigest(), a.ContentDigest());
}

TEST(DatabaseDigestTest, GoldenValuesArePinnedForever) {
  // ContentDigest() is a persistence contract: it names on-disk cache
  // entries (serve/disk_cache.h) and authenticates shard jobs between
  // processes (serve/shard_protocol.h), so its value for given content must
  // never change — across processes, platforms, standard libraries, or
  // releases of this codebase. These constants pin the explicitly specified
  // FNV-1a-64 format of DESIGN.md §13. If this test fails, do NOT update
  // the constants: you have broken every existing cache directory. Fix the
  // digest, or introduce an explicitly versioned successor.
  Database empty(GraphSchema());
  EXPECT_EQ(empty.ContentDigest(), 0x3a292af2481cd51eULL);

  EXPECT_EQ(testing::MakeWorld().ContentDigest(), 0x67e4952b86c72da1ULL);
  EXPECT_EQ(testing::MakeWorldReordered().ContentDigest(),
            0x67e4952b86c72da1ULL);

  Database one_edge(GraphSchema());
  one_edge.AddFact("E", {"x", "y"});
  EXPECT_EQ(one_edge.ContentDigest(), 0x4a9b532caa651606ULL);

  // Same (empty) fact set over a different schema: distinct digest, also
  // pinned — the schema absorption is part of the format.
  Database empty_unary(testing::UnarySchema());
  EXPECT_EQ(empty_unary.ContentDigest(), 0xdf843fa6ea075208ULL);
}

TEST(DatabaseDigestTest, SchemaShapeIsPartOfTheDigest) {
  // Same fact spelling over structurally different schemas must not
  // collide: the digest covers relation names, arities, and the entity
  // designation.
  Database graph(GraphSchema());
  AddEntity(graph, "e");
  Database unary(testing::UnarySchema());
  AddEntity(unary, "e");
  EXPECT_NE(graph.ContentDigest(), unary.ContentDigest());
}

// Eta/1, E/2 and T/3: relations with zero, one and three diagonals.
std::shared_ptr<const Schema> MixedAritySchema() {
  Schema schema;
  RelationId eta = schema.AddRelation("Eta", 1);
  schema.AddRelation("E", 2);
  schema.AddRelation("T", 3);
  schema.set_entity_relation(eta);
  return std::make_shared<const Schema>(std::move(schema));
}

// Compares db.position_bitsets() with a scan of the facts: bit i of the
// (relation, p1, p2) set, with p1 == p2 standing for at(relation, p1), holds
// iff some fact carries domain()[i] at both positions.
void ExpectBitsetsMatchScan(const Database& db) {
  const Database::PositionBitsets& bits = db.position_bitsets();
  const std::vector<Value>& dom = db.domain();
  for (RelationId r = 0; r < db.schema().size(); ++r) {
    const std::size_t arity = db.schema().arity(r);
    for (std::size_t p1 = 0; p1 < arity; ++p1) {
      for (std::size_t p2 = p1; p2 < arity; ++p2) {
        const SvoBitset& got =
            p1 == p2 ? bits.at(r, p1) : bits.diagonal(r, p1, p2);
        ASSERT_EQ(got.size(), dom.size());
        for (std::size_t i = 0; i < dom.size(); ++i) {
          bool want = false;
          for (FactIndex fi : db.FactsOf(r)) {
            const Fact& fact = db.fact(fi);
            want = want ||
                   (fact.args[p1] == dom[i] && fact.args[p2] == dom[i]);
          }
          EXPECT_EQ(got.test(i), want)
              << db.schema().name(r) << " positions " << p1 << "," << p2
              << " value " << db.value_name(dom[i]);
        }
      }
    }
  }
}

// Random AddFact/InsertFact/RemoveFact/Intern steps over a few values, so
// values enter and leave dom(D) and loops and diagonals come and go.
void MutateRandomly(Database& db, std::mt19937& rng, int steps) {
  for (int step = 0; step < steps; ++step) {
    const RelationId r = rng() % db.schema().size();
    std::vector<Value> args;
    for (std::size_t p = 0; p < db.schema().arity(r); ++p) {
      args.push_back(db.Intern("v" + std::to_string(rng() % 5)));
    }
    switch (rng() % 4) {
      case 0: db.AddFact(r, args); break;
      case 1: db.InsertFact(r, args); break;
      case 2: {
        // Remove a present fact most of the time, else a likely absent one.
        if (!db.facts().empty() && rng() % 4 != 0) {
          const Fact present = db.facts()[rng() % db.facts().size()];
          db.RemoveFact(present.relation, present.args);
        } else {
          db.RemoveFact(r, args);
        }
        break;
      }
      default: db.Intern("w" + std::to_string(step)); break;
    }
    if (rng() % 2 == 0) ExpectBitsetsMatchScan(db);
  }
}

TEST(PositionBitsetsTest, MatchAScanAfterMixedMutations) {
  for (std::uint32_t seed = 1; seed <= 8; ++seed) {
    std::mt19937 rng(seed);
    Database db(MixedAritySchema());
    MutateRandomly(db, rng, 60);
    ExpectBitsetsMatchScan(db);
  }
}

TEST(PositionBitsetsTest, MatchAScanAfterCopyAndMove) {
  std::mt19937 rng(7);
  Database db(MixedAritySchema());
  MutateRandomly(db, rng, 40);
  ExpectBitsetsMatchScan(db);  // Warm the source's cache.

  Database copy(db);
  ExpectBitsetsMatchScan(copy);
  // A copy mutates apart from its source.
  MutateRandomly(copy, rng, 20);
  ExpectBitsetsMatchScan(copy);
  ExpectBitsetsMatchScan(db);

  // Assignment replaces a warm cache of other content.
  Database assigned(MixedAritySchema());
  assigned.AddFact("T", {"a", "a", "b"});
  ExpectBitsetsMatchScan(assigned);
  assigned = db;
  ExpectBitsetsMatchScan(assigned);

  Database moved(std::move(copy));
  ExpectBitsetsMatchScan(moved);
  MutateRandomly(moved, rng, 20);
  ExpectBitsetsMatchScan(moved);
  assigned = std::move(moved);
  ExpectBitsetsMatchScan(assigned);
}

TEST(DatabaseConcurrencyTest, ColdPositionBitsetsBuildSafelyUnderParallelFor) {
  // Several threads hit a cold database's position bitsets at once, some
  // after domain() and some before it; all must see the one built cache.
  for (int round = 0; round < 4; ++round) {
    Database db(MixedAritySchema());
    std::mt19937 rng(100 + round);
    for (int i = 0; i < 40; ++i) {
      const RelationId r = 1 + rng() % 2;
      std::vector<Value> args;
      for (std::size_t p = 0; p < db.schema().arity(r); ++p) {
        args.push_back(db.Intern("v" + std::to_string(rng() % 8)));
      }
      db.AddFact(r, std::move(args));
    }

    std::vector<std::size_t> counts(16, 0);
    ParallelFor(8, 16, [&](std::size_t i) {
      if (i % 2 == 0) (void)db.domain();
      const Database::PositionBitsets& bits = db.position_bitsets();
      counts[i] = bits.at(1, 0).count() + bits.at(2, 2).count() +
                  bits.diagonal(1, 0, 1).count() +
                  bits.diagonal(2, 0, 2).count();
    });
    for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(counts[i], counts[0]);
    ExpectBitsetsMatchScan(db);
  }
}

TEST(DatabaseConcurrencyTest, ColdLazyCachesBuildSafelyUnderParallelFor) {
  // Regression for the removed "warm caches before the parallel region"
  // caveat: the first domain()/domain_index()/ContentDigest() calls may now
  // happen concurrently from pool workers on a cold database. Run under
  // TSan/ASan to make a data race loud.
  for (int round = 0; round < 4; ++round) {
    Database db(GraphSchema());
    AddEntity(db, "e0");
    AddEntity(db, "e1");
    testing::AddEdge(db, "e0", "m");
    testing::AddEdge(db, "m", "e1");

    std::vector<std::size_t> domain_sizes(16, 0);
    std::vector<std::uint64_t> digests(16, 0);
    ParallelFor(8, 16, [&](std::size_t i) {
      domain_sizes[i] = db.domain().size();
      digests[i] = db.ContentDigest();
      // domain_index() must be consistent with the domain it indexes.
      for (Value v : db.domain()) {
        (void)db.domain_index()[v];
      }
    });
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(domain_sizes[i], domain_sizes[0]);
      EXPECT_EQ(digests[i], digests[0]);
    }
    EXPECT_EQ(domain_sizes[0], db.domain().size());
  }
}

}  // namespace
}  // namespace featsep

