#include "index/predicate_index.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "event/schema.h"
#include "test_util.h"
#include "workload/random_workload.h"

namespace ncps {
namespace {

class PredicateIndexTest : public ::testing::Test {
 protected:
  PredicateId add(std::string_view attr, Operator op, Value lo,
                  Value hi = {}) {
    const Predicate p{attrs_.intern(attr), op, std::move(lo), std::move(hi)};
    const PredicateId id = table_.intern(p).id;
    index_.add(id, table_.get(id));
    return id;
  }

  std::vector<PredicateId> match(const Event& e) {
    std::vector<PredicateId> out;
    index_.match(e, table_, out);
    return testing::sorted(std::move(out));
  }

  /// Reference: evaluate every live predicate against the event.
  std::vector<PredicateId> reference(const Event& e) {
    std::vector<PredicateId> out;
    table_.for_each([&](PredicateId id, const Predicate& p) {
      if (p.eval(e)) out.push_back(id);
    });
    return testing::sorted(std::move(out));
  }

  AttributeRegistry attrs_;
  PredicateTable table_;
  PredicateIndex index_;
};

TEST_F(PredicateIndexTest, MatchesAcrossAttributes) {
  const PredicateId price = add("price", Operator::Gt, Value(10));
  const PredicateId sym = add("symbol", Operator::Eq, Value("ACME"));
  add("volume", Operator::Ge, Value(1000));

  const Event e =
      EventBuilder(attrs_).set("price", 15).set("symbol", "ACME").build();
  EXPECT_EQ(match(e), testing::sorted(std::vector{price, sym}));
}

TEST_F(PredicateIndexTest, EachAttributeEvaluatedOnce) {
  // Two predicates on one attribute, one matching event value: exactly one
  // id comes back, once.
  const PredicateId low = add("x", Operator::Lt, Value(5));
  add("x", Operator::Gt, Value(100));
  const Event e = EventBuilder(attrs_).set("x", 1).build();
  EXPECT_EQ(match(e), std::vector{low});
}

TEST_F(PredicateIndexTest, NotExistsMatchesAbsence) {
  const PredicateId missing = add("gone", Operator::NotExists, Value());
  const PredicateId present = add("here", Operator::Exists, Value());
  const Event with_here = EventBuilder(attrs_).set("here", 1).build();
  EXPECT_EQ(match(with_here), testing::sorted(std::vector{missing, present}));

  const Event with_gone = EventBuilder(attrs_).set("gone", 1).build();
  EXPECT_TRUE(match(with_gone).empty());
}

TEST_F(PredicateIndexTest, EmptyEventMatchesOnlyNotExists) {
  add("a", Operator::Eq, Value(1));
  const PredicateId ne = add("a", Operator::NotExists, Value());
  EXPECT_EQ(match(Event{}), std::vector{ne});
}

TEST_F(PredicateIndexTest, RemoveNotExists) {
  const PredicateId ne = add("a", Operator::NotExists, Value());
  EXPECT_TRUE(index_.remove(ne, table_.get(ne)));
  EXPECT_FALSE(index_.remove(ne, table_.get(ne)));
  EXPECT_TRUE(match(Event{}).empty());
}

TEST_F(PredicateIndexTest, UnknownAttributeInEventIsIgnored) {
  add("a", Operator::Eq, Value(1));
  const Event e = EventBuilder(attrs_).set("zzz", 1).build();
  EXPECT_TRUE(match(e).empty());
}

TEST_F(PredicateIndexTest, RandomizedPhase1AgainstBruteForce) {
  // Predicates and events from the rich random workload; phase-1 output must
  // equal direct evaluation of every live predicate.
  RandomWorkloadConfig config;
  config.seed = 31337;
  config.attribute_presence = 0.7;  // absent attributes exercise NotExists
  RandomWorkload workload(config, attrs_, table_);

  // Register predicates by generating subscriptions and indexing their
  // unique predicates (refs held by keeping the expressions alive).
  std::vector<ast::Expr> exprs;
  std::vector<bool> indexed(1, false);
  for (int i = 0; i < 60; ++i) {
    exprs.push_back(workload.next_subscription());
    std::vector<PredicateId> preds;
    ast::collect_predicates(exprs.back().root(), preds);
    for (const PredicateId id : preds) {
      if (id.value() >= indexed.size()) indexed.resize(id.value() + 1, false);
      if (!indexed[id.value()]) {
        index_.add(id, table_.get(id));
        indexed[id.value()] = true;
      }
    }
  }
  // A handful of absence predicates on known attributes.
  add("rnd0", Operator::NotExists, Value());
  add("rnd1", Operator::NotExists, Value());

  for (int i = 0; i < 300; ++i) {
    const Event e = workload.next_event();
    EXPECT_EQ(match(e), reference(e)) << "event " << i;
  }
}

TEST_F(PredicateIndexTest, BulkLoadEquivalentToSequentialAdds) {
  // Build the same predicate population twice — add() loop vs bulk_load —
  // and require identical phase-1 output on random events.
  RandomWorkloadConfig config;
  config.seed = 4242;
  RandomWorkload workload(config, attrs_, table_);
  std::vector<ast::Expr> exprs;
  std::vector<PredicateId> unique_ids;
  std::vector<bool> seen(1, false);
  for (int i = 0; i < 80; ++i) {
    exprs.push_back(workload.next_subscription());
    std::vector<PredicateId> preds;
    ast::collect_predicates(exprs.back().root(), preds);
    for (const PredicateId id : preds) {
      if (id.value() >= seen.size()) seen.resize(id.value() + 1, false);
      if (!seen[id.value()]) {
        seen[id.value()] = true;
        unique_ids.push_back(id);
      }
    }
  }
  // A NotExists entry exercises the cross-attribute bulk arm too.
  {
    const Predicate p{attrs_.intern("bulk_gone"), Operator::NotExists,
                      Value(), Value()};
    unique_ids.push_back(table_.intern(p).id);
  }
  // Take predicate pointers only after all interning is done: the table's
  // slots may move while it grows (BulkEntry requires stable predicates).
  std::vector<PredicateIndex::BulkEntry> entries;
  for (const PredicateId id : unique_ids) {
    entries.push_back(PredicateIndex::BulkEntry{id, &table_.get(id)});
  }

  for (const auto& entry : entries) index_.add(entry.id, *entry.predicate);

  PredicateIndex bulk;
  bulk.bulk_load(entries, nullptr);

  for (int i = 0; i < 200; ++i) {
    const Event e = workload.next_event();
    std::vector<PredicateId> expected;
    index_.match(e, table_, expected);
    std::vector<PredicateId> got;
    bulk.match(e, table_, got);
    EXPECT_EQ(testing::sorted(std::move(got)),
              testing::sorted(std::move(expected)))
        << "event " << i;
  }

  // Bulk-loaded structures answer removals like incrementally built ones.
  const auto& probe = entries[entries.size() / 2];
  EXPECT_TRUE(bulk.remove(probe.id, *probe.predicate));
  EXPECT_FALSE(bulk.remove(probe.id, *probe.predicate));
}

TEST_F(PredicateIndexTest, BulkLoadIntoNonEmptyIndexMerges) {
  const PredicateId before = add("x", Operator::Lt, Value(10));
  const Predicate p{attrs_.intern("x"), Operator::Gt, Value(2), Value()};
  const PredicateId late = table_.intern(p).id;
  const PredicateIndex::BulkEntry entry{late, &table_.get(late)};
  index_.bulk_load(std::span<const PredicateIndex::BulkEntry>(&entry, 1),
                   nullptr);
  const Event e = EventBuilder(attrs_).set("x", 5).build();
  EXPECT_EQ(match(e), testing::sorted(std::vector{before, late}));
}

TEST_F(PredicateIndexTest, PostingStatsReflectCompression) {
  // Distinct Ne predicates pile into one scan-list PostingList; distinct Eq
  // operands make singleton lists — the paper-workload shape.
  for (int i = 0; i < 100; ++i) {
    add("scanny", Operator::Ne, Value(i));
  }
  for (int i = 0; i < 50; ++i) {
    add("spread", Operator::Eq, Value(i));
  }
  const PostingList::Stats stats = index_.posting_stats();
  EXPECT_GT(stats.lists, 0u);
  EXPECT_GT(stats.entries, 0u);
  // Singleton-dominated postings must beat the vector baseline.
  EXPECT_LT(stats.bytes, stats.baseline_bytes);
}

TEST_F(PredicateIndexTest, MemoryBreakdownNonEmpty) {
  add("a", Operator::Eq, Value(1));
  add("b", Operator::Lt, Value(5));
  const MemoryBreakdown mem = index_.memory();
  EXPECT_GT(mem.total(), 0u);
  EXPECT_FALSE(mem.components().empty());
}

}  // namespace
}  // namespace ncps
