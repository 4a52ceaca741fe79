// SharedForest unit tests: hash-cons identity, refcount lifecycle, parent
// edges, static truth, quarantine and compaction — the invariants the
// forest-backed NonCanonicalEngine builds on.
#include "subscription/shared_forest.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "broker/sharded_broker.h"
#include "subscription/parser.h"
#include "test_util.h"

namespace ncps {
namespace {

using NodeId = SharedForest::NodeId;

class SharedForestTest : public ::testing::Test {
 protected:
  SharedForestTest()
      : forest_([this](PredicateId p) { created_.push_back(p); },
                [this](PredicateId p) { released_.push_back(p); }) {}

  ast::Expr parse(std::string_view text) {
    return parse_subscription(text, attrs_, table_);
  }

  AttributeRegistry attrs_;
  PredicateTable table_;
  SharedForest forest_;
  std::vector<PredicateId> created_;
  std::vector<PredicateId> released_;
};

TEST_F(SharedForestTest, InternDedupesStructurallyIdenticalTrees) {
  const ast::Expr e = parse("(a == 1 or b == 2) and c == 3");
  const auto first = forest_.intern(e.root());
  EXPECT_TRUE(first.created);
  EXPECT_EQ(forest_.live_nodes(), 5u);  // 3 leaves + OR + AND
  EXPECT_EQ(created_.size(), 3u);       // one hook call per distinct leaf

  const auto second = forest_.intern(e.root());
  EXPECT_FALSE(second.created);
  EXPECT_EQ(second.id, first.id);
  EXPECT_EQ(forest_.live_nodes(), 5u);
  EXPECT_EQ(forest_.ref_count(first.id), 2u);
  EXPECT_EQ(created_.size(), 3u);  // no new leaves
}

TEST_F(SharedForestTest, InteriorSubtreesAreShared) {
  const ast::Expr e1 = parse("(a == 1 or b == 2) and c == 3");
  const ast::Expr e2 = parse("(a == 1 or b == 2) and d == 4");
  const NodeId r1 = forest_.intern(e1.root()).id;
  const NodeId r2 = forest_.intern(e2.root()).id;
  EXPECT_NE(r1, r2);
  // Second tree adds only its own AND and the new leaf.
  EXPECT_EQ(forest_.live_nodes(), 7u);

  // The shared OR node is a child of both roots and reports both parents.
  const NodeId shared_or = forest_.children(r1).front();
  EXPECT_EQ(forest_.children(r2).front(), shared_or);
  std::vector<NodeId> parents;
  forest_.for_each_parent(shared_or, [&](NodeId p) { parents.push_back(p); });
  EXPECT_EQ(testing::sorted_values(parents),
            testing::sorted_values(std::vector<NodeId>{r1, r2}));
}

TEST_F(SharedForestTest, OrderSensitiveIdentity) {
  const ast::Expr ab = parse("a == 1 and b == 2");
  const ast::Expr ba = parse("b == 2 and a == 1");
  const NodeId r1 = forest_.intern(ab.root()).id;
  const auto r2 = forest_.intern(ba.root());
  EXPECT_TRUE(r2.created);  // structural identity preserves child order
  EXPECT_NE(r1, r2.id);
  EXPECT_EQ(forest_.live_nodes(), 4u);  // 2 leaves shared, 2 AND nodes
}

TEST_F(SharedForestTest, ReleaseCascadesAndFiresLeafHooks) {
  const ast::Expr e = parse("(a == 1 or b == 2) and c == 3");
  const NodeId root = forest_.intern(e.root()).id;
  forest_.release(root);
  EXPECT_EQ(forest_.live_nodes(), 0u);
  EXPECT_EQ(released_.size(), 3u);
  EXPECT_EQ(testing::sorted_values(created_),
            testing::sorted_values(released_));
  EXPECT_EQ(forest_.quarantined_nodes(), 5u);
}

TEST_F(SharedForestTest, SharedSubtreeSurvivesPartialRelease) {
  const ast::Expr e1 = parse("(a == 1 or b == 2) and c == 3");
  const ast::Expr e2 = parse("(a == 1 or b == 2) and d == 4");
  const NodeId r1 = forest_.intern(e1.root()).id;
  const NodeId r2 = forest_.intern(e2.root()).id;
  forest_.release(r1);
  // The OR and its leaves live on under r2; only r1's AND and c == 3 died.
  EXPECT_EQ(forest_.live_nodes(), 5u);
  EXPECT_EQ(released_.size(), 1u);
  const NodeId shared_or = forest_.children(r2).front();
  std::vector<NodeId> parents;
  forest_.for_each_parent(shared_or, [&](NodeId p) { parents.push_back(p); });
  EXPECT_EQ(parents, std::vector<NodeId>{r2});
  forest_.release(r2);
  EXPECT_EQ(forest_.live_nodes(), 0u);
}

TEST_F(SharedForestTest, DuplicateChildEdgesCarryMultiplicity) {
  // AND(p, p): the leaf has the same parent twice.
  std::vector<ast::NodePtr> kids;
  kids.push_back(ast::leaf(PredicateId(3)));
  kids.push_back(ast::leaf(PredicateId(3)));
  const ast::NodePtr root = ast::make_and(std::move(kids));
  const NodeId r = forest_.intern(*root).id;
  const NodeId leaf = forest_.children(r).front();
  EXPECT_EQ(forest_.ref_count(leaf), 2u);
  std::size_t edges = 0;
  forest_.for_each_parent(leaf, [&](NodeId p) {
    EXPECT_EQ(p, r);
    ++edges;
  });
  EXPECT_EQ(edges, 2u);
  forest_.release(r);
  EXPECT_EQ(forest_.live_nodes(), 0u);
}

TEST_F(SharedForestTest, StaticTruthUnderAllFalseLeaves) {
  const ast::Expr plain = parse("a == 1 and b == 2");
  const ast::Expr negated = parse("not a == 1");
  const ast::Expr mixed = parse("not a == 1 or b == 2");
  EXPECT_FALSE(forest_.static_truth(forest_.intern(plain.root()).id));
  EXPECT_TRUE(forest_.static_truth(forest_.intern(negated.root()).id));
  EXPECT_TRUE(forest_.static_truth(forest_.intern(mixed.root()).id));
}

TEST_F(SharedForestTest, RankIsStrictlyAboveChildren) {
  const ast::Expr e = parse("((a == 1 or b == 2) and c == 3) or d == 4");
  const NodeId root = forest_.intern(e.root()).id;
  EXPECT_EQ(forest_.rank(root), 3u);
  for (const NodeId c : forest_.children(root)) {
    EXPECT_LT(forest_.rank(c), forest_.rank(root));
  }
}

TEST_F(SharedForestTest, ToAstRoundTrips) {
  const ast::Expr e =
      parse("(a > 10 or a <= 5 or b == 1) and not (c <= 20 and d == 5)");
  const NodeId root = forest_.intern(e.root()).id;
  const ast::NodePtr back = forest_.to_ast(root);
  EXPECT_TRUE(ast::equal(e.root(), *back));
}

TEST_F(SharedForestTest, QuarantinedSlotsReuseAfterReclaim) {
  const ast::Expr e1 = parse("a == 1 and b == 2");
  const NodeId r1 = forest_.intern(e1.root()).id;
  forest_.release(r1);
  EXPECT_EQ(forest_.quarantined_nodes(), 3u);
  const std::size_t bound_before = forest_.node_bound();

  // Without reclaim, new interns must not reuse the quarantined slots.
  const ast::Expr e2 = parse("c == 3");
  const NodeId r2 = forest_.intern(e2.root()).id;
  EXPECT_GE(r2, bound_before);
  EXPECT_EQ(forest_.quarantined_nodes(), 3u);

  forest_.reclaim_quarantine();
  EXPECT_EQ(forest_.quarantined_nodes(), 0u);
  const ast::Expr e3 = parse("d == 4 and e == 5");
  const NodeId r3 = forest_.intern(e3.root()).id;
  EXPECT_LT(r3, bound_before);  // recycled slot
  EXPECT_EQ(forest_.node_bound(), bound_before + 1);  // only r2 grew it
}

TEST_F(SharedForestTest, CompactionPreservesStructure) {
  std::vector<NodeId> roots;
  std::vector<ast::Expr> exprs;
  for (int i = 0; i < 40; ++i) {
    exprs.push_back(parse("(x == " + std::to_string(i % 7) +
                          " or y == " + std::to_string(i % 5) +
                          ") and z == " + std::to_string(i)));
    roots.push_back(forest_.intern(exprs.back().root()).id);
  }
  for (int i = 0; i < 40; i += 2) forest_.release(roots[i]);
  forest_.compact_storage();
  for (int i = 1; i < 40; i += 2) {
    EXPECT_TRUE(ast::equal(exprs[i].root(), *forest_.to_ast(roots[i])))
        << "root " << i;
  }
}

// ---- Normalisation ladder ----------------------------------------------

class SortedForestTest : public ::testing::Test {
 protected:
  SortedForestTest()
      : forest_([](PredicateId) {}, [](PredicateId) {},
                Normalisation::SortedChildren) {}

  ast::Expr parse(std::string_view text) {
    return parse_subscription(text, attrs_, table_);
  }

  AttributeRegistry attrs_;
  PredicateTable table_;
  SharedForest forest_;
};

TEST_F(SortedForestTest, CommutedConjunctionsInternToOneNode) {
  const ast::Expr ab = parse("a == 1 and b == 2");
  const ast::Expr ba = parse("b == 2 and a == 1");
  const auto r1 = forest_.intern(ab.root());
  const auto r2 = forest_.intern(ba.root());
  EXPECT_TRUE(r1.created);
  EXPECT_FALSE(r2.created);  // commuted spelling: same canonical node
  EXPECT_EQ(r1.id, r2.id);
  EXPECT_EQ(forest_.live_nodes(), 3u);  // 2 leaves + 1 AND
  EXPECT_EQ(forest_.ref_count(r1.id), 2u);
}

TEST_F(SortedForestTest, NestedCommutedFormsCollapse) {
  // Commuting both the OR groups and the AND over them must still land on
  // one node — canonicalisation is bottom-up.
  const ast::Expr e1 = parse("(a == 1 or b == 2) and (c == 3 or d == 4)");
  const ast::Expr e2 = parse("(d == 4 or c == 3) and (b == 2 or a == 1)");
  const NodeId r1 = forest_.intern(e1.root()).id;
  const auto r2 = forest_.intern(e2.root());
  EXPECT_FALSE(r2.created);
  EXPECT_EQ(r1, r2.id);
  EXPECT_EQ(forest_.live_nodes(), 7u);  // 4 leaves + 2 ORs + 1 AND
}

TEST_F(SortedForestTest, DistinctStructuresStayDistinct) {
  // Sorting is not flattening or semantic rewriting: AND vs OR, and
  // different predicate multisets, keep distinct identity.
  const NodeId and_root =
      forest_.intern(parse("a == 1 and b == 2").root()).id;
  const NodeId or_root = forest_.intern(parse("a == 1 or b == 2").root()).id;
  EXPECT_NE(and_root, or_root);
  const auto duplicated =
      forest_.intern(parse("a == 1 and a == 1 and b == 2").root());
  EXPECT_TRUE(duplicated.created);
  EXPECT_NE(duplicated.id, and_root);
}

TEST_F(SortedForestTest, EvaluationPermutationRestoresWrittenOrder) {
  const ast::Expr written =
      parse("(d == 4 or c == 3) and (b == 2 or a == 1) and e == 5");
  std::vector<std::uint32_t> perm;
  const NodeId root = forest_.intern(written.root(), &perm).id;
  // Stored form is canonical — generally NOT the written order...
  // ...but the permutation restores the expression exactly as written.
  const ast::NodePtr restored = forest_.to_ast(root, perm);
  EXPECT_TRUE(ast::equal(written.root(), *restored));

  // A commuted respelling interns to the same node with a different
  // permutation; both reconstruct their own written order.
  const ast::Expr respelled =
      parse("e == 5 and (a == 1 or b == 2) and (c == 3 or d == 4)");
  std::vector<std::uint32_t> perm2;
  const auto r2 = forest_.intern(respelled.root(), &perm2);
  EXPECT_EQ(r2.id, root);
  EXPECT_TRUE(ast::equal(respelled.root(), *forest_.to_ast(root, perm2)));
  EXPECT_NE(perm, perm2);
}

TEST_F(SortedForestTest, PermutationHandlesNotAndDuplicateChildren) {
  const ast::Expr written = parse("not (b == 2 and a == 1) or a == 1");
  std::vector<std::uint32_t> perm;
  const NodeId root = forest_.intern(written.root(), &perm).id;
  EXPECT_TRUE(ast::equal(written.root(), *forest_.to_ast(root, perm)));

  // AND(p, p): duplicate children survive the stable sort with their
  // multiplicity intact.
  std::vector<ast::NodePtr> kids;
  kids.push_back(ast::leaf(PredicateId(3)));
  kids.push_back(ast::leaf(PredicateId(3)));
  const ast::NodePtr dup = ast::make_and(std::move(kids));
  std::vector<std::uint32_t> dup_perm;
  const NodeId dup_root = forest_.intern(*dup, &dup_perm).id;
  EXPECT_EQ(forest_.ref_count(forest_.children(dup_root).front()), 2u);
  EXPECT_TRUE(ast::equal(*dup, *forest_.to_ast(dup_root, dup_perm)));
}

TEST_F(SortedForestTest, PermutationIsStableAcrossReleaseAndReintern) {
  // Node ids feed the canonical sort key only as a tie-breaker behind the
  // structural hash, so releasing and re-interning (with different slot
  // assignments) must still converge: the same expression always lands on
  // a structurally identical node and a valid permutation.
  const ast::Expr written =
      parse("(x == 9 or y == 8) and (a == 1 or b == 2) and c == 3");
  std::vector<std::uint32_t> perm;
  const NodeId first = forest_.intern(written.root(), &perm).id;
  const ast::NodePtr restored_first = forest_.to_ast(first, perm);
  forest_.release(first);
  forest_.reclaim_quarantine();
  // Interleave another expression so slot assignment shifts.
  const ast::Expr other = parse("z == 7 and w == 6");
  const NodeId keep = forest_.intern(other.root()).id;
  std::vector<std::uint32_t> perm2;
  const NodeId second = forest_.intern(written.root(), &perm2).id;
  EXPECT_TRUE(ast::equal(*restored_first, *forest_.to_ast(second, perm2)));
  forest_.release(keep);
  forest_.release(second);
  EXPECT_EQ(forest_.live_nodes(), 0u);
}

TEST_F(SharedForestTest, NoneNormalisationRecordsNoPermutation) {
  std::vector<std::uint32_t> perm{99};  // stale garbage must be cleared
  const ast::Expr e = parse("b == 2 and a == 1");
  const NodeId root = forest_.intern(e.root(), &perm).id;
  EXPECT_TRUE(perm.empty());
  // Empty permutation degrades to stored order == written order.
  EXPECT_TRUE(ast::equal(e.root(), *forest_.to_ast(root, perm)));
}

TEST_F(SharedForestTest, ValidateLimitsRejectsOversizedTrees) {
  std::vector<ast::NodePtr> kids;
  for (std::size_t i = 0; i < SharedForest::kMaxChildren + 1; ++i) {
    kids.push_back(ast::leaf(PredicateId(static_cast<std::uint32_t>(i))));
  }
  const ast::NodePtr wide = ast::make_or(std::move(kids));
  EXPECT_THROW(SharedForest::validate_limits(*wide), ForestLimitError);
  EXPECT_THROW(forest_.intern(*wide), ForestLimitError);
  EXPECT_EQ(forest_.live_nodes(), 0u);  // checked before any mutation

  ast::NodePtr deep = ast::leaf(PredicateId(0));
  for (std::size_t i = 0; i < SharedForest::kMaxDepth + 1; ++i) {
    deep = ast::make_not(std::move(deep));
  }
  EXPECT_THROW(SharedForest::validate_limits(*deep), ForestLimitError);
}

// ---- Quarantine lifecycle under concurrent matching --------------------
//
// Unsubscribe + immediate re-subscribe of a structurally identical filter
// makes the engine release a root into quarantine and re-intern the same
// structure on the next add — the exact window where a recycled node slot
// could leak truth across the removal fence. A publisher hammers
// publish_batch the whole time (run this under TSan: the CI concurrency job
// includes this binary); the assertions check that a fenced subscription
// id is never notified after its removal generation has applied, at every
// normalisation level.
class QuarantineReuseRace
    : public ::testing::TestWithParam<Normalisation> {};

TEST_P(QuarantineReuseRace, UnsubResubIdenticalFilterDuringMatchBatch) {
  AttributeRegistry attrs;
  ShardedBroker broker(attrs,
                       ShardedBrokerConfig{.shard_count = 2,
                                           .engine = EngineKind::NonCanonical,
                                           .normalisation = GetParam()});

  // fenced_id is only trusted by the callback after `fenced` was released
  // by the control thread (store-release / load-acquire pairing).
  std::atomic<std::uint32_t> fenced_id{SubscriptionId::invalid().value()};
  std::atomic<bool> fenced{false};
  std::atomic<std::size_t> violations{0};
  std::atomic<std::size_t> delivered{0};
  const SubscriberId session =
      broker.register_subscriber([&](const Notification& n) {
        delivered.fetch_add(1, std::memory_order_relaxed);
        if (fenced.load(std::memory_order_acquire) &&
            n.subscription.value() ==
                fenced_id.load(std::memory_order_relaxed)) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
      });

  // A standing subscription keeps the forest non-trivial and guarantees
  // matching work is in flight during every fenced window.
  const SubscriptionId standing = broker.subscribe(session, "price exists");

  const Event event =
      EventBuilder(attrs).set("price", 42).set("qty", 7).build();
  std::vector<Event> batch(8, event);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> pumped{0};
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      broker.publish_batch(std::span<const Event>(batch.data(), batch.size()));
      pumped.fetch_add(1, std::memory_order_release);
    }
  });

  // The two spellings intern to one node under SortedChildren (so the
  // recycled slot is re-interned with identical structure) and to two
  // nodes under None (so slots churn); both must stay fenced.
  const char* kTexts[] = {"price > 10 and qty > 0", "qty > 0 and price > 10"};
  for (int round = 0; round < 40; ++round) {
    const SubscriptionId id = broker.subscribe(session, kTexts[round % 2]);
    fenced_id.store(id.value(), std::memory_order_relaxed);
    ASSERT_TRUE(broker.unsubscribe(id));
    // quiesce() is the removal fence: once it returns, no notification may
    // carry the retired id until the broker legitimately reuses the value.
    broker.quiesce();
    fenced.store(true, std::memory_order_release);
    // Let the publisher push several whole batches through the fenced
    // window while the quarantined forest slots await reclamation.
    const std::uint64_t mark = pumped.load(std::memory_order_acquire);
    while (pumped.load(std::memory_order_acquire) < mark + 4) {
      std::this_thread::yield();
    }
    // Close the window before re-subscribing: the broker may hand the
    // retired id value back out once its reuse conditions pass. The
    // control-thread store is ordered before the subscribe command, which
    // is ordered (queue + shard mutex) before any batch that can match the
    // replacement, so the callback can never see fenced == true together
    // with a replacement notification.
    fenced.store(false, std::memory_order_release);
    // Structurally identical re-subscribe: the engine reclaims the
    // quarantined slots of the removal above while the publisher is
    // mid-batch.
    const SubscriptionId replacement =
        broker.subscribe(session, kTexts[round % 2]);
    ASSERT_TRUE(broker.unsubscribe(replacement));
    broker.quiesce();
  }
  stop.store(true, std::memory_order_release);
  publisher.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(delivered.load(), 0u);
  ASSERT_TRUE(broker.unsubscribe(standing));
  EXPECT_EQ(broker.subscription_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllNormalisations, QuarantineReuseRace,
                         ::testing::Values(Normalisation::None,
                                           Normalisation::SortedChildren));

}  // namespace
}  // namespace ncps
