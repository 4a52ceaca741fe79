// Cross-engine equivalence: the paper's premise is that all three algorithms
// compute the same match sets — the non-canonical engine directly, the
// counting engines through DNF transformation. This suite drives thousands
// of random (subscription, event) pairs through every engine and a
// brute-force AST oracle, across several workload regimes.
//
// Events are total over the workload schema (attribute_presence = 1) in the
// regimes containing NOT: operator complementation preserves semantics
// exactly on total events (DESIGN.md §3, decision 3). The partial-event
// regime therefore runs NOT-free.
#include <gtest/gtest.h>

#include "engine/engine_factory.h"
#include "test_util.h"
#include "workload/paper_workload.h"
#include "workload/random_workload.h"

namespace ncps {
namespace {

struct Regime {
  const char* name;
  RandomWorkloadConfig config;
  int subscriptions;
  int events;
};

class EquivalenceTest : public ::testing::TestWithParam<Regime> {};

TEST_P(EquivalenceTest, AllEnginesAgreeWithOracle) {
  const Regime& regime = GetParam();

  AttributeRegistry attrs;
  PredicateTable table;
  RandomWorkload workload(regime.config, attrs, table);

  NonCanonicalEngine non_canonical(table);
  NonCanonicalTreeEngine tree(table);
  CountingEngine counting(table);
  CountingVariantEngine variant(table);
  // One context per engine, reused across events as a broker worker's is.
  const auto non_canonical_ctx = non_canonical.make_context();
  const auto tree_ctx = tree.make_context();
  const auto counting_ctx = counting.make_context();
  const auto variant_ctx = variant.make_context();

  std::vector<ast::Expr> exprs;  // keeps ASTs alive for the oracle
  std::vector<std::pair<SubscriptionId, const ast::Node*>> oracle_subs;
  for (int i = 0; i < regime.subscriptions; ++i) {
    exprs.push_back(workload.next_subscription());
    const ast::Node& root = exprs.back().root();
    const SubscriptionId a = non_canonical.add(root);
    const SubscriptionId t = tree.add(root);
    const SubscriptionId b = counting.add(root);
    const SubscriptionId c = variant.add(root);
    // Identical registration order ⇒ identical ids across engines.
    ASSERT_EQ(a, t);
    ASSERT_EQ(a, b);
    ASSERT_EQ(a, c);
    oracle_subs.emplace_back(a, &root);
  }

  for (int i = 0; i < regime.events; ++i) {
    const Event event = workload.next_event();
    const auto expected = testing::oracle_match(oracle_subs, table, event);
    EXPECT_EQ(testing::match_event(non_canonical, event, *non_canonical_ctx),
              expected)
        << "non-canonical (forest) diverged on event " << i << ": "
        << event.to_display_string(attrs);
    EXPECT_EQ(testing::match_event(tree, event, *tree_ctx), expected)
        << "non-canonical-tree diverged on event " << i << ": "
        << event.to_display_string(attrs);
    EXPECT_EQ(testing::match_event(counting, event, *counting_ctx), expected)
        << "counting diverged on event " << i << ": "
        << event.to_display_string(attrs);
    EXPECT_EQ(testing::match_event(variant, event, *variant_ctx), expected)
        << "counting-variant diverged on event " << i << ": "
        << event.to_display_string(attrs);
  }
}

RandomWorkloadConfig numeric_only() {
  RandomWorkloadConfig c;
  c.rich_operators = false;
  c.not_probability = 0.0;
  c.seed = 101;
  return c;
}

RandomWorkloadConfig with_not() {
  RandomWorkloadConfig c;
  c.rich_operators = false;
  c.not_probability = 0.35;
  c.attribute_presence = 1.0;  // total events: complement law applies
  c.seed = 202;
  return c;
}

RandomWorkloadConfig rich_total() {
  RandomWorkloadConfig c;
  c.rich_operators = true;
  c.not_probability = 0.25;
  c.attribute_presence = 1.0;
  c.seed = 303;
  return c;
}

RandomWorkloadConfig partial_events_not_free() {
  RandomWorkloadConfig c;
  c.rich_operators = true;
  c.not_probability = 0.0;
  c.attribute_presence = 0.6;
  c.seed = 404;
  return c;
}

RandomWorkloadConfig heavy_sharing() {
  RandomWorkloadConfig c;
  c.rich_operators = false;
  c.not_probability = 0.2;
  c.sharing_probability = 0.9;
  c.domain_size = 6;  // few predicates, heavily shared
  c.seed = 505;
  return c;
}

RandomWorkloadConfig deep_trees() {
  RandomWorkloadConfig c;
  c.rich_operators = false;
  c.not_probability = 0.3;
  c.max_depth = 6;
  c.max_children = 3;
  c.seed = 606;
  return c;
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, EquivalenceTest,
    ::testing::Values(
        Regime{"numeric_only", numeric_only(), 150, 200},
        Regime{"with_not", with_not(), 120, 200},
        Regime{"rich_operators", rich_total(), 100, 150},
        Regime{"partial_events", partial_events_not_free(), 100, 150},
        Regime{"heavy_sharing", heavy_sharing(), 150, 200},
        Regime{"deep_trees", deep_trees(), 80, 150}),
    [](const auto& param_info) { return param_info.param.name; });

// Equivalence must survive churn: remove a random half of the subscriptions
// from every engine and re-check.
TEST(EquivalenceChurnTest, AgreesAfterUnsubscriptions) {
  AttributeRegistry attrs;
  PredicateTable table;
  RandomWorkloadConfig config;
  config.rich_operators = false;
  config.not_probability = 0.2;
  config.seed = 9090;
  RandomWorkload workload(config, attrs, table);

  NonCanonicalEngine non_canonical(table);
  NonCanonicalTreeEngine tree(table);
  CountingEngine counting(table);
  CountingVariantEngine variant(table);
  // One context per engine, reused across events as a broker worker's is.
  const auto non_canonical_ctx = non_canonical.make_context();
  const auto tree_ctx = tree.make_context();
  const auto counting_ctx = counting.make_context();
  const auto variant_ctx = variant.make_context();

  std::vector<ast::Expr> exprs;
  std::vector<std::pair<SubscriptionId, const ast::Node*>> live;
  for (int i = 0; i < 120; ++i) {
    exprs.push_back(workload.next_subscription());
    const SubscriptionId id = non_canonical.add(exprs.back().root());
    ASSERT_EQ(tree.add(exprs.back().root()), id);
    ASSERT_EQ(counting.add(exprs.back().root()), id);
    ASSERT_EQ(variant.add(exprs.back().root()), id);
    live.emplace_back(id, &exprs.back().root());
  }

  // Remove every other subscription.
  std::vector<std::pair<SubscriptionId, const ast::Node*>> kept;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (i % 2 == 0) {
      ASSERT_TRUE(non_canonical.remove(live[i].first));
      ASSERT_TRUE(tree.remove(live[i].first));
      ASSERT_TRUE(counting.remove(live[i].first));
      ASSERT_TRUE(variant.remove(live[i].first));
    } else {
      kept.push_back(live[i]);
    }
  }

  for (int i = 0; i < 150; ++i) {
    const Event event = workload.next_event();
    const auto expected = testing::oracle_match(kept, table, event);
    EXPECT_EQ(testing::match_event(non_canonical, event, *non_canonical_ctx),
              expected);
    EXPECT_EQ(testing::match_event(tree, event, *tree_ctx), expected);
    EXPECT_EQ(testing::match_event(counting, event, *counting_ctx), expected);
    EXPECT_EQ(testing::match_event(variant, event, *variant_ctx), expected);
  }
}

// Phase-2 equivalence on the paper's exact workload shape: identical
// fulfilled-predicate sets must produce identical match sets.
TEST(EquivalencePhase2Test, PaperWorkloadFulfilledSets) {
  AttributeRegistry attrs;
  PredicateTable table;
  PaperWorkloadConfig config;
  config.predicates_per_subscription = 6;
  config.attribute_count = 10;
  config.domain_size = 5000;  // small domain: fulfilled predicates hit often
  config.seed = 4242;
  PaperWorkload workload(config, attrs, table);

  NonCanonicalEngine non_canonical(table);
  NonCanonicalTreeEngine tree(table);
  CountingEngine counting(table);
  CountingVariantEngine variant(table);
  // One context per engine, reused across events as a broker worker's is.
  const auto non_canonical_ctx = non_canonical.make_context();
  const auto tree_ctx = tree.make_context();
  const auto counting_ctx = counting.make_context();
  const auto variant_ctx = variant.make_context();

  std::vector<ast::Expr> exprs;
  std::vector<std::pair<SubscriptionId, const ast::Node*>> oracle_subs;
  for (int i = 0; i < 400; ++i) {
    exprs.push_back(workload.next_subscription());
    const SubscriptionId id = non_canonical.add(exprs.back().root());
    ASSERT_EQ(tree.add(exprs.back().root()), id);
    ASSERT_EQ(counting.add(exprs.back().root()), id);
    ASSERT_EQ(variant.add(exprs.back().root()), id);
    oracle_subs.emplace_back(id, &exprs.back().root());
  }

  for (int round = 0; round < 30; ++round) {
    const std::vector<PredicateId> fulfilled = workload.sample_fulfilled(300);
    // Oracle on the truth assignment "pid ∈ fulfilled".
    std::vector<PredicateId> sorted_fulfilled = testing::sorted(fulfilled);
    std::vector<SubscriptionId> expected;
    for (const auto& [id, root] : oracle_subs) {
      const bool hit = ast::evaluate(*root, [&](PredicateId pid) {
        return std::binary_search(sorted_fulfilled.begin(),
                                  sorted_fulfilled.end(), pid);
      });
      if (hit) expected.push_back(id);
    }
    std::sort(expected.begin(), expected.end());

    EXPECT_EQ(testing::match_predicates(non_canonical, fulfilled,
                                        *non_canonical_ctx),
              expected);
    EXPECT_EQ(testing::match_predicates(tree, fulfilled, *tree_ctx), expected);
    EXPECT_EQ(testing::match_predicates(counting, fulfilled, *counting_ctx),
              expected);
    EXPECT_EQ(testing::match_predicates(variant, fulfilled, *variant_ctx),
              expected);
  }
}

}  // namespace
}  // namespace ncps
