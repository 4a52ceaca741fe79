// End-to-end scenarios across the whole stack: parser → predicate table →
// index → engine → broker, under realistic domain workloads and churn.
#include <array>

#include <gtest/gtest.h>

#include "broker/broker.h"
#include "common/random.h"
#include "engine/engine_factory.h"
#include "test_util.h"
#include "workload/zipf.h"

namespace ncps {
namespace {

// --- Stock ticker scenario -------------------------------------------------

class StockScenarioTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(StockScenarioTest, RealisticSubscriptionsOverTickStream) {
  AttributeRegistry attrs;
  Broker broker(attrs, GetParam());

  std::size_t alice_hits = 0, bob_hits = 0, carol_hits = 0;
  const SubscriberId alice = broker.register_subscriber(
      [&](const Notification&) { ++alice_hits; });
  const SubscriberId bob =
      broker.register_subscriber([&](const Notification&) { ++bob_hits; });
  const SubscriberId carol = broker.register_subscriber(
      [&](const Notification&) { ++carol_hits; });

  // Alice: breakout alerts on ACME. Bob: any big move on anything. Carol: a
  // Boolean shape no conjunctive-only system accepts without transformation.
  broker.subscribe(alice, "symbol == \"ACME\" and price > 100");
  broker.subscribe(bob, "change_pct > 5 or change_pct < -5");
  broker.subscribe(carol,
                   "(symbol == \"ACME\" or symbol == \"GLOBO\") and "
                   "(price between 50 and 150 or volume > 10000)");

  const char* symbols[] = {"ACME", "GLOBO", "INITECH", "HOOLI"};
  Pcg32 rng(2005);
  std::size_t expect_alice = 0, expect_bob = 0, expect_carol = 0;
  for (int tick = 0; tick < 2000; ++tick) {
    const char* symbol = symbols[rng.bounded(4)];
    const std::int64_t price = rng.range(1, 200);
    const std::int64_t volume = rng.range(100, 20000);
    const double change = static_cast<double>(rng.range(-80, 80)) / 10.0;
    const Event e = EventBuilder(attrs)
                        .set("symbol", symbol)
                        .set("price", price)
                        .set("volume", volume)
                        .set("change_pct", change)
                        .build();
    // Independent ground truth, written out by hand.
    const bool is_acme = std::string_view(symbol) == "ACME";
    const bool is_globo = std::string_view(symbol) == "GLOBO";
    if (is_acme && price > 100) ++expect_alice;
    if (change > 5.0 || change < -5.0) ++expect_bob;
    if ((is_acme || is_globo) &&
        ((price >= 50 && price <= 150) || volume > 10000)) {
      ++expect_carol;
    }
    broker.publish(e);
  }
  EXPECT_EQ(alice_hits, expect_alice);
  EXPECT_EQ(bob_hits, expect_bob);
  EXPECT_EQ(carol_hits, expect_carol);
  EXPECT_GT(alice_hits, 0u);
  EXPECT_GT(bob_hits, 0u);
  EXPECT_GT(carol_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, StockScenarioTest,
                         ::testing::ValuesIn(kAllEngineKinds),
                         [](const auto& param_info) {
                           std::string name(to_string(param_info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// --- Churn scenario: subscriptions come and go under live traffic ----------

TEST(ChurnScenarioTest, EngineAgreesWithOracleUnderChurn) {
  AttributeRegistry attrs;
  PredicateTable table;
  NonCanonicalEngine engine(table);
  const auto ctx = engine.make_context();  // reused across the whole churn
  Pcg32 rng(31415);

  struct LiveSub {
    SubscriptionId id;
    ast::Expr expr;
  };
  std::vector<LiveSub> live;
  std::uint32_t next_tag = 0;

  const auto make_text = [&rng](std::uint32_t tag) {
    // Mix of shapes, all referencing a small attribute set.
    switch (rng.bounded(4)) {
      case 0:
        return "a == " + std::to_string(tag % 10) + " and b > " +
               std::to_string(tag % 5);
      case 1:
        return "a == " + std::to_string(tag % 10) + " or c == " +
               std::to_string(tag % 7);
      case 2:
        return "(a == " + std::to_string(tag % 10) + " or b == " +
               std::to_string(tag % 5) + ") and c != " +
               std::to_string(tag % 7);
      default:
        return "not (a == " + std::to_string(tag % 10) + " and c == " +
               std::to_string(tag % 7) + ")";
    }
  };

  for (int round = 0; round < 1500; ++round) {
    const double action = rng.next_double();
    if (action < 0.35 || live.empty()) {
      ast::Expr expr = parse_subscription(make_text(next_tag++), attrs, table);
      const SubscriptionId id = engine.add(expr.root());
      live.push_back(LiveSub{id, std::move(expr)});
    } else if (action < 0.55) {
      const std::size_t idx = rng.bounded(static_cast<std::uint32_t>(live.size()));
      EXPECT_TRUE(engine.remove(live[idx].id));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      // Publish a total event over {a, b, c} and compare with the oracle.
      const Event e = EventBuilder(attrs)
                          .set("a", rng.range(0, 10))
                          .set("b", rng.range(0, 6))
                          .set("c", rng.range(0, 8))
                          .build();
      std::vector<std::pair<SubscriptionId, const ast::Node*>> oracle_subs;
      oracle_subs.reserve(live.size());
      for (const auto& sub : live) {
        oracle_subs.emplace_back(sub.id, &sub.expr.root());
      }
      EXPECT_EQ(testing::match_event(engine, e, *ctx),
                testing::oracle_match(oracle_subs, table, e))
          << "round " << round << " with " << live.size() << " live subs";
    }
  }
}

// --- Skewed traffic: Zipf symbols through a broker -------------------------

TEST(SkewScenarioTest, HotSymbolsDominateNotifications) {
  AttributeRegistry attrs;
  Broker broker(attrs);
  const char* symbols[] = {"HOT", "WARM", "MILD", "COOL", "COLD"};
  std::array<std::size_t, 5> hits{};
  for (int i = 0; i < 5; ++i) {
    const SubscriberId s = broker.register_subscriber(
        [&hits, i](const Notification&) { ++hits[i]; });
    broker.subscribe(s, std::string("symbol == \"") + symbols[i] + "\"");
  }

  ZipfSampler zipf(5, 1.5);
  Pcg32 rng(99);
  for (int i = 0; i < 5000; ++i) {
    const std::size_t rank = zipf.sample(rng);
    broker.publish(
        EventBuilder(attrs).set("symbol", symbols[rank]).build());
  }
  EXPECT_GT(hits[0], hits[1]);
  EXPECT_GT(hits[1], hits[4]);
  EXPECT_EQ(hits[0] + hits[1] + hits[2] + hits[3] + hits[4], 5000u);
}

// --- Cross-engine determinism on one stream --------------------------------

TEST(DeterminismTest, RepeatRunsProduceIdenticalNotificationCounts) {
  const auto run_once = [](std::uint64_t seed) {
    AttributeRegistry attrs;
    Broker broker(attrs);
    std::size_t notifications = 0;
    const SubscriberId s = broker.register_subscriber(
        [&](const Notification&) { ++notifications; });
    broker.subscribe(s, "x > 500 and y < 100");
    broker.subscribe(s, "x <= 500 or y >= 900");
    Pcg32 rng(seed);
    for (int i = 0; i < 3000; ++i) {
      broker.publish(EventBuilder(attrs)
                         .set("x", rng.range(0, 1000))
                         .set("y", rng.range(0, 1000))
                         .build());
    }
    return notifications;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), 0u);
}

}  // namespace
}  // namespace ncps
