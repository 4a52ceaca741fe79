// Shard equivalence: a ShardedBroker with any shard count must be
// observationally identical to the seed single-engine Broker — same
// subscription ids handed out, same notification multiset for every
// published event, same delivery counts — across all three engine kinds.
//
// The driver feeds both brokers the same textual subscriptions (random
// Boolean expressions rendered through the printer) and the same events,
// interleaving subscribes, unsubscribes, session teardown and batch
// publishes. Notifications are compared as (subscriber, subscription,
// event ordinal) triples.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "broker/broker.h"
#include "broker/sharded_broker.h"
#include "subscription/printer.h"
#include "test_util.h"
#include "workload/random_workload.h"

namespace ncps {
namespace {

using Delivery = std::tuple<std::uint32_t, std::uint32_t, std::size_t>;

/// One broker under test plus its recorded notification stream.
struct Harness {
  explicit Harness(ShardedBroker& b) : broker(&b) {}

  SubscriberId session() {
    return broker->register_subscriber([this](const Notification& n) {
      // During a batch publish the notification's event pointer indexes the
      // caller's batch; otherwise the driver-maintained ordinal applies.
      const std::size_t ordinal =
          batch_base == nullptr
              ? event_ordinal
              : static_cast<std::size_t>(n.event - batch_base);
      log.emplace_back(n.subscriber.value(), n.subscription.value(), ordinal);
    });
  }

  ShardedBroker* broker;
  std::vector<Delivery> log;
  std::size_t event_ordinal = 0;
  const Event* batch_base = nullptr;
};

std::vector<Delivery> sorted(std::vector<Delivery> log) {
  std::sort(log.begin(), log.end());
  return log;
}

class ShardEquivalenceTest : public ::testing::TestWithParam<EngineKind> {};

TEST_P(ShardEquivalenceTest, MatchesSeedBrokerAtEveryShardCount) {
  const EngineKind kind = GetParam();

  for (const std::size_t shard_count : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shard_count));

    AttributeRegistry attrs;
    // Scratch table for generating expressions; both brokers intern the
    // printed text into their own shard tables.
    PredicateTable scratch;
    RandomWorkloadConfig config;
    config.rich_operators = true;
    config.not_probability = 0.2;
    config.attribute_presence = 1.0;  // total events: DNF-exact regime
    config.seed = 0x54a6d + shard_count;
    RandomWorkload workload(config, attrs, scratch);

    Broker reference(attrs, kind);
    ShardedBroker sharded(
        attrs, ShardedBrokerConfig{.shard_count = shard_count, .engine = kind});
    ASSERT_EQ(sharded.shard_count(), shard_count);

    Harness ref(reference);
    Harness shd(sharded);

    constexpr std::size_t kSubscribers = 4;
    std::vector<SubscriberId> ref_sessions, shd_sessions;
    for (std::size_t i = 0; i < kSubscribers; ++i) {
      ref_sessions.push_back(ref.session());
      shd_sessions.push_back(shd.session());
      ASSERT_EQ(ref_sessions.back(), shd_sessions.back());
    }

    // Same driver decisions for both brokers.
    Pcg32 driver(0xd51e6, 7);

    constexpr std::size_t kSubscriptions = 60;
    std::vector<SubscriptionId> live_subs;
    std::vector<ast::Expr> exprs;  // keep predicate refs alive in `scratch`
    for (std::size_t i = 0; i < kSubscriptions; ++i) {
      exprs.push_back(workload.next_subscription());
      const std::string text =
          print_expression(exprs.back().root(), scratch, attrs);
      const SubscriberId owner = ref_sessions[driver.bounded(kSubscribers)];
      const SubscriptionId a = reference.subscribe(owner, text);
      const SubscriptionId b = sharded.subscribe(owner, text);
      // Ids are allocated identically (LIFO reuse mirrors the engines').
      ASSERT_EQ(a, b) << "subscription id diverged at registration " << i;
      live_subs.push_back(a);
    }
    ASSERT_EQ(reference.subscription_count(), sharded.subscription_count());

    const auto publish_round = [&](std::size_t events) {
      for (std::size_t i = 0; i < events; ++i) {
        const Event event = workload.next_event();
        const std::size_t ref_count = reference.publish(event);
        const std::size_t shd_count = sharded.publish(event);
        EXPECT_EQ(ref_count, shd_count)
            << "delivery count diverged on event " << ref.event_ordinal;
        ++ref.event_ordinal;
        ++shd.event_ordinal;
      }
      EXPECT_EQ(sorted(ref.log), sorted(shd.log));
    };

    publish_round(30);

    // Unsubscribe a third of the population (same ids on both brokers).
    for (std::size_t i = 0; i < kSubscriptions / 3; ++i) {
      const std::size_t pick = driver.bounded(
          static_cast<std::uint32_t>(live_subs.size()));
      const SubscriptionId sub = live_subs[pick];
      live_subs[pick] = live_subs.back();
      live_subs.pop_back();
      EXPECT_TRUE(reference.unsubscribe(sub));
      EXPECT_TRUE(sharded.unsubscribe(sub));
    }
    publish_round(15);

    // Tear down one session entirely.
    reference.unregister_subscriber(ref_sessions[1]);
    sharded.unregister_subscriber(shd_sessions[1]);
    EXPECT_EQ(reference.subscription_count(), sharded.subscription_count());
    publish_round(15);

    // Subscribe again after churn: id reuse must stay in lockstep.
    for (std::size_t i = 0; i < 10; ++i) {
      exprs.push_back(workload.next_subscription());
      const std::string text =
          print_expression(exprs.back().root(), scratch, attrs);
      const SubscriberId owner = ref_sessions[driver.bounded(kSubscribers)];
      if (owner == ref_sessions[1]) continue;  // torn down above
      const SubscriptionId a = reference.subscribe(owner, text);
      const SubscriptionId b = sharded.subscribe(owner, text);
      ASSERT_EQ(a, b) << "id reuse diverged after churn";
    }
    publish_round(15);

    // Batched publish: both brokers share the deterministic merge, so the
    // notification *sequences* (not just multisets) must be identical, and
    // equal to what per-event publishing on the reference produced.
    std::vector<Event> batch;
    for (std::size_t i = 0; i < 20; ++i) batch.push_back(workload.next_event());
    ref.log.clear();
    shd.log.clear();
    ref.event_ordinal = shd.event_ordinal = 0;
    ref.batch_base = shd.batch_base = batch.data();
    const std::size_t ref_batch = reference.publish_batch(batch);
    const std::size_t shd_batch = sharded.publish_batch(batch);
    ref.batch_base = shd.batch_base = nullptr;
    EXPECT_EQ(ref_batch, shd_batch);
    EXPECT_EQ(ref.log, shd.log) << "batch delivery order diverged";

    // …and batch == event-at-a-time on the same broker.
    std::vector<Delivery> batch_log = ref.log;
    ref.log.clear();
    ref.event_ordinal = 0;
    std::size_t ref_single = 0;
    for (const Event& event : batch) {
      ref_single += reference.publish(event);
      ++ref.event_ordinal;
    }
    EXPECT_EQ(ref_single, ref_batch);
    EXPECT_EQ(sorted(ref.log), sorted(batch_log));

    if (shard_count > 1) {
      // The router must actually spread load: with 60+ subscriptions the
      // probability of everything landing on one shard is negligible.
      std::size_t populated = 0;
      for (std::size_t s = 0; s < shard_count; ++s) {
        if (sharded.shard_subscription_count(s) > 0) ++populated;
      }
      EXPECT_GE(populated, 2u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, ShardEquivalenceTest,
                         ::testing::ValuesIn(kAllEngineKinds),
                         [](const auto& param_info) {
                           std::string name(to_string(param_info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(ShardedBrokerTest, CreateReturnsWorkingHeapBroker) {
  AttributeRegistry attrs;
  const auto broker = ShardedBroker::create(
      attrs, ShardedBrokerConfig{.shard_count = 2});
  std::size_t hits = 0;
  const SubscriberId alice =
      broker->register_subscriber([&](const Notification&) { ++hits; });
  broker->subscribe(alice, "x > 1");
  broker->publish(EventBuilder(attrs).set("x", 5).build());
  EXPECT_EQ(hits, 1u);
}

TEST(ShardedBrokerTest, BrokerCreateFactory) {
  AttributeRegistry attrs;
  const std::unique_ptr<Broker> broker = Broker::create(attrs);
  std::size_t hits = 0;
  const SubscriberId alice =
      broker->register_subscriber([&](const Notification&) { ++hits; });
  broker->subscribe(alice, "x > 1");
  EXPECT_EQ(broker->publish(EventBuilder(attrs).set("x", 5).build()), 1u);
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(broker->engine().subscription_count(), 1u);
}

}  // namespace
}  // namespace ncps
