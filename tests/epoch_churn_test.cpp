// Churn concurrent with matching under the epoch-based read side.
//
// These tests exist primarily as a TSan surface: a publisher thread pumps
// batches through epoch-pinned match tasks while a control thread
// subscribes/unsubscribes against the same shards, so the apply path
// (shard mutex + write gate + deferred reclamation, driven from the match
// tasks' chunk boundaries and from the apply thread) races the lock-free
// readers. Each runs at one shard — the default Broker, where the
// publisher is the only matching thread — and at two. The CI sanitizer
// job runs this binary under -fsanitize=thread (filter regex includes
// "epoch").
//
// Functionally they pin the behavioural guarantees of the epoch path:
//   - post-quiesce exactness: after quiesce(), publishing one match-all
//     event notifies exactly the surviving subscriptions, no ghost of any
//     removed one (node-slot reuse is grace-safe);
//   - control-plane liveness: wait_applied() returns without any further
//     publish driving the fences — the dedicated apply thread drains
//     queued commands on its own;
//   - chunk-boundary apply: a control op issued mid-batch is applied
//     before that batch returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "broker/sharded_broker.h"

namespace ncps {
namespace {

class EpochChurnTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  [[nodiscard]] ShardedBrokerConfig config() const {
    return ShardedBrokerConfig{.shard_count = GetParam(),
                               .engine = EngineKind::NonCanonical};
  }
};

TEST_P(EpochChurnTest, ChurnAppliesConcurrentlyWithMatching) {
  AttributeRegistry attrs;
  ShardedBroker broker(attrs, config());

  // Deliveries during the concurrent phase are timing-dependent — only
  // counted. Correctness is judged by the post-quiesce probe.
  std::atomic<bool> probing{false};
  std::atomic<std::size_t> concurrent_notifications{0};
  std::vector<std::uint32_t> probe_log;  // subscription ids
  const SubscriberId session =
      broker.register_subscriber([&](const Notification& n) {
        if (probing.load(std::memory_order_relaxed)) {
          probe_log.push_back(n.subscription.value());
        } else {
          concurrent_notifications.fetch_add(1, std::memory_order_relaxed);
        }
      });

  // Every subscription matches every event through its left disjunct; the
  // unique right disjunct forces distinct forest roots and predicate-table
  // entries, so unsubscribes continually quarantine and retire node slots
  // while match tasks traverse.
  const auto text = [](int k) {
    return "attr0 >= 0 or attr1 == " + std::to_string(k);
  };

  std::vector<SubscriptionId> live;
  for (int k = 0; k < 32; ++k) {
    live.push_back(broker.subscribe(session, text(k)));
  }

  const Event event = EventBuilder(attrs).set("attr0", 7).build();
  std::vector<Event> batch(64, event);

  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      broker.publish_batch(std::span<const Event>(batch.data(), batch.size()));
    }
  });

  // Churn: each round replaces the oldest subscription with a fresh text,
  // so the live set rotates through the forest's free list while the
  // publisher matches. Occasional metrics() calls race the sampling path
  // (shared shard lock + deferred-reclaim gauge) against everything else.
  int next_k = 32;
  for (int round = 0; round < 400; ++round) {
    const SubscriptionId victim = live.front();
    live.erase(live.begin());
    ASSERT_TRUE(broker.unsubscribe(victim));
    live.push_back(broker.subscribe(session, text(next_k++)));
    if (round % 25 == 0) {
      broker.wait_applied(broker.control_generation());
      (void)broker.metrics();
    }
  }
  stop.store(true, std::memory_order_release);
  publisher.join();
  broker.quiesce();

  ASSERT_EQ(broker.subscription_count(), live.size());

  // Exactly the survivors — a stale posting-list entry or a prematurely
  // recycled forest slot would notify a removed id here.
  probing.store(true, std::memory_order_release);
  ASSERT_EQ(broker.publish(event), live.size());
  std::vector<std::uint32_t> expected;
  for (const SubscriptionId id : live) expected.push_back(id.value());
  std::sort(expected.begin(), expected.end());
  std::sort(probe_log.begin(), probe_log.end());
  EXPECT_EQ(probe_log, expected);
}

TEST_P(EpochChurnTest, WaitAppliedIsSelfDrivingWithoutPublishes) {
  AttributeRegistry attrs;
  ShardedBroker broker(attrs, config());
  const SubscriberId session =
      broker.register_subscriber([](const Notification&) {});

  const Event event = EventBuilder(attrs).set("attr0", 1).build();
  std::vector<Event> batch(256, event);

  // Hammer control ops against a publisher so some commands take the
  // queued path (issued while a batch matches)...
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      broker.publish_batch(std::span<const Event>(batch.data(), batch.size()));
    }
  });
  std::vector<SubscriptionId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(
        broker.subscribe(session, "attr0 == " + std::to_string(i)));
    if (ids.size() > 8) {
      ASSERT_TRUE(broker.unsubscribe(ids.front()));
      ids.erase(ids.begin());
    }
  }
  stop.store(true, std::memory_order_release);
  publisher.join();

  // ...then, with the publisher gone, issue one more pair and wait. No
  // batch will ever advance the fences again: only the apply thread can.
  // A hang here (ctest timeout) means the apply path needs a publish to
  // make progress, which is the regression this test pins.
  const SubscriptionId last = broker.subscribe(session, "attr0 exists");
  ASSERT_TRUE(broker.unsubscribe(last));
  broker.wait_applied(broker.control_generation());
  broker.quiesce();
  EXPECT_EQ(broker.subscription_count(), ids.size());
}

TEST_P(EpochChurnTest, DeferredReclaimGaugeIsExposed) {
  AttributeRegistry attrs;
  ShardedBroker broker(attrs, config());
  const SubscriberId session =
      broker.register_subscriber([](const Notification&) {});
  const SubscriptionId id = broker.subscribe(session, "attr0 exists");
  ASSERT_TRUE(broker.unsubscribe(id));
  broker.quiesce();

  const obs::MetricsSnapshot snap = broker.metrics();
  // Every broker runs per-shard epoch domains; the gauge must be present
  // (value is workload-dependent — often zero after quiesce).
  EXPECT_TRUE(snap.gauge_value("ncps_epoch_reclaim_deferred").has_value());
}

INSTANTIATE_TEST_SUITE_P(Shards, EpochChurnTest, ::testing::Values(1u, 2u),
                         [](const ::testing::TestParamInfo<std::size_t>& p) {
                           return "shards" + std::to_string(p.param);
                         });

std::uint64_t match_events(const ShardedBroker& broker) {
  return broker.metrics().counter_total("ncps_match_events_total");
}

std::uint64_t grace_waits(const ShardedBroker& broker) {
  return broker.metrics()
      .histogram_merged("ncps_epoch_grace_wait_seconds")
      .count;
}

// The default one-shard Broker matches on the publishing thread. A
// subscribe issued while its batch is matching is queued, and the match
// task applies it at its next chunk boundary — so the shard's applied
// generation covers it before publish_batch returns, and the matching
// thread's writer section is counted by the grace-wait histogram.
TEST(EpochChurnOneShardTest, MidBatchSubscribeAppliesBeforeBatchReturns) {
  AttributeRegistry attrs;
  Broker broker(attrs);
  const SubscriberId session =
      broker.register_subscriber([](const Notification&) {});
  // An expensive population that never matches: every event fulfils all
  // the "x > k" predicates and evaluates every AND, but no event has y.
  std::vector<std::string> texts;
  for (int k = 0; k < 2000; ++k) {
    texts.push_back("x > " + std::to_string(k) +
                    " and y == " + std::to_string(k));
  }
  broker.subscribe_bulk(session, texts);
  const Event event = EventBuilder(attrs).set("x", 1'000'000).build();
  // One worker, adaptive chunking: eight chunks of 512 events.
  constexpr std::size_t kEvents = 4096;
  constexpr std::size_t kChunk = 512;
  const std::vector<Event> batch(kEvents, event);

  // An attempt counts only if at least two chunk boundaries were still
  // ahead when the subscribe returned (a boundary that collides with this
  // thread's metrics() read skips its drain; the next one cannot).
  bool judged = false;
  for (int attempt = 0; attempt < 5 && !judged; ++attempt) {
    const std::uint64_t events_before = match_events(broker);
    const std::uint64_t waits_before = grace_waits(broker);
    std::atomic<std::uint64_t> applied_at_return{0};
    std::thread publisher([&] {
      broker.publish_batch(std::span<const Event>(batch));
      applied_at_return.store(broker.shard_applied_generation(0),
                              std::memory_order_release);
    });
    // The first chunk's stats fold marks the batch as mid-flight.
    while (match_events(broker) == events_before) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    const SubscriptionId id = broker.subscribe(session, "z exists");
    const std::uint64_t generation = broker.control_generation();
    const std::uint64_t matched = match_events(broker) - events_before;
    publisher.join();
    ASSERT_TRUE(broker.unsubscribe(id));
    if (matched + 2 * kChunk > kEvents) continue;
    judged = true;
    EXPECT_GE(applied_at_return.load(std::memory_order_acquire), generation);
    if (obs::kMetricsEnabled) {
      EXPECT_GT(grace_waits(broker), waits_before);
    }
  }
  EXPECT_TRUE(judged) << "no subscribe landed with two chunk boundaries "
                         "left in its batch";
}

}  // namespace
}  // namespace ncps
