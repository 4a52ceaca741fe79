// The repository benchmark: one program, three workloads, end-to-end
// metrics from untraced runs and a per-layer breakdown from traced runs.
//
//   perfbench --workload broad|overlap|churn --seed N --seconds S
//             --trace 0|1 [--trace-out FILE] [--git-sha SHA]
//
// The broker is driven only through its public API and receives only
// subscription texts and events. Every run checks its notifications against
// a brute-force oracle (ast::evaluate_against_event over every live
// subscription) and counts dropped notifications; the last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}. See
// README.md for the workloads, the metrics and what each layer metric is
// expected to move.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "broker/sharded_broker.h"
#include "engine/engine_factory.h"
#include "generators.h"
#include "index/predicate_index.h"
#include "subscription/ast.h"
#include "subscription/parser.h"
#include "trace.h"

namespace perfbench {
namespace {

using ncps::AttributeId;
using ncps::AttributeRegistry;
using ncps::DeliveryMode;
using ncps::Event;
using ncps::ShardedBroker;
using ncps::ShardedBrokerConfig;
using ncps::SubscriberId;
using ncps::SubscriptionId;

constexpr std::size_t kBatch = 64;         // events per publish_batch
constexpr std::size_t kSubscribers = 8;    // the population's owners
constexpr std::size_t kEventPool = 2048;   // distinct events, cycled
constexpr std::size_t kWarmupBatches = 8;  // published before timing starts
constexpr int kSetupRepeats = 5;           // setup_s is their median
// Oracle sample: every event whose sequence number is a multiple of the
// stride records its notifications; up to kOracleEvents of them are checked.
constexpr std::int64_t kSampleStride = 97;
constexpr std::size_t kOracleEvents = 48;
// Static workloads' control probe: closed-loop ops between two batches of
// the window (see run_probe).
constexpr std::size_t kProbeOpsPerBatch = 16;
// p99 metrics are the median of the p99s of this many consecutive stretches
// of their samples (see p99_of_stretches).
constexpr std::size_t kTailStretches = 5;
// Traced runs alternate untraced and traced segments of this many batches,
// so trace.overhead_pct compares interleaved, equally warm halves.
constexpr std::size_t kSegmentBatches = 4;
constexpr std::size_t kReplayBatches = 8;

struct Workload {
  std::string name;
  std::size_t shards = 1;
  DeliveryMode delivery = DeliveryMode::Inline;
  std::size_t population = 0;
  ShapeConfig shape;
  /// Control ops per second issued concurrently with publishing (open
  /// loop); 0 for the static workloads.
  double control_rate = 0.0;
};

bool workload_named(const std::string& name, Workload& w) {
  w.name = name;
  if (name == "broad") {
    w.shards = 4;
    w.population = 20'000;
    return true;
  }
  if (name == "overlap") {
    w.shards = 4;
    w.population = 20'000;
    w.shape.sharing = 0.9;
    w.shape.duplicate = 0.3;
    return true;
  }
  if (name == "churn") {
    w.delivery = DeliveryMode::Async;
    w.population = 5'000;
    w.control_rate = 100.0;
    return true;
  }
  return false;
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return std::thread::hardware_concurrency();
  }
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// Worker threads the broker's match pool runs for this workload.
std::size_t match_workers(const Workload& w) {
  const std::size_t configured = ShardedBrokerConfig{}.worker_threads;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return configured != 0 ? configured : std::min<std::size_t>(w.shards, hw);
}

/// Threads that can run benchmark or broker work at the same time. Static
/// workloads: the match pool's workers (the publisher waits while they run
/// and delivers inline while they idle; the apply thread idles, as no
/// control op races the publisher). Churn: the publisher, which matches on
/// the single-shard broker, the async delivery threads and the control
/// client.
std::size_t thread_budget(const Workload& w) {
  if (w.control_rate == 0.0) return match_workers(w);
  std::size_t delivery = ShardedBrokerConfig{}.delivery.threads;
  if (delivery == 0) {
    delivery = std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
  }
  return match_workers(w) + delivery + 1;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// A run's p99 of samples in time order: the median of the p99s of
/// kTailStretches consecutive, equally long stretches. A stall of the
/// machine raises the p99 of the stretch it falls in, not the median; a
/// tail the program causes throughout the run raises every stretch.
double p99_of_stretches(const std::vector<double>& in_time_order) {
  const std::size_t n = in_time_order.size();
  if (n < kTailStretches) return percentile(in_time_order, 0.99);
  std::vector<double> p99s;
  for (std::size_t k = 0; k < kTailStretches; ++k) {
    p99s.emplace_back(percentile(
        std::vector<double>(in_time_order.begin() + k * n / kTailStretches,
                            in_time_order.begin() +
                                (k + 1) * n / kTailStretches),
        0.99));
  }
  return percentile(p99s, 0.5);
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// One subscriber's callback state. A subscriber's callbacks never run
/// concurrently (inline: the publishing thread; async: one executor thread
/// at a time), and the fields are read only after quiesce()/flush().
struct Receiver {
  /// The clock is read once per (batch, subscriber), never per notification:
  /// at the first callback for an event at or past this index in its batch.
  /// Subscribers get offsets spread over the batch, so their readings cover
  /// its whole delivery instead of only its first event.
  std::int64_t offset = 0;
  std::int64_t last_batch = -1;
  /// (batch, clock) of each reading.
  std::vector<std::pair<std::int64_t, std::int64_t>> reads;
  /// (sequence number, subscription) for oracle-sampled events.
  std::vector<std::pair<std::int64_t, std::uint32_t>> sampled;
  std::atomic<std::uint64_t> delivered{0};
};

struct Deployment {
  std::vector<std::unique_ptr<Receiver>> receivers;
  // Declared after the receivers so it is destroyed first: callbacks hold
  // receiver pointers until the broker is gone.
  std::unique_ptr<ShardedBroker> broker;
  std::vector<SubscriberId> subscribers;
  struct Live {
    SubscriptionId id;
    std::size_t subscriber;
    std::string text;
  };
  std::unordered_map<std::uint64_t, Live> live;  // by workload handle
  double setup_s = 0.0;
};

std::unique_ptr<Deployment> deploy(const Workload& w, AttributeRegistry& attrs,
                                   AttributeId seq_attr,
                                   const std::vector<ControlOp>& initial,
                                   Tracer* tracer) {
  auto d = std::make_unique<Deployment>();
  for (std::size_t s = 0; s < kSubscribers; ++s) {
    d->receivers.push_back(std::make_unique<Receiver>());
    d->receivers.back()->offset =
        static_cast<std::int64_t>(s * kBatch / kSubscribers);
  }
  std::vector<std::vector<std::string>> texts(kSubscribers);
  std::vector<std::vector<std::uint64_t>> handles(kSubscribers);
  for (const ControlOp& op : initial) {
    texts[op.subscriber].push_back(op.text);
    handles[op.subscriber].push_back(op.handle);
  }

  const std::int64_t start = now_ns();
  ShardedBrokerConfig config;
  config.shard_count = w.shards;
  config.delivery.mode = w.delivery;
  d->broker = std::make_unique<ShardedBroker>(attrs, config);
  for (std::size_t s = 0; s < kSubscribers; ++s) {
    Receiver* r = d->receivers[s].get();
    d->subscribers.push_back(d->broker->register_subscriber(
        [r, seq_attr](const ncps::Notification& n) {
          const std::int64_t seq = n.event->find(seq_attr)->as_int();
          const auto batch_size = static_cast<std::int64_t>(kBatch);
          const std::int64_t batch = seq / batch_size;
          if (batch != r->last_batch && seq % batch_size >= r->offset) {
            r->last_batch = batch;
            r->reads.emplace_back(batch, now_ns());
          }
          if (seq % kSampleStride == 0) {
            r->sampled.emplace_back(seq, n.subscription.value());
          }
          r->delivered.fetch_add(1, std::memory_order_relaxed);
        }));
  }
  for (std::size_t s = 0; s < kSubscribers; ++s) {
    std::vector<SubscriptionId> ids;
    {
      ScopedSpan span(tracer, "broker", "subscribe_bulk");
      ids = d->broker->subscribe_bulk(d->subscribers[s], texts[s]);
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      d->live.emplace(handles[s][i],
                      Deployment::Live{ids[i], s, std::move(texts[s][i])});
    }
  }
  {
    ScopedSpan span(tracer, "broker", "quiesce");
    d->broker->quiesce();
  }
  d->setup_s = static_cast<double>(now_ns() - start) / 1e9;
  return d;
}

/// Brute-force reference: parse every live subscription into the oracle's
/// own predicate table and evaluate it against the event directly.
class Oracle {
 public:
  Oracle(const Deployment& d, AttributeRegistry& attrs) {
    entries_.reserve(d.live.size());
    for (const auto& [handle, live] : d.live) {
      entries_.push_back(Entry{live.id.value(), live.subscriber,
                               ncps::parse_subscription(live.text, attrs,
                                                        table_)});
    }
  }

  /// Sorted (subscription, subscriber) pairs the event must notify.
  std::vector<std::pair<std::uint32_t, std::size_t>> expected(
      const Event& event) const {
    std::vector<std::pair<std::uint32_t, std::size_t>> out;
    for (const Entry& e : entries_) {
      if (ncps::ast::evaluate_against_event(e.expr.root(), table_, event)) {
        out.emplace_back(e.subscription, e.subscriber);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  struct Entry {
    std::uint32_t subscription;
    std::size_t subscriber;
    ncps::ast::Expr expr;
  };
  ncps::PredicateTable table_;  // outlives entries_ (declared first)
  std::vector<Entry> entries_;
};

/// Events are the pool entry seq % pool size, stamped with their sequence
/// number on an attribute no predicate references.
Event make_event(const std::vector<Event>& pool, AttributeId seq_attr,
                 std::int64_t seq) {
  Event e = pool[static_cast<std::size_t>(seq) % pool.size()];
  e.set(seq_attr, ncps::Value(seq));
  return e;
}

/// Check the sampled events with sequence numbers in `seqs` against the
/// oracle; returns the number of events whose notification set differs.
std::size_t verify(const Deployment& d, const Oracle& oracle,
                   const std::vector<Event>& pool, AttributeId seq_attr,
                   const std::vector<std::int64_t>& seqs) {
  std::map<std::int64_t, std::vector<std::pair<std::uint32_t, std::size_t>>>
      actual;
  for (const std::int64_t seq : seqs) actual[seq];
  for (std::size_t s = 0; s < d.receivers.size(); ++s) {
    for (const auto& [seq, subscription] : d.receivers[s]->sampled) {
      const auto it = actual.find(seq);
      if (it != actual.end()) it->second.emplace_back(subscription, s);
    }
  }
  std::size_t mismatches = 0;
  for (auto& [seq, got] : actual) {
    std::sort(got.begin(), got.end());
    const auto want = oracle.expected(make_event(pool, seq_attr, seq));
    if (got != want) {
      if (mismatches == 0) {
        std::printf("# oracle mismatch: event %lld notified %zu, expected %zu\n",
                    static_cast<long long>(seq), got.size(), want.size());
      }
      ++mismatches;
    }
  }
  return mismatches;
}

/// Per-batch publish clock, indexed by batch number (sequence / kBatch).
struct PublishLog {
  std::vector<std::int64_t> start_ns;
  std::vector<std::int64_t> return_ns;
  std::vector<bool> traced;
  std::uint64_t accepted = 0;  // publish_batch return values
  std::uint64_t events = 0;
  std::uint64_t failed = 0;    // publish calls that threw
};

class Publisher {
 public:
  Publisher(Deployment& d, const std::vector<Event>& pool, AttributeId seq)
      : d_(&d), pool_(&pool), seq_attr_(seq), batch_(kBatch) {}

  /// Publish the next batch; returns its wall time in ns.
  std::int64_t publish(PublishLog& log, Tracer* tracer) {
    const auto b = static_cast<std::size_t>(next_seq_) / kBatch;
    for (Event& e : batch_) e = make_event(*pool_, seq_attr_, next_seq_++);
    const std::int64_t start = now_ns();
    try {
      log.accepted += d_->broker->publish_batch(batch_);
    } catch (const std::exception& e) {
      std::printf("# publish_batch threw: %s\n", e.what());
      ++log.failed;
    }
    const std::int64_t end = now_ns();
    if (tracer != nullptr) {
      tracer->add("broker", "publish_batch", start, end, Tracer::kNoParent,
                  static_cast<std::int64_t>(b));
    }
    log.start_ns.resize(b + 1, 0);
    log.return_ns.resize(b + 1, 0);
    log.traced.resize(b + 1, false);
    log.start_ns[b] = start;
    log.return_ns[b] = end;
    log.traced[b] = tracer != nullptr;
    log.events += kBatch;
    return end - start;
  }

  /// Publish one batch of oracle-sampled events (outside the batch-number
  /// range the publish log covers); returns their sequence numbers.
  std::vector<std::int64_t> publish_probe(PublishLog& log) {
    std::vector<std::int64_t> seqs;
    std::vector<Event> probe;
    for (std::size_t i = 0; i < kBatch; ++i) {
      seqs.push_back(probe_seq_);
      probe.push_back(make_event(*pool_, seq_attr_, probe_seq_));
      probe_seq_ += kSampleStride;
    }
    log.accepted += d_->broker->publish_batch(probe);
    log.events += kBatch;
    return seqs;
  }

  std::int64_t next_seq() const { return next_seq_; }

 private:
  Deployment* d_;
  const std::vector<Event>* pool_;
  AttributeId seq_attr_;
  std::vector<Event> batch_;
  std::int64_t next_seq_ = 0;
  std::int64_t probe_seq_ = kSampleStride * (std::int64_t{1} << 34);
};

/// One control op's clock readings, from its due time to visibility.
struct ControlRecord {
  const char* name = "";  // span name in traced runs
  std::int64_t due = 0;
  std::int64_t call_start = 0;
  std::int64_t call_end = 0;
  std::int64_t visible = 0;
};

struct ControlLog {
  std::vector<ControlRecord> ops;
  std::uint64_t failed = 0;
};

std::uint64_t applied_everywhere(const ShardedBroker& broker) {
  std::uint64_t applied = ~std::uint64_t{0};
  for (std::size_t s = 0; s < broker.shard_count(); ++s) {
    applied = std::min(applied, broker.shard_applied_generation(s));
  }
  return applied;
}

/// Issue one control op and return its generation fence.
std::uint64_t issue(Deployment& d, const ControlOp& op, ControlLog& log) {
  try {
    if (op.subscribe) {
      const SubscriptionId id =
          d.broker->subscribe(d.subscribers[op.subscriber], op.text);
      d.live.emplace(op.handle,
                     Deployment::Live{id, op.subscriber, op.text});
    } else {
      const auto it = d.live.find(op.handle);
      if (it == d.live.end() || !d.broker->unsubscribe(it->second.id)) {
        ++log.failed;
      }
      if (it != d.live.end()) d.live.erase(it);
    }
  } catch (const std::exception& e) {
    std::printf("# control op threw: %s\n", e.what());
    ++log.failed;
  }
  return d.broker->control_generation();
}

/// Churn control client: open loop at `rate` ops/s from `start`, each op
/// timed from its due time until every shard has applied it. Runs until
/// `stop`, then waits for the ops still in flight to become visible.
void run_churn_control(Deployment& d, ChurnPlan& plan, double rate,
                       std::int64_t start, const std::atomic<bool>& stop,
                       ControlLog& log) {
  std::deque<std::pair<std::size_t, std::uint64_t>> pending;
  const double period = 1e9 / rate;
  for (;;) {
    std::int64_t now = now_ns();
    if (!pending.empty()) {
      const std::uint64_t applied = applied_everywhere(*d.broker);
      while (!pending.empty() && pending.front().second <= applied) {
        log.ops[pending.front().first].visible = now;
        pending.pop_front();
      }
    }
    const bool stopping = stop.load(std::memory_order_acquire);
    if (stopping && pending.empty()) return;
    const auto due =
        start + static_cast<std::int64_t>(period *
                                          static_cast<double>(log.ops.size()));
    if (!stopping && now >= due) {
      const ControlOp op = plan.next();
      ControlRecord rec{op.subscribe ? "subscribe" : "unsubscribe", due,
                        now_ns(), 0, 0};
      const std::uint64_t gen = issue(d, op, log);
      rec.call_end = now_ns();
      log.ops.push_back(rec);
      pending.emplace_back(log.ops.size() - 1, gen);
      continue;
    }
    // Poll visibility at ~50us resolution; sleep to the next due time when
    // nothing is in flight.
    now = now_ns();
    const std::int64_t wait = pending.empty() && !stopping
                                  ? std::min<std::int64_t>(due - now, 1'000'000)
                                  : 50'000;
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
  }
}

/// Static workloads' control probe, run by the publisher between two
/// batches of the window: kProbeOpsPerBatch closed-loop ops, each
/// subscribing a fresh text of the workload's shape, unsubscribing it again
/// and waiting until every shard has applied both, so the next batch sees
/// the same population. Spread over the window, the ops see the machine as
/// the publisher does; ops of ~20us run back to back in a fraction of a
/// second took the speed of whichever CPU and moment they landed on.
void run_probe(Deployment& d, TextGenerator& texts, ControlLog& log) {
  for (std::size_t i = 0; i < kProbeOpsPerBatch; ++i) {
    const std::string text = texts.next();
    const SubscriberId subscriber =
        d.subscribers[log.ops.size() % d.subscribers.size()];
    const std::int64_t due = now_ns();
    try {
      const SubscriptionId id = d.broker->subscribe(subscriber, text);
      if (!d.broker->unsubscribe(id)) ++log.failed;
    } catch (const std::exception& e) {
      std::printf("# control op threw: %s\n", e.what());
      ++log.failed;
    }
    const std::int64_t call_end = now_ns();
    // quiesce() drains every shard on this thread, so the fences of shards
    // the op did not reach advance without waiting for the apply thread
    // to wake up.
    const std::uint64_t gen = d.broker->control_generation();
    d.broker->quiesce();
    if (applied_everywhere(*d.broker) < gen) ++log.failed;
    log.ops.push_back(
        ControlRecord{"subscribe_unsubscribe", due, due, call_end, now_ns()});
  }
}

/// Single-threaded replica of the population, driven layer by layer so
/// phase 1 and phase 2 are timed from the outside: one predicate table, one
/// standalone PredicateIndex and one engine of the broker's default kind.
struct Replica {
  ncps::PredicateTable table;
  std::unique_ptr<ncps::FilterEngine> engine;
  ncps::PredicateIndex index;
  std::unique_ptr<ncps::MatchContext> ctx;
  std::uint64_t fulfilled = 0;
  std::uint64_t events = 0;
  std::int64_t stab_ns = 0;
  std::int64_t phase2_ns = 0;
  std::vector<std::int64_t> batch_ns;  // serial match time per replayed batch

  Replica(const Deployment& d, AttributeRegistry& attrs, Tracer& tracer) {
    const ShardedBrokerConfig defaults;
    engine = ncps::make_engine(defaults.engine, table, defaults.normalisation);
    engine->begin_bulk_load();
    for (const auto& [handle, live] : d.live) {
      ncps::ast::Expr expr;
      {
        ScopedSpan span(&tracer, "subscription", "parse");
        expr = ncps::parse_subscription(live.text, attrs, table);
      }
      ScopedSpan span(&tracer, "engine", "add");
      engine->add(expr.root());
    }
    {
      ScopedSpan span(&tracer, "engine", "finish_bulk_load");
      engine->finish_bulk_load(nullptr);
    }
    std::vector<ncps::PredicateIndex::BulkEntry> entries;
    table.for_each([&](ncps::PredicateId id, const ncps::Predicate& p) {
      entries.push_back({id, &p});
    });
    {
      ScopedSpan span(&tracer, "index", "bulk_load");
      index.bulk_load(entries, nullptr);
    }
    ctx = engine->make_context();
  }

  void replay(const std::vector<Event>& batch, std::int64_t batch_id,
              Tracer& tracer) {
    struct NullSink final : ncps::MatchSink {
      void on_match(std::size_t, const Event&, SubscriptionId) override {}
    } sink;
    std::vector<ncps::PredicateId> flat;
    std::vector<std::uint32_t> offsets;
    const int root = tracer.begin("bench", "replay_batch", Tracer::kNoParent,
                                  batch_id);
    std::int64_t t = now_ns();
    index.match_batch(batch, table, flat, offsets);
    std::int64_t u = now_ns();
    tracer.add("index", "match_batch", t, u, root, batch_id);
    stab_ns += u - t;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::span<const ncps::PredicateId> fulfilled_set(
          flat.data() + offsets[i], offsets[i + 1] - offsets[i]);
      t = now_ns();
      engine->match_predicates(fulfilled_set, i, batch[i], sink, *ctx);
      u = now_ns();
      tracer.add("engine", "match_predicates", t, u, root, batch_id);
      phase2_ns += u - t;
    }
    tracer.end(root);
    const Tracer::Span& span = tracer.spans()[static_cast<std::size_t>(root)];
    batch_ns.push_back(span.end_ns - span.start_ns);
    fulfilled += flat.size();
    events += batch.size();
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
};

bool parse_options(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--trace-out") {
      o.trace_out = value;
    } else if (key == "--git-sha") {
      o.git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0.0;
}

/// Everything generated from the seed before the broker exists.
struct Inputs {
  Inputs(const Workload& w, std::uint64_t seed)
      : seq_attr(attrs.intern("bench_seq")),
        texts(w.shape, seed * 0x9e3779b97f4a7c15ULL + 1),
        plan(w.population, kSubscribers, texts, seed + 7) {
    EventGenerator events(attrs, seed * 31 + 3);
    pool.reserve(kEventPool);
    for (std::size_t i = 0; i < kEventPool; ++i) pool.push_back(events.next());
  }

  AttributeRegistry attrs;
  AttributeId seq_attr;
  TextGenerator texts;
  ChurnPlan plan;  // the initial population; on churn also the control stream
  std::vector<Event> pool;
};

/// What the measurement window observed.
struct Window {
  std::size_t batches = 0;
  double seconds = 0.0;
  /// Mean publish time per batch of each complete segment, [0] untraced and
  /// [1] traced; traced runs alternate the two.
  std::vector<double> segment_ns[2];
  std::size_t counted_batches = 0;  // batches of complete traced segments
  std::uint64_t tasks = 0;          // ncps_match_tasks_total over those
  std::uint64_t steals = 0;         // ncps_steals_total over those
  std::vector<double> snapshot_us;  // metrics() call times
};

/// Closed-loop publishing from `start` for `seconds`, calling
/// `between_batches` (when set) after each batch. With a tracer the window
/// alternates untraced and traced segments of kSegmentBatches, and samples
/// the broker's counters around each traced segment.
Window measure(Publisher& publisher, PublishLog& log, ShardedBroker& broker,
               std::int64_t start, double seconds, Tracer* tracer,
               const std::function<void()>& between_batches) {
  Window win;
  const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t last_return = start;
  std::int64_t segment_ns = 0;
  std::uint64_t tasks0 = 0;
  std::uint64_t steals0 = 0;
  const auto sample = [&](std::uint64_t& tasks, std::uint64_t& steals) {
    const std::int64_t t = now_ns();
    const ncps::obs::MetricsSnapshot snap = broker.metrics();
    const std::int64_t u = now_ns();
    tracer->add("obs", "metrics_snapshot", t, u);
    win.snapshot_us.push_back(static_cast<double>(u - t) / 1e3);
    tasks = snap.counter_total("ncps_match_tasks_total");
    steals = snap.counter_total("ncps_steals_total");
  };
  while (now_ns() < end) {
    const bool traced =
        tracer != nullptr && (win.batches / kSegmentBatches) % 2 == 1;
    if (traced && win.batches % kSegmentBatches == 0) sample(tasks0, steals0);
    segment_ns += publisher.publish(log, traced ? tracer : nullptr);
    if (between_batches) between_batches();
    last_return = now_ns();
    if (++win.batches % kSegmentBatches != 0) continue;
    win.segment_ns[traced].push_back(static_cast<double>(segment_ns) /
                                     static_cast<double>(kSegmentBatches));
    segment_ns = 0;
    if (traced) {
      std::uint64_t tasks1 = 0;
      std::uint64_t steals1 = 0;
      sample(tasks1, steals1);
      win.tasks += tasks1 - tasks0;
      win.steals += steals1 - steals0;
      win.counted_batches += kSegmentBatches;
    }
  }
  win.seconds = static_cast<double>(last_return - start) / 1e9;
  return win;
}

/// Notifications accepted by the broker that never reached a callback,
/// plus those the delivery plane reports dropped.
std::uint64_t lost_notifications(const Deployment& d, const PublishLog& log,
                                 std::uint64_t& dropped) {
  std::uint64_t delivered = 0;
  dropped = 0;
  for (std::size_t s = 0; s < d.receivers.size(); ++s) {
    delivered += d.receivers[s]->delivered.load(std::memory_order_relaxed);
    if (const auto stats = d.broker->delivery_stats(d.subscribers[s])) {
      dropped += stats->dropped;
    }
  }
  return dropped + (delivered > log.accepted ? delivered - log.accepted
                                             : log.accepted - delivered);
}

struct Latencies {
  std::vector<double> notify_ms;  // publish_batch call -> callback, by batch
  std::vector<double> queue_ms;   // publish_batch return -> callback
  std::vector<double> visible_ms;
  std::vector<double> call_us;
  std::vector<double> apply_wait_ms;
  std::vector<double> late_ms;
};

/// Latencies of the window's batches and of every timed control op; in a
/// traced run also records them as delivery and control spans.
Latencies collect_latencies(const Deployment& d, const PublishLog& log,
                            const ControlLog& control, std::size_t batches,
                            DeliveryMode mode, Tracer* tracer) {
  Latencies lat;
  std::map<std::int64_t, std::int64_t> first_callback;  // by batch
  std::vector<std::pair<std::int64_t, double>> notify;  // (batch, ms)
  for (std::size_t s = 0; s < d.receivers.size(); ++s) {
    for (const auto& [b, cb] : d.receivers[s]->reads) {
      const auto bi = static_cast<std::size_t>(b);
      if (bi < kWarmupBatches || bi >= kWarmupBatches + batches) continue;
      notify.emplace_back(b, ms(cb - log.start_ns[bi]));
      if (!log.traced[bi]) continue;
      lat.queue_ms.push_back(std::max(0.0, ms(cb - log.return_ns[bi])));
      const auto it = first_callback.find(b);
      if (it == first_callback.end() || cb < it->second) first_callback[b] = cb;
      if (mode == DeliveryMode::Async) {
        tracer->add("delivery", "queue", log.return_ns[bi],
                    std::max(cb, log.return_ns[bi]), Tracer::kNoParent, b,
                    2 + static_cast<int>(s));
      }
    }
  }
  std::stable_sort(notify.begin(), notify.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [b, latency] : notify) lat.notify_ms.push_back(latency);
  if (tracer != nullptr && mode == DeliveryMode::Inline) {
    // Inline delivery runs inside publish_batch, from the batch's earliest
    // reading to the call's return: a child of the publish_batch span.
    const std::size_t spans = tracer->spans().size();
    for (std::size_t i = 0; i < spans; ++i) {
      const Tracer::Span& p = tracer->spans()[i];
      if (p.layer != "broker" || p.name != "publish_batch") continue;
      const auto it = first_callback.find(p.batch);
      if (it == first_callback.end()) continue;
      tracer->add("delivery", "inline", it->second, p.end_ns,
                  static_cast<int>(i), p.batch);
    }
  }
  for (const ControlRecord& r : control.ops) {
    lat.visible_ms.push_back(ms(r.visible - r.due));
    lat.call_us.push_back(static_cast<double>(r.call_end - r.call_start) / 1e3);
    lat.apply_wait_ms.push_back(ms(r.visible - r.call_end));
    lat.late_ms.push_back(ms(r.call_start - r.due));
    if (tracer != nullptr) {
      tracer->add("broker", r.name, r.call_start, r.call_end,
                  Tracer::kNoParent, -1, 1);
      tracer->add("broker", "apply_wait", r.call_end, r.visible,
                  Tracer::kNoParent, -1, 1);
    }
  }
  return lat;
}

class MetricsJson {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    std::printf("%-32s %14.6f %s\n", name.c_str(), value, unit.c_str());
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  body_.empty() ? "" : ", ", name.c_str(), value,
                  unit.c_str());
    body_ += buf;
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of a traced run. Replays up to kReplayBatches traced
/// batches through the single-threaded replica to time phase 1 and phase 2
/// from the outside.
void report_layers(MetricsJson& out, const Workload& w, const Deployment& d,
                   Inputs& in, const PublishLog& log, const Window& win,
                   const Latencies& lat, std::uint64_t dropped,
                   double seconds, Tracer& tracer) {
  Replica replica(d, in.attrs, tracer);
  std::int64_t replayed_wall_ns = 0;
  std::size_t replayed = 0;
  const auto deadline = now_ns() + static_cast<std::int64_t>(seconds * 0.25e9);
  for (std::size_t b = kWarmupBatches; b < log.traced.size(); ++b) {
    if (!log.traced[b]) continue;
    if (replayed == kReplayBatches || (replayed > 0 && now_ns() > deadline)) {
      break;
    }
    std::vector<Event> batch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      batch.push_back(make_event(in.pool, in.seq_attr,
                                 static_cast<std::int64_t>(b * kBatch + i)));
    }
    replica.replay(batch, static_cast<std::int64_t>(b), tracer);
    replayed_wall_ns += log.return_ns[b] - log.start_ns[b];
    ++replayed;
  }

  const auto per_event = [&](double x) {
    return ratio(x, static_cast<double>(replica.events));
  };
  const auto mean_us = [&](const char* layer, const char* name) {
    std::vector<double> v;
    for (const std::int64_t ns : tracer.durations(layer, name)) {
      v.push_back(static_cast<double>(ns) / 1e3);
    }
    return mean(v);
  };
  const ncps::MatchStats& st = replica.ctx->stats;
  const double stab_us = per_event(static_cast<double>(replica.stab_ns) / 1e3);
  const double phase2_us =
      per_event(static_cast<double>(replica.phase2_ns) / 1e3);
  std::int64_t serial_ns = 0;
  for (const std::int64_t ns : replica.batch_ns) serial_ns += ns;
  // Tracing overhead: median over (untraced, traced) segment pairs.
  std::vector<double> overheads;
  for (std::size_t k = 0; k < win.segment_ns[0].size() &&
                          k < win.segment_ns[1].size();
       ++k) {
    overheads.push_back(ratio(win.segment_ns[1][k], win.segment_ns[0][k]));
  }
  const auto counted = static_cast<double>(win.counted_batches);

  out.add("subscription.parse_us", mean_us("subscription", "parse"), "us");
  out.add("engine.add_us", mean_us("engine", "add"), "us");
  out.add("index.bulk_load_ms", mean_us("index", "bulk_load") / 1e3, "ms");
  out.add("index.stab_us_per_event", stab_us, "us");
  out.add("index.fulfilled_per_event",
          per_event(static_cast<double>(replica.fulfilled)), "count");
  out.add("index.phase1_share_pct", 100.0 * ratio(stab_us, stab_us + phase2_us),
          "%");
  out.add("engine.phase2_us_per_event", phase2_us, "us");
  out.add("engine.candidates_per_event",
          per_event(static_cast<double>(st.candidates)), "count");
  out.add("engine.node_evals_per_event",
          per_event(static_cast<double>(st.node_evaluations)), "count");
  out.add("engine.matches_per_event",
          per_event(static_cast<double>(st.matches)), "count");
  out.add("engine.match_yield",
          ratio(static_cast<double>(st.matches),
                static_cast<double>(st.candidates)),
          "ratio");
  out.add("index.bytes", static_cast<double>(replica.index.memory().total()),
          "bytes");
  out.add("engine.bytes",
          static_cast<double>(replica.engine->memory().total() -
                              replica.engine->predicate_index().memory().total()),
          "bytes");
  out.add("broker.publish_batch_ms", mean_us("broker", "publish_batch") / 1e3,
          "ms");
  out.add("broker.parallel_efficiency",
          ratio(static_cast<double>(serial_ns),
                static_cast<double>(match_workers(w)) *
                    static_cast<double>(replayed_wall_ns)),
          "ratio");
  out.add("broker.match_tasks_per_batch",
          ratio(static_cast<double>(win.tasks), counted), "count");
  out.add("broker.steals_per_batch",
          ratio(static_cast<double>(win.steals), counted), "count");
  out.add("broker.control_call_us", mean(lat.call_us), "us");
  out.add("broker.apply_wait_ms", mean(lat.apply_wait_ms), "ms");
  out.add("delivery.queue_ms", mean(lat.queue_ms), "ms");
  out.add("delivery.dropped", static_cast<double>(dropped), "count");
  out.add("obs.snapshot_us", mean(win.snapshot_us), "us");
  out.add("trace.overhead_pct",
          overheads.empty() ? 0.0 : 100.0 * (percentile(overheads, 0.5) - 1.0),
          "%");
  std::printf("# replayed %zu batches through the replica\n", replayed);
}

int run(const Options& opt) {
  Workload w;
  if (!workload_named(opt.workload, w)) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const std::size_t nproc = online_cpus();
  const std::size_t threads = thread_budget(w);
  char stamp[512];
  std::snprintf(stamp, sizeof(stamp),
                "{\"workload\": \"%s\", \"git_sha\": \"%s\", \"nproc\": %zu, "
                "\"seed\": %llu, \"threads\": %zu, \"trace\": %s, "
                "\"seconds\": %g}",
                w.name.c_str(), opt.git_sha.c_str(), nproc,
                static_cast<unsigned long long>(opt.seed), threads,
                opt.trace ? "true" : "false", opt.seconds);
  std::printf("# stamp %s\n", stamp);
  if (threads > nproc) {
    std::fprintf(stderr,
                 "workload %s needs %zu threads but only %zu CPUs are "
                 "available; refusing to run\n",
                 w.name.c_str(), threads, nproc);
    return 2;
  }
  const bool churn = w.control_rate > 0.0;
  Inputs in(w, opt.seed);
  const std::unique_ptr<Tracer> traced =
      opt.trace ? std::make_unique<Tracer>() : nullptr;
  Tracer* tracer = traced.get();

  // Setup: broker construction + subscribe_bulk, up to quiesce().
  std::vector<double> setups;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < (opt.trace ? 1 : kSetupRepeats); ++i) {
    d.reset();
    d = deploy(w, in.attrs, in.seq_attr, in.plan.initial(), tracer);
    setups.push_back(d->setup_s);
  }
  const double memory_mb =
      static_cast<double>(d->broker->memory().total()) / 1e6;
  ShardedBroker& broker = *d->broker;
  Publisher publisher(*d, in.pool, in.seq_attr);
  PublishLog log;
  for (std::size_t i = 0; i < kWarmupBatches; ++i) publisher.publish(log, nullptr);
  broker.quiesce();

  std::size_t mismatches = 0;
  std::size_t checked = 0;
  const auto check = [&](const std::vector<std::int64_t>& seqs) {
    mismatches += verify(*d, Oracle(*d, in.attrs), in.pool, in.seq_attr, seqs);
    checked += seqs.size();
  };
  // Churn's population changes under the publisher, so the oracle checks a
  // probe batch at quiesced points before and after the window.
  const auto check_probe_batch = [&] {
    const std::vector<std::int64_t> seqs = publisher.publish_probe(log);
    broker.quiesce();
    check(seqs);
  };
  if (churn) check_probe_batch();

  // The measurement window; churn's control client races the publisher.
  ControlLog control;
  std::atomic<bool> stop{false};
  std::atomic<bool> client_done{false};
  const std::int64_t start = now_ns();
  std::thread client;
  if (churn) {
    client = std::thread([&] {
      run_churn_control(*d, in.plan, w.control_rate, start, stop, control);
      client_done.store(true, std::memory_order_release);
    });
  }
  // Static workloads run the control probe between batches.
  const Window win =
      measure(publisher, log, broker, start, opt.seconds, tracer,
              churn ? std::function<void()>()
                    : [&] { run_probe(*d, in.texts, control); });
  const std::int64_t window_seqs = publisher.next_seq();
  if (churn) {
    // The single-shard broker applies queued control ops at batch starts:
    // keep publishing (untimed) until the last ops are visible.
    stop.store(true, std::memory_order_release);
    while (!client_done.load(std::memory_order_acquire)) {
      publisher.publish(log, nullptr);
    }
    client.join();
  }
  broker.quiesce();
  if (churn) {
    check_probe_batch();
  } else {
    std::vector<std::int64_t> seqs;
    for (std::int64_t s = 0; s < window_seqs && seqs.size() < kOracleEvents;
         s += kSampleStride) {
      seqs.push_back(s);
    }
    check(seqs);
  }

  std::uint64_t dropped = 0;
  const std::uint64_t lost = lost_notifications(*d, log, dropped);
  const std::uint64_t attempted =
      in.plan.initial().size() + log.events + control.ops.size();
  const std::uint64_t failed = mismatches + control.failed + log.failed + lost;
  const Latencies lat =
      collect_latencies(*d, log, control, win.batches, w.delivery, tracer);

  std::vector<double> batch_ms;
  for (std::size_t b = kWarmupBatches; b < kWarmupBatches + win.batches; ++b) {
    batch_ms.push_back(ms(log.return_ns[b] - log.start_ns[b]));
  }
  std::printf("# publish_batch ms: p10 %.3f p50 %.3f p90 %.3f max %.3f\n",
              percentile(batch_ms, 0.1), percentile(batch_ms, 0.5),
              percentile(batch_ms, 0.9), percentile(batch_ms, 1.0));
  std::printf(
      "# %s: %zu batches in %.3f s, %zu notify samples, %zu control ops "
      "(generator late p50 %.3f ms, p99 %.3f ms), oracle checked %zu events: "
      "%zu mismatches, %llu notifications lost, error_rate %.6g\n",
      w.name.c_str(), win.batches, win.seconds, lat.notify_ms.size(),
      control.ops.size(), percentile(lat.late_ms, 0.5),
      percentile(lat.late_ms, 0.99), checked, mismatches,
      static_cast<unsigned long long>(lost),
      static_cast<double>(failed) / static_cast<double>(attempted));

  MetricsJson metrics;
  if (!opt.trace) {
    metrics.add("events_per_s",
                static_cast<double>(win.batches * kBatch) / win.seconds, "1/s");
    metrics.add("notify_p50_ms", percentile(lat.notify_ms, 0.50), "ms");
    metrics.add("notify_p99_ms", p99_of_stretches(lat.notify_ms), "ms");
    metrics.add("control_visible_p50_ms", percentile(lat.visible_ms, 0.50),
                "ms");
    metrics.add("control_visible_p99_ms", p99_of_stretches(lat.visible_ms),
                "ms");
    metrics.add("setup_s", percentile(setups, 0.5), "s");
    metrics.add("memory_mb", memory_mb, "MB");
  } else {
    report_layers(metrics, w, *d, in, log, win, lat, dropped, opt.seconds,
                  *tracer);
    std::printf("# layer self/total ms:");
    for (const auto& [layer, t] : tracer->layer_times()) {
      std::printf("  %s %.3f/%.3f (%zu spans)", layer.c_str(), t.self_ms,
                  t.total_ms, t.spans);
    }
    std::printf("\n");
    if (!opt.trace_out.empty()) {
      if (!tracer->write_chrome_json(opt.trace_out, stamp)) {
        std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
        return 2;
      }
      std::printf("# trace written to %s\n", opt.trace_out.c_str());
    }
  }

  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.body().c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (!perfbench::parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload broad|overlap|churn --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] [--git-sha SHA]\n");
    return 2;
  }
  return perfbench::run(opt);
}
