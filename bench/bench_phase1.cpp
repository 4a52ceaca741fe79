// Phase-1 index microbenchmarks for the PR 6 overhaul: dictionary-encoded
// values, compressed posting lists with galloping intersection, and the
// bulk build.
//
// Four measurement groups, each emitting JsonRows:
//   phase1_stab      — events/sec through PredicateIndex::match vs a naive
//                      reference index (the seed's pre-overhaul shape:
//                      Value-keyed hash maps of id vectors, linear interval
//                      scans, per-probe string allocation), swept over
//                      population x operand-domain (selectivity) x batch.
//   phase1_postings  — resident posting bytes vs the uncompressed
//                      vector-per-list baseline (target ratio <= 0.6).
//   phase1_intersect — PostingList::intersect_into vs concatenate-then-filter
//                      for candidate pruning against sorted query sets.
//   phase1_bulk_load — attribute-partitioned bulk_load vs an add() loop.
//                      The build is sequential (a parallel one measured no
//                      faster); `parallel_seconds` repeats the sequential
//                      time so the row schema stays stable until the column
//                      and bulk_load's unused pool argument go together.
#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "index/predicate_index.h"

namespace {

using namespace ncps;
using namespace ncps::bench;

// ---------------------------------------------------------------------------
// Naive reference index: the pre-overhaul phase-1 shape. Equality and prefix
// tables key std::string/Value maps of std::vector<PredicateId>; ranges live
// in std::map walked per stab; Between entries are scanned linearly; prefix
// probes allocate a std::string per length. Deliberately unsophisticated —
// this is the baseline the overhaul is measured against.
class NaiveAttributeIndex {
 public:
  void add(PredicateId id, const Predicate& p) {
    switch (p.op) {
      case Operator::Eq:
        eq_[p.lo].push_back(id);
        return;
      case Operator::Lt:
        upper_[p.lo.numeric()].strict.push_back(id);
        return;
      case Operator::Le:
        upper_[p.lo.numeric()].inclusive.push_back(id);
        return;
      case Operator::Gt:
        lower_[p.lo.numeric()].strict.push_back(id);
        return;
      case Operator::Ge:
        lower_[p.lo.numeric()].inclusive.push_back(id);
        return;
      case Operator::Between:
        intervals_.push_back(Interval{p.lo.numeric(), p.hi.numeric(), id});
        return;
      case Operator::Prefix:
        prefix_[std::string(p.lo.as_string())].push_back(id);
        return;
      case Operator::Exists:
        exists_.push_back(id);
        return;
      default:
        scan_.push_back(id);
        return;
    }
  }

  void stab(const Value& v, const PredicateTable& table,
            std::vector<PredicateId>& out) const {
    if (const auto it = eq_.find(v); it != eq_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
    if (v.is_numeric()) {
      const double d = v.numeric();
      for (auto it = upper_.upper_bound(d); it != upper_.end(); ++it) {
        append(it->second.strict, out);
        append(it->second.inclusive, out);
      }
      if (const auto it = upper_.find(d); it != upper_.end()) {
        append(it->second.inclusive, out);
      }
      for (auto it = lower_.begin(); it != lower_.end() && it->first < d;
           ++it) {
        append(it->second.strict, out);
        append(it->second.inclusive, out);
      }
      if (const auto it = lower_.find(d); it != lower_.end()) {
        append(it->second.inclusive, out);
      }
      for (const Interval& iv : intervals_) {  // full linear scan
        if (iv.lo <= d && d <= iv.hi) out.push_back(iv.id);
      }
    }
    if (v.type() == ValueType::String) {
      const std::string_view s = v.as_string();
      for (std::size_t len = 0; len <= s.size(); ++len) {
        // Per-length std::string allocation: the pre-overhaul probe cost.
        const std::string key(s.substr(0, len));
        if (const auto it = prefix_.find(key); it != prefix_.end()) {
          append(it->second, out);
        }
      }
    }
    append(exists_, out);
    for (const PredicateId id : scan_) {
      const Predicate& p = table.get(id);
      if (eval_operator(p.op, v, p.lo, p.hi)) out.push_back(id);
    }
  }

 private:
  struct Bounds {
    std::vector<PredicateId> strict;
    std::vector<PredicateId> inclusive;
  };
  struct Interval {
    double lo, hi;
    PredicateId id;
  };
  struct ValueHash {
    std::size_t operator()(const Value& v) const { return v.hash(); }
  };

  static void append(const std::vector<PredicateId>& from,
                     std::vector<PredicateId>& to) {
    to.insert(to.end(), from.begin(), from.end());
  }

  std::unordered_map<Value, std::vector<PredicateId>, ValueHash> eq_;
  std::map<double, Bounds> upper_;  // Lt/Le keyed by operand
  std::map<double, Bounds> lower_;  // Gt/Ge keyed by operand
  std::vector<Interval> intervals_;
  std::map<std::string, std::vector<PredicateId>> prefix_;
  std::vector<PredicateId> exists_;
  std::vector<PredicateId> scan_;
};

class NaivePredicateIndex {
 public:
  void add(PredicateId id, const Predicate& p) {
    if (p.op == Operator::NotExists) return;  // out of scope for the bench
    if (p.attribute.value() >= per_attribute_.size()) {
      per_attribute_.resize(p.attribute.value() + 1);
    }
    per_attribute_[p.attribute.value()].add(id, p);
  }

  void match(const Event& event, const PredicateTable& table,
             std::vector<PredicateId>& out) const {
    for (const Event::Entry& entry : event.entries()) {
      if (entry.attribute.value() >= per_attribute_.size()) continue;
      per_attribute_[entry.attribute.value()].stab(entry.value, table, out);
    }
  }

 private:
  std::vector<NaiveAttributeIndex> per_attribute_;
};

// ---------------------------------------------------------------------------
// Synthetic predicate population: a paper-shaped operator mix (equality
// dominated) spread over `attributes`, operands drawn from [0, domain) —
// small domains force many-entry posting lists (high selectivity pressure),
// large domains make singleton lists dominate.
struct Population {
  AttributeRegistry attrs;
  PredicateTable table;
  std::vector<PredicateId> ids;
  std::vector<std::string> attribute_names;

  Population(std::size_t n, std::size_t attributes, std::int64_t domain,
             std::uint64_t seed) {
    Pcg32 rng(seed);
    for (std::size_t a = 0; a < attributes; ++a) {
      attribute_names.push_back("a" + std::to_string(a));
    }
    ids.reserve(n);
    while (ids.size() < n) {
      const AttributeId attr = attrs.intern(
          attribute_names[rng.bounded(static_cast<std::uint32_t>(attributes))]);
      const auto operand = [&] {
        return Value(static_cast<std::int64_t>(
            rng.bounded(static_cast<std::uint32_t>(domain))));
      };
      Predicate p;
      p.attribute = attr;
      const std::uint32_t roll = rng.bounded(100);
      if (roll < 60) {
        p.op = Operator::Eq;
        p.lo = operand();
      } else if (roll < 70) {
        p.op = Operator::Gt;
        p.lo = operand();
      } else if (roll < 80) {
        p.op = Operator::Le;
        p.lo = operand();
      } else if (roll < 90) {
        const std::int64_t lo = rng.bounded(static_cast<std::uint32_t>(domain));
        p.op = Operator::Between;
        p.lo = Value(lo);
        p.hi = Value(lo + 1 + rng.bounded(static_cast<std::uint32_t>(domain)));
      } else {
        p.op = Operator::Prefix;
        p.lo = Value("k" + std::to_string(rng.bounded(
                               static_cast<std::uint32_t>(domain))));
      }
      const auto r = table.intern(p);
      if (r.newly_created) ids.push_back(r.id);
      // Duplicates keep their extra table reference; harmless for a bench.
    }
  }

  Event next_event(Pcg32& rng, std::size_t attributes_per_event,
                   std::int64_t domain) {
    EventBuilder builder(attrs);
    for (std::size_t i = 0; i < attributes_per_event; ++i) {
      const std::string& name = attribute_names[rng.bounded(
          static_cast<std::uint32_t>(attribute_names.size()))];
      if (rng.bounded(8) == 0) {
        builder.set(name, Value("k" + std::to_string(rng.bounded(
                                    static_cast<std::uint32_t>(domain)))));
      } else {
        builder.set(name, Value(static_cast<std::int64_t>(rng.bounded(
                              static_cast<std::uint32_t>(domain)))));
      }
    }
    return builder.build();
  }
};

bool bench_stab(Scale scale) {
  const std::vector<std::size_t> populations =
      scale == Scale::kQuick
          ? std::vector<std::size_t>{20000, 100000, 200000}
          : std::vector<std::size_t>{100000, 500000, 1000000};
  constexpr std::size_t kAttributes = 20;
  constexpr std::size_t kEvents = 200;

  bool speedup_ok = false;
  double headline = 0.0;
  for (const std::size_t n : populations) {
    for (const std::int64_t domain : {2000L, 1000000L}) {
      Population pop(n, kAttributes, domain, 0x9a1d + n);
      PredicateIndex indexed;
      NaivePredicateIndex naive;
      for (const PredicateId id : pop.ids) {
        const Predicate& p = pop.table.get(id);
        indexed.add(id, p);
        naive.add(id, p);
      }
      Pcg32 rng(0xe7e7);
      std::vector<Event> events;
      for (std::size_t i = 0; i < kEvents; ++i) {
        events.push_back(pop.next_event(rng, 6, domain));
      }

      std::vector<PredicateId> out;
      std::size_t matches = 0;
      const double indexed_s = time_seconds([&] {
        matches = 0;
        for (const Event& e : events) {
          out.clear();
          indexed.match(e, pop.table, out);
          matches += out.size();
        }
      });
      const double naive_s = time_seconds([&] {
        for (const Event& e : events) {
          out.clear();
          naive.match(e, pop.table, out);
        }
      });
      // Batched phase 1 amortises traversal setup across the whole batch.
      std::vector<PredicateId> flat;
      std::vector<std::uint32_t> offsets;
      const double batch_s = time_seconds([&] {
        flat.clear();
        offsets.clear();
        indexed.match_batch(events, pop.table, flat, offsets);
      });

      const double speedup = naive_s / indexed_s;
      std::printf(
          "stab n=%zu domain=%lld: indexed %.1f us/ev, naive %.1f us/ev, "
          "batch %.1f us/ev, speedup %.2fx (%.1f matches/ev)\n",
          n, static_cast<long long>(domain),
          indexed_s / kEvents * 1e6, naive_s / kEvents * 1e6,
          batch_s / kEvents * 1e6, speedup,
          static_cast<double>(matches) / kEvents);
      JsonRow("phase1_stab")
          .field("predicates", n)
          .field("domain", static_cast<std::size_t>(domain))
          .field("events", kEvents)
          .field("indexed_us_per_event", indexed_s / kEvents * 1e6)
          .field("naive_us_per_event", naive_s / kEvents * 1e6)
          .field("batch_us_per_event", batch_s / kEvents * 1e6)
          .field("speedup", speedup)
          .field("matches_per_event",
                 static_cast<double>(matches) / kEvents)
          .emit();
      if (n >= 100000) {
        headline = std::max(headline, speedup);
        if (speedup >= 2.0) speedup_ok = true;
      }

      // Posting compression at this population.
      const PostingList::Stats stats = indexed.posting_stats();
      const double ratio = stats.baseline_bytes == 0
                               ? 1.0
                               : static_cast<double>(stats.bytes) /
                                     static_cast<double>(stats.baseline_bytes);
      JsonRow("phase1_postings")
          .field("predicates", n)
          .field("domain", static_cast<std::size_t>(domain))
          .field("lists", stats.lists)
          .field("entries", stats.entries)
          .field("bytes", stats.bytes)
          .field("baseline_bytes", stats.baseline_bytes)
          .field("ratio", ratio)
          .emit();
    }
  }
  std::printf("# phase-1 speedup at >=100k predicates: best %.2fx — %s\n",
              headline, speedup_ok ? "PASS" : "FAIL");
  JsonRow("phase1_claim")
      .field("claim", "indexed_2x_naive_at_100k")
      .field("best_speedup", headline)
      .field("verdict", speedup_ok ? "PASS" : "FAIL")
      .emit();
  return speedup_ok;
}

void bench_intersect(Scale scale) {
  const std::size_t list_size = scale == Scale::kQuick ? 200000 : 1000000;
  Pcg32 rng(0x1a7e);
  PostingList list;
  std::vector<std::uint32_t> members;
  for (std::uint32_t i = 0; i < list_size; ++i) {
    const std::uint32_t id = i * 3 + rng.bounded(3);  // ~1/3 density
    list.add(id);
    members.push_back(id);
  }
  list.compact();

  for (const std::size_t probe_size : {64u, 1024u, 16384u}) {
    std::vector<std::uint32_t> probe;
    for (std::size_t i = 0; i < probe_size; ++i) {
      probe.push_back(rng.bounded(static_cast<std::uint32_t>(list_size * 3)));
    }
    std::sort(probe.begin(), probe.end());
    probe.erase(std::unique(probe.begin(), probe.end()), probe.end());

    std::vector<std::uint32_t> out;
    const double intersect_s = time_seconds([&] {
      out.clear();
      list.intersect_into(probe, out);
    });
    // Concat baseline: decode the whole list, keep ids present in the probe
    // (what phase 2 would do without a pruning intersection).
    std::vector<std::uint32_t> concat;
    const double concat_s = time_seconds([&] {
      concat.clear();
      list.for_each([&](std::uint32_t v) {
        if (std::binary_search(probe.begin(), probe.end(), v)) {
          concat.push_back(v);
        }
      });
    });
    std::printf("intersect list=%zu probe=%zu: gallop %.1f us, concat %.1f us "
                "(%.1fx)\n",
                list_size, probe.size(), intersect_s * 1e6, concat_s * 1e6,
                concat_s / intersect_s);
    JsonRow("phase1_intersect")
        .field("list_size", list_size)
        .field("probe_size", probe.size())
        .field("intersect_us", intersect_s * 1e6)
        .field("concat_us", concat_s * 1e6)
        .field("speedup", concat_s / intersect_s)
        .emit();
  }
}

void bench_bulk_load(Scale scale) {
  const std::size_t n = scale == Scale::kQuick ? 200000 : 1000000;
  constexpr std::size_t kAttributes = 32;
  Population pop(n, kAttributes, 1000000, 0xb17e);

  std::vector<PredicateIndex::BulkEntry> entries;
  entries.reserve(pop.ids.size());
  for (const PredicateId id : pop.ids) {
    entries.push_back(PredicateIndex::BulkEntry{id, &pop.table.get(id)});
  }

  const double add_loop_s = time_seconds(
      [&] {
        PredicateIndex index;
        for (const auto& e : entries) index.add(e.id, *e.predicate);
      },
      3);
  const double sequential_s = time_seconds(
      [&] {
        PredicateIndex index;
        index.bulk_load(entries, nullptr);
      },
      3);
  std::printf("bulk_load n=%zu: add-loop %.3fs, bulk %.3fs — %.2fx vs the "
              "add-loop\n",
              n, add_loop_s, sequential_s, add_loop_s / sequential_s);
  JsonRow("phase1_bulk_load")
      .field("predicates", n)
      .field("threads", std::size_t{1})
      .field("add_loop_seconds", add_loop_s)
      .field("sequential_seconds", sequential_s)
      .field("parallel_seconds", sequential_s)
      .field("speedup", 1.0)
      .emit();
}

}  // namespace

int main() {
  const Scale scale = scale_from_env();
  std::printf("# phase-1 index bench (scale=%s)\n", to_string(scale));
  const bool ok = bench_stab(scale);
  bench_intersect(scale);
  bench_bulk_load(scale);
  return ok ? 0 : 1;
}
