// Seeded input generators owned by the benchmark.
//
// The benchmark does not reuse the library's workload module: a change to
// src/workload must not silently change what the benchmark feeds the broker,
// or parent and child commits would be measured on different inputs. These
// generators reproduce the same shapes (PaperWorkload's AND-of-ORs over
// unique {>, <=, ==} predicates, ChurnWorkload's Zipf-hot duplicate texts
// and Zipf lifetimes) and emit what the broker receives: subscription text
// and events. The same seed always gives the same inputs.
#pragma once

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "event/event.h"
#include "event/schema.h"

namespace perfbench {

/// splitmix64: small, fast, and fully determined by its seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks [0, n): rank 0 is the most likely.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The paper's §4 shape: |p| predicates per subscription, as |p|/2 OR groups
/// of two, ANDed, over kAttributes attributes with values in [0, kDomain).
constexpr std::size_t kPredicates = 6;
constexpr std::size_t kAttributes = 50;
constexpr std::int64_t kDomain = 1'000'000'000;
/// Duplicate texts repeat one of the first kDuplicatePool distinct texts,
/// drawn Zipf(kDuplicateSkew).
constexpr std::size_t kDuplicatePool = 64;
constexpr double kDuplicateSkew = 1.0;

struct ShapeConfig {
  /// Probability that a predicate reuses an earlier one instead of a fresh
  /// triple (0 = the paper's unique-predicate regime).
  double sharing = 0.0;
  /// Probability that a subscription repeats a text of the duplicate pool.
  double duplicate = 0.0;
};

/// Subscription texts in the paper's §4 shape, e.g.
/// "(attr3 > 17 or attr9 <= 5) and (attr1 == 8 or attr4 > 2) and (...)".
class TextGenerator {
 public:
  TextGenerator(ShapeConfig config, std::uint64_t seed);
  std::string next();

 private:
  std::string predicate();

  ShapeConfig config_;
  Rng rng_;
  Zipf duplicate_ranks_;
  std::vector<std::string> predicates_;
  std::vector<std::string> duplicate_pool_;
};

/// Events with every workload attribute present and values uniform over the
/// domain, so each {>, <=} predicate holds with probability ~1/2.
class EventGenerator {
 public:
  EventGenerator(ncps::AttributeRegistry& attrs, std::uint64_t seed);
  ncps::Event next();

 private:
  Rng rng_;
  std::vector<ncps::AttributeId> attributes_;
};

/// One subscribe or unsubscribe of the churn control stream. Handles are
/// dense in subscribe order; the initial population holds handles
/// [0, population).
struct ControlOp {
  bool subscribe = true;
  std::uint64_t handle = 0;
  std::size_t subscriber = 0;
  std::string text;  // subscribe only
};

/// Churn control stream over a steady population: subscribes and
/// unsubscribes alternate, each new subscription gets a Zipf-ranked
/// lifetime, and the unsubscribe victim is always the live subscription
/// whose lifetime ends first, so short-lived sessions come and go while a
/// heavy tail of standing queries stays.
class ChurnPlan {
 public:
  ChurnPlan(std::size_t population, std::size_t subscribers,
            TextGenerator& texts, std::uint64_t seed);
  /// Texts and owners of the initial population (handles 0..population-1).
  const std::vector<ControlOp>& initial() const { return initial_; }
  ControlOp next();

 private:
  struct Lease {
    std::uint64_t deadline;
    std::uint64_t handle;
    bool operator>(const Lease& other) const {
      return deadline != other.deadline ? deadline > other.deadline
                                        : handle > other.handle;
    }
  };
  std::uint64_t lifetime();

  std::size_t subscribers_;
  TextGenerator* texts_;
  Rng rng_;
  Zipf lifetimes_;
  std::vector<ControlOp> initial_;
  std::priority_queue<Lease, std::vector<Lease>, std::greater<Lease>> live_;
  std::uint64_t next_handle_ = 0;
  std::uint64_t clock_ = 0;
};

}  // namespace perfbench
