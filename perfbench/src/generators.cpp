#include "generators.h"

#include <cmath>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::size_t Zipf::sample(Rng& rng) const {
  const double u = rng.unit();
  std::size_t lo = 0;
  std::size_t hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

TextGenerator::TextGenerator(ShapeConfig config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      duplicate_ranks_(kDuplicatePool, kDuplicateSkew) {}

std::string TextGenerator::predicate() {
  if (config_.sharing > 0.0 && !predicates_.empty() &&
      rng_.unit() < config_.sharing) {
    return predicates_[rng_.below(predicates_.size())];
  }
  static constexpr const char* kOps[] = {" > ", " <= ", " == "};
  std::string p = "attr" + std::to_string(rng_.below(kAttributes));
  p += kOps[rng_.below(3)];
  p += std::to_string(rng_.below(static_cast<std::uint64_t>(kDomain)));
  if (config_.sharing > 0.0) predicates_.push_back(p);
  return p;
}

std::string TextGenerator::next() {
  if (config_.duplicate > 0.0 &&
      duplicate_pool_.size() == kDuplicatePool &&
      rng_.unit() < config_.duplicate) {
    return duplicate_pool_[duplicate_ranks_.sample(rng_)];
  }
  std::string text;
  for (std::size_t g = 0; g < kPredicates / 2; ++g) {
    if (g > 0) text += " and ";
    text += "(" + predicate() + " or " + predicate() + ")";
  }
  if (duplicate_pool_.size() < kDuplicatePool) {
    duplicate_pool_.push_back(text);
  }
  return text;
}

EventGenerator::EventGenerator(ncps::AttributeRegistry& attrs,
                               std::uint64_t seed)
    : rng_(seed) {
  for (std::size_t i = 0; i < kAttributes; ++i) {
    attributes_.push_back(attrs.intern("attr" + std::to_string(i)));
  }
}

ncps::Event EventGenerator::next() {
  ncps::Event event;
  for (const ncps::AttributeId attribute : attributes_) {
    event.set(attribute, ncps::Value(static_cast<std::int64_t>(
                             rng_.below(static_cast<std::uint64_t>(kDomain)))));
  }
  return event;
}

namespace {
// Lifetimes in control-op ticks: rank r lives (r + 1) * kBaseLifetime.
constexpr std::size_t kLifetimeRanks = 64;
constexpr std::uint64_t kBaseLifetime = 32;
}  // namespace

ChurnPlan::ChurnPlan(std::size_t population, std::size_t subscribers,
                     TextGenerator& texts, std::uint64_t seed)
    : subscribers_(subscribers),
      texts_(&texts),
      rng_(seed),
      lifetimes_(kLifetimeRanks, 1.0) {
  initial_.reserve(population);
  for (std::size_t i = 0; i < population; ++i) {
    ControlOp op;
    op.handle = next_handle_++;
    op.subscriber = rng_.below(subscribers_);
    op.text = texts_->next();
    live_.push(Lease{lifetime(), op.handle});
    initial_.push_back(std::move(op));
  }
}

std::uint64_t ChurnPlan::lifetime() {
  return clock_ + (lifetimes_.sample(rng_) + 1) * kBaseLifetime;
}

ControlOp ChurnPlan::next() {
  ControlOp op;
  op.subscribe = clock_ % 2 == 0 || live_.empty();
  if (op.subscribe) {
    op.handle = next_handle_++;
    op.subscriber = rng_.below(subscribers_);
    op.text = texts_->next();
    live_.push(Lease{lifetime(), op.handle});
  } else {
    op.handle = live_.top().handle;
    live_.pop();
  }
  ++clock_;
  return op;
}

}  // namespace perfbench
