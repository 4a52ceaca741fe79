#include "index/predicate_index.h"

#include <algorithm>

#include "common/contracts.h"

namespace ncps {

void PredicateIndex::add(PredicateId id, const Predicate& p) {
  NCPS_EXPECTS(p.attribute.valid());
  if (p.op == Operator::NotExists) {
    not_exists_.push_back(NotExistsEntry{p.attribute, id});
    return;
  }
  if (p.attribute.value() >= per_attribute_.size()) {
    per_attribute_.resize(p.attribute.value() + 1);
  }
  per_attribute_[p.attribute.value()].add(id, p);
}

bool PredicateIndex::remove(PredicateId id, const Predicate& p) {
  if (p.op == Operator::NotExists) {
    for (std::size_t i = 0; i < not_exists_.size(); ++i) {
      if (not_exists_[i].id == id) {
        not_exists_[i] = not_exists_.back();
        not_exists_.pop_back();
        return true;
      }
    }
    return false;
  }
  if (p.attribute.value() >= per_attribute_.size()) return false;
  return per_attribute_[p.attribute.value()].remove(id, p);
}

void PredicateIndex::bulk_load(std::span<const BulkEntry> entries,
                               WorkStealingPool* /*pool*/) {
  // Partition by attribute first: NotExists entries are cross-attribute
  // bookkeeping (sequential, cheap), everything else buckets to exactly one
  // AttributeIndex.
  std::uint32_t max_attribute = 0;
  for (const BulkEntry& entry : entries) {
    NCPS_EXPECTS(entry.predicate->attribute.valid());
    if (entry.predicate->op == Operator::NotExists) continue;
    max_attribute = std::max(max_attribute, entry.predicate->attribute.value());
  }
  if (max_attribute >= per_attribute_.size() && !entries.empty()) {
    per_attribute_.resize(max_attribute + 1);
  }
  std::vector<std::vector<BulkEntry>> buckets(per_attribute_.size());
  for (const BulkEntry& entry : entries) {
    if (entry.predicate->op == Operator::NotExists) {
      not_exists_.push_back(
          NotExistsEntry{entry.predicate->attribute, entry.id});
      continue;
    }
    buckets[entry.predicate->attribute.value()].push_back(entry);
  }
  for (std::uint32_t a = 0; a < buckets.size(); ++a) {
    AttributeIndex& index = per_attribute_[a];
    for (const BulkEntry& entry : buckets[a]) {
      index.add(entry.id, *entry.predicate);
    }
  }
}

void PredicateIndex::match(const Event& event, const PredicateTable& table,
                           std::vector<PredicateId>& out) const {
  // Each attribute of the event is evaluated exactly once (§2.1: "applying
  // indexes means to evaluate each attribute only once").
  for (const Event::Entry& entry : event.entries()) {
    if (entry.attribute.value() >= per_attribute_.size()) continue;
    per_attribute_[entry.attribute.value()].stab(entry.value, table, out);
  }
  // NotExists predicates match on absence.
  for (const NotExistsEntry& entry : not_exists_) {
    if (!event.has(entry.attribute)) out.push_back(entry.id);
  }
}

void PredicateIndex::match_batch(std::span<const Event> events,
                                 const PredicateTable& table,
                                 std::vector<PredicateId>& flat,
                                 std::vector<std::uint32_t>& offsets) const {
  offsets.reserve(events.size() + 1);
  offsets.push_back(static_cast<std::uint32_t>(flat.size()));
  for (const Event& event : events) {
    match(event, table, flat);
    offsets.push_back(static_cast<std::uint32_t>(flat.size()));
  }
}

PostingList::Stats PredicateIndex::posting_stats() const {
  PostingList::Stats stats;
  for (const AttributeIndex& index : per_attribute_) {
    index.observe_postings(stats);
  }
  return stats;
}

MemoryBreakdown PredicateIndex::memory() const {
  MemoryBreakdown mem;
  std::size_t attribute_bytes =
      per_attribute_.capacity() * sizeof(AttributeIndex);
  for (const auto& index : per_attribute_) {
    attribute_bytes += index.memory_bytes();
  }
  mem.add("attribute_indexes", attribute_bytes);
  mem.add("not_exists_list", vector_bytes(not_exists_));
  return mem;
}

}  // namespace ncps
