#include "subscription/dnf.h"

#include <algorithm>

#include "common/contracts.h"

namespace ncps {

namespace {

ast::NodePtr nnf_rec(const ast::Node& node, bool negate,
                     PredicateTable& table) {
  switch (node.kind) {
    case ast::NodeKind::Leaf: {
      if (!negate) {
        table.add_ref(node.pred);
        return ast::leaf(node.pred);
      }
      const Predicate complemented = table.get(node.pred).complemented();
      return ast::leaf(table.intern(complemented).id);
    }
    case ast::NodeKind::Not:
      return nnf_rec(*node.children.front(), !negate, table);
    case ast::NodeKind::And:
    case ast::NodeKind::Or: {
      std::vector<ast::NodePtr> children;
      children.reserve(node.children.size());
      for (const auto& c : node.children) {
        children.push_back(nnf_rec(*c, negate, table));
      }
      // De Morgan: negation swaps the connective.
      const bool is_and = (node.kind == ast::NodeKind::And) != negate;
      return is_and ? ast::make_and(std::move(children))
                    : ast::make_or(std::move(children));
    }
  }
  NCPS_ASSERT(false && "unknown node kind");
}

Disjunct merge_sorted_unique(const Disjunct& a, const Disjunct& b) {
  Disjunct out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

// Or: append a child's disjuncts.
[[gnu::noinline]] void append_disjuncts(std::vector<Disjunct>& out,
                                        std::vector<Disjunct> child,
                                        const DnfOptions& options) {
  if (out.size() + child.size() > options.max_disjuncts) {
    throw DnfExplosionError(out.size() + child.size());
  }
  out.insert(out.end(), std::make_move_iterator(child.begin()),
             std::make_move_iterator(child.end()));
}

// And: distribute the conjunction so far over a child's disjuncts.
[[gnu::noinline]] std::vector<Disjunct> cross_disjuncts(
    const std::vector<Disjunct>& acc, const std::vector<Disjunct>& child,
    const DnfOptions& options) {
  const std::uint64_t next_size =
      static_cast<std::uint64_t>(acc.size()) * child.size();
  if (next_size > options.max_disjuncts) {
    throw DnfExplosionError(next_size);
  }
  std::vector<Disjunct> next;
  next.reserve(static_cast<std::size_t>(next_size));
  for (const auto& a : acc) {
    for (const auto& b : child) {
      next.push_back(merge_sorted_unique(a, b));
    }
  }
  return next;
}

// Recurses once per tree level (up to the parser's depth cap), so the
// combining steps stay out of line to keep this frame small.
std::vector<Disjunct> dnf_rec(const ast::Node& node,
                              const DnfOptions& options) {
  switch (node.kind) {
    case ast::NodeKind::Leaf:
      return {{node.pred}};
    case ast::NodeKind::Not:
      throw std::logic_error("to_dnf requires NNF input (call to_nnf first)");
    case ast::NodeKind::Or: {
      std::vector<Disjunct> out;
      for (const auto& c : node.children) {
        append_disjuncts(out, dnf_rec(*c, options), options);
      }
      return out;
    }
    case ast::NodeKind::And: {
      std::vector<Disjunct> acc = {{}};  // one empty conjunction
      for (const auto& c : node.children) {
        acc = cross_disjuncts(acc, dnf_rec(*c, options), options);
      }
      return acc;
    }
  }
  NCPS_ASSERT(false && "unknown node kind");
}

void dedup_disjuncts(std::vector<Disjunct>& disjuncts) {
  std::sort(disjuncts.begin(), disjuncts.end());
  disjuncts.erase(std::unique(disjuncts.begin(), disjuncts.end()),
                  disjuncts.end());
}

void absorb_disjuncts(std::vector<Disjunct>& disjuncts) {
  // Remove any disjunct that is a superset of another: X ∨ (X∧Y) = X.
  // Sort by width so potential absorbers come first.
  std::sort(disjuncts.begin(), disjuncts.end(),
            [](const Disjunct& a, const Disjunct& b) {
              return a.size() < b.size();
            });
  std::vector<Disjunct> kept;
  for (auto& candidate : disjuncts) {
    const bool absorbed = std::any_of(
        kept.begin(), kept.end(), [&](const Disjunct& k) {
          return std::includes(candidate.begin(), candidate.end(), k.begin(),
                               k.end());
        });
    if (!absorbed) kept.push_back(std::move(candidate));
  }
  disjuncts = std::move(kept);
}

constexpr std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

constexpr std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  return a > UINT64_MAX / b ? UINT64_MAX : a * b;
}

DnfSize estimate_rec(const ast::Node& node, bool negate) {
  switch (node.kind) {
    case ast::NodeKind::Leaf:
      return {1, 1};
    case ast::NodeKind::Not:
      return estimate_rec(*node.children.front(), !negate);
    case ast::NodeKind::And:
    case ast::NodeKind::Or: {
      const bool is_and = (node.kind == ast::NodeKind::And) != negate;
      if (!is_and) {
        DnfSize sum;
        for (const auto& c : node.children) {
          const DnfSize s = estimate_rec(*c, negate);
          sum.disjuncts = sat_add(sum.disjuncts, s.disjuncts);
          sum.literal_entries = sat_add(sum.literal_entries, s.literal_entries);
        }
        return sum;
      }
      // AND: disjuncts multiply; every disjunct of child i is replicated
      // once per combination of the other children's disjuncts.
      DnfSize prod{1, 0};
      for (const auto& c : node.children) {
        const DnfSize s = estimate_rec(*c, negate);
        prod.literal_entries =
            sat_add(sat_mul(prod.literal_entries, s.disjuncts),
                    sat_mul(s.literal_entries, prod.disjuncts));
        prod.disjuncts = sat_mul(prod.disjuncts, s.disjuncts);
      }
      return prod;
    }
  }
  NCPS_ASSERT(false && "unknown node kind");
}

}  // namespace

ast::Expr to_nnf(const ast::Node& root, PredicateTable& table) {
  ast::NodePtr nnf = nnf_rec(root, /*negate=*/false, table);
  ast::flatten(*nnf);
  return ast::Expr(std::move(nnf), table, ast::Expr::AdoptRefs{});
}

Dnf to_dnf(const ast::Node& nnf_root, const DnfOptions& options) {
  Dnf dnf;
  dnf.disjuncts = dnf_rec(nnf_root, options);
  if (options.dedup_disjuncts) dedup_disjuncts(dnf.disjuncts);
  if (options.absorb) absorb_disjuncts(dnf.disjuncts);
  return dnf;
}

Dnf canonicalize(const ast::Node& root, PredicateTable& table,
                 ast::Expr& nnf_holder, const DnfOptions& options) {
  nnf_holder = to_nnf(root, table);
  return to_dnf(nnf_holder.root(), options);
}

DnfSize estimate_dnf_size(const ast::Node& root) {
  return estimate_rec(root, /*negate=*/false);
}

}  // namespace ncps
