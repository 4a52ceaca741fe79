// Failure injection and boundary conditions across the subscription
// front-end: corrupted encodings, width and nesting limits, and
// printer/parser round-trips on machine-generated trees.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "common/random.h"
#include "engine/engine_factory.h"
#include "subscription/encoded_tree.h"
#include "subscription/encoded_tree_v2.h"
#include "subscription/dnf.h"
#include "subscription/parser.h"
#include "subscription/printer.h"
#include "subscription/shared_forest.h"
#include "workload/random_workload.h"

namespace ncps {
namespace {

TEST(DecodeRobustnessTest, TruncatedV1TreeIsRejected) {
  AttributeRegistry attrs;
  PredicateTable table;
  const ast::Expr e =
      parse_subscription("a == 1 and b == 2 and c == 3", attrs, table);
  std::vector<std::byte> bytes;
  encode_tree(e.root(), bytes);
  // Every strict prefix (except a 4-byte leaf-looking one) must be rejected.
  for (std::size_t len = 5; len < bytes.size(); ++len) {
    EXPECT_THROW((void)decode_tree(std::span(bytes.data(), len)),
                 ContractViolation)
        << "prefix length " << len;
  }
}

TEST(DecodeRobustnessTest, CorruptOperatorByteIsRejected) {
  AttributeRegistry attrs;
  PredicateTable table;
  const ast::Expr e = parse_subscription("a == 1 and b == 2", attrs, table);
  std::vector<std::byte> bytes;
  encode_tree(e.root(), bytes);
  bytes[0] = std::byte{0x7f};  // not a valid operator
  EXPECT_THROW((void)decode_tree(bytes), EncodeError);
}

TEST(DecodeRobustnessTest, V2TrailingGarbageIsRejected) {
  AttributeRegistry attrs;
  PredicateTable table;
  const ast::Expr e = parse_subscription("a == 1 or b == 2", attrs, table);
  std::vector<std::byte> bytes;
  encode_tree_v2(e.root(), bytes);
  bytes.push_back(std::byte{0x01});
  EXPECT_THROW((void)decode_tree_v2(bytes), ContractViolation);
}

TEST(EncodeBoundaryTest, Exactly255ChildrenEncodes) {
  std::vector<ast::NodePtr> children;
  for (int i = 0; i < 255; ++i) {
    children.push_back(ast::leaf(PredicateId(static_cast<std::uint32_t>(i))));
  }
  const ast::NodePtr root = ast::make_or(std::move(children));
  std::vector<std::byte> out;
  const std::size_t width = encode_tree(*root, out);
  EXPECT_EQ(width, 2u + 2u * 255u + 4u * 255u);
  const ast::NodePtr back = decode_tree(out);
  EXPECT_TRUE(ast::equal(*root, *back));
}

TEST(EncodeBoundaryTest, V2HasNoChildCountLimit) {
  // The varint child count lifts the paper layout's 255-children cap.
  std::vector<ast::NodePtr> children;
  for (int i = 0; i < 1000; ++i) {
    children.push_back(ast::leaf(PredicateId(static_cast<std::uint32_t>(i))));
  }
  const ast::NodePtr root = ast::make_or(std::move(children));
  std::vector<std::byte> out;
  (void)encode_tree_v2(*root, out);
  const ast::NodePtr back = decode_tree_v2(out);
  EXPECT_TRUE(ast::equal(*root, *back));
}

// Printer/parser round-trip on machine-generated trees: print(t) must parse
// back to a structurally identical tree across hundreds of random shapes,
// including NOT of complement-operator predicates (printed as not (...)).
TEST(PrinterPropertyTest, RandomTreesRoundTrip) {
  AttributeRegistry attrs;
  PredicateTable table;
  RandomWorkloadConfig config;
  config.rich_operators = true;
  config.not_probability = 0.3;
  config.seed = 20250610;
  RandomWorkload workload(config, attrs, table);
  for (int i = 0; i < 300; ++i) {
    const ast::Expr expr = workload.next_subscription();
    const std::string printed = print_expression(expr.root(), table, attrs);
    const ast::Expr reparsed = parse_subscription(printed, attrs, table);
    EXPECT_TRUE(ast::equal(expr.root(), reparsed.root()))
        << "iteration " << i << ": " << printed;
  }
}

TEST(PrinterPropertyTest, ComplementOperatorsPrintAsNegations) {
  AttributeRegistry attrs;
  PredicateTable table;
  // Build predicates with no surface syntax and check they round-trip
  // through the printer's not(...) rendering.
  const Predicate nb{attrs.intern("x"), Operator::NotBetween, Value(1),
                     Value(5)};
  const PredicateId id = table.intern(nb).id;
  const ast::Expr expr(ast::leaf(id), table, ast::Expr::AdoptRefs{});
  const std::string printed = print_expression(expr.root(), table, attrs);
  EXPECT_EQ(printed, "not (x between 1 and 5)");
  const ast::Expr reparsed = parse_subscription(printed, attrs, table);
  // Reparsing yields NOT(between); NNF brings it back to the predicate.
  const ast::Expr nnf = to_nnf(reparsed.root(), table);
  ASSERT_EQ(nnf.root().kind, ast::NodeKind::Leaf);
  EXPECT_EQ(table.get(nnf.root().pred).op, Operator::NotBetween);
}

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  AttributeRegistry attrs;
  PredicateTable table;
  Pcg32 rng(1337);
  const char alphabet[] = "ab01 ()<>=!\"andorbetween.x_";
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    const std::size_t len = rng.bounded(40);
    for (std::size_t j = 0; j < len; ++j) {
      text += alphabet[rng.bounded(sizeof(alphabet) - 1)];
    }
    try {
      const ast::Expr e = parse_subscription(text, attrs, table);
      EXPECT_GE(ast::leaf_count(e.root()), 1u);  // parse succeeded: sane tree
    } catch (const ParseError&) {
      // rejected — fine
    }
    // Either way the table holds no half-registered predicates beyond what
    // successful parses legitimately interned and released with their Exprs.
  }
  EXPECT_EQ(table.size(), 0u);  // every Expr died in the loop
}

std::string nested(std::size_t depth) {
  return std::string(depth, '(') + "a == 1" + std::string(depth, ')');
}

TEST(ParserDepthTest, NestingLimitIsTheForestDepthCap) {
  AttributeRegistry attrs;
  PredicateTable table;
  const std::size_t cap = SharedForest::kMaxDepth;
  EXPECT_NO_THROW((void)parse_subscription(nested(cap), attrs, table));
  try {
    (void)parse_subscription(nested(cap + 1), attrs, table);
    FAIL() << "nesting past the cap parsed";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.position(), cap);  // the first '(' past the cap
  }
  std::string nots;
  for (std::size_t i = 0; i <= cap; ++i) nots += "not ";
  EXPECT_THROW((void)parse_subscription(nots + "a == 1", attrs, table),
               ParseError);
  EXPECT_EQ(table.size(), 0u);
}

// `levels` rounds of `a == 1 or b == 1 and (`: each opens one parenthesis
// but adds two tree levels (an Or over an And), so the tree's height, not
// the count of open parentheses, is what reaches the cap.
std::string alternating(std::size_t levels) {
  std::string text;
  for (std::size_t i = 0; i < levels; ++i) text += "a == 1 or b == 1 and (";
  return text + "c == 1" + std::string(levels, ')');
}

TEST(ParserDepthTest, TreeHeightLimitIsTheForestDepthCap) {
  AttributeRegistry attrs;
  PredicateTable table;
  const std::size_t cap = SharedForest::kMaxDepth;  // odd: 2 * 2047 + 1
  const std::string at_cap = "not (" + alternating(cap / 2) + ")";
  {
    // Every tree the parser returns fits the forest's limits.
    const ast::Expr expr = parse_subscription(at_cap, attrs, table);
    EXPECT_NO_THROW(SharedForest::validate_limits(expr.root()));
  }
  EXPECT_THROW((void)parse_subscription("not " + at_cap, attrs, table),
               ParseError);
  EXPECT_THROW(
      (void)parse_subscription(alternating(cap / 2 + 1), attrs, table),
      ParseError);
  EXPECT_EQ(table.size(), 0u);
}

TEST(ParserDepthTest, DepthCapSubscriptionsRunThroughEveryEngine) {
  // The deepest trees the parser accepts subscribe, match and unsubscribe
  // on a broker of every engine kind: no engine refuses them, and no
  // recursive walk on that path runs out of stack (the sanitizer build,
  // with its larger frames, runs this too).
  std::string nots;
  for (std::size_t i = 0; i < SharedForest::kMaxDepth; ++i) nots += "not ";
  const std::string texts[] = {
      nots + "a == 1",
      "not (" + alternating(SharedForest::kMaxDepth / 2) + ")"};
  for (const EngineKind kind : kAllEngineKinds) {
    SCOPED_TRACE(std::string(to_string(kind)));
    AttributeRegistry attrs;
    const std::unique_ptr<Broker> broker = Broker::create(attrs, kind);
    std::size_t hits = 0;
    const SubscriberId alice =
        broker->register_subscriber([&](const Notification&) { ++hits; });
    std::vector<SubscriptionId> ids;
    for (const std::string& text : texts) {
      ids.push_back(broker->subscribe(alice, text));
    }
    // Both negate an odd number of times: the first is `not a == 1`, and
    // every round of the second reduces to a == 1 or (b == 1 and c == 1).
    // Every event carries all three attributes, so the canonical engines'
    // complement predicates agree with negation.
    const auto event = [&](int a, int b, int c) {
      return EventBuilder(attrs).set("a", a).set("b", b).set("c", c).build();
    };
    EXPECT_EQ(broker->publish(event(1, 0, 0)), 0u);
    EXPECT_EQ(broker->publish(event(0, 1, 1)), 1u);
    EXPECT_EQ(broker->publish(event(0, 1, 0)), 2u);
    for (const SubscriptionId id : ids) EXPECT_TRUE(broker->unsubscribe(id));
    EXPECT_EQ(broker->publish(event(0, 1, 0)), 0u);
    EXPECT_EQ(hits, 3u);
  }
}

TEST(ParserDepthTest, HostileNestingIsRejectedNotACrash) {
  // ~40 KB of nested groups used to overflow the recursive-descent
  // parser's stack, taking down whatever called subscribe().
  constexpr std::size_t kDepth = 20'000;
  const std::string closed = nested(kDepth);
  const std::string unclosed = std::string(kDepth, '(') + "a == 1";
  AttributeRegistry attrs;
  PredicateTable table;
  for (const std::string* text : {&closed, &unclosed}) {
    EXPECT_THROW((void)parse_subscription(*text, attrs, table), ParseError);
  }
  EXPECT_EQ(table.size(), 0u);

  const std::unique_ptr<Broker> broker = Broker::create(attrs);
  std::size_t hits = 0;
  const SubscriberId alice =
      broker->register_subscriber([&](const Notification&) { ++hits; });
  for (const std::string* text : {&closed, &unclosed}) {
    EXPECT_THROW((void)broker->subscribe(alice, *text), ParseError);
  }
  EXPECT_EQ(broker->subscription_count(), 0u);
  // The broker is unharmed: a normal subscription still matches.
  broker->subscribe(alice, "a == 1");
  EXPECT_EQ(broker->publish(EventBuilder(attrs).set("a", 1).build()), 1u);
  EXPECT_EQ(hits, 1u);
}

}  // namespace
}  // namespace ncps
