// Unit tests for the rule that decides which P2M page orders exist for a
// domain (docs/MODEL.md §14). The P2M stores 4K entries only; the orders the
// rule admits shape the policies' region geometry, which
// HypervisorGeometryTest pins end to end.

#include <gtest/gtest.h>

#include "src/hv/hypervisor.h"

namespace xnuma {
namespace {

// A small synthetic geometry: 2M spans 8 pages, 1G spans 64.
constexpr int64_t kSpan2m = 8;
constexpr int64_t kSpan1g = 64;

TEST(P2mOrderTest, ConfigureOrdersSetsSpans) {
  const P2mOrders orders = ResolveP2mOrders(PageOrder::k1G, kSpan2m, kSpan1g);
  EXPECT_EQ(orders.max_order, PageOrder::k1G);
  EXPECT_EQ(orders.span_2m, kSpan2m);
  EXPECT_EQ(orders.span_1g, kSpan1g);
}

TEST(P2mOrderTest, DegenerateSpansDisableOrders) {
  // Spans of one page (the default 4 MiB frame scale for 2M) collapse the
  // order; a 1G span equal to the 2M span likewise adds nothing.
  const P2mOrders collapsed = ResolveP2mOrders(PageOrder::k1G, 1, 1);
  EXPECT_EQ(collapsed.max_order, PageOrder::k4K);
  EXPECT_EQ(collapsed.span_2m, 1);
  EXPECT_EQ(collapsed.span_1g, 1);

  const P2mOrders equal = ResolveP2mOrders(PageOrder::k1G, kSpan2m, kSpan2m);
  EXPECT_EQ(equal.max_order, PageOrder::k2M);
  EXPECT_EQ(equal.span_2m, kSpan2m);
  EXPECT_EQ(equal.span_1g, 1);

  // A span that is not a power of two, or a 2M span wider than one P2M
  // chunk, disables that order only.
  const P2mOrders odd = ResolveP2mOrders(PageOrder::k1G, 6, kSpan1g);
  EXPECT_EQ(odd.max_order, PageOrder::k1G);
  EXPECT_EQ(odd.span_2m, 1);
  EXPECT_EQ(odd.span_1g, kSpan1g);

  const P2mOrders wide = ResolveP2mOrders(PageOrder::k1G, 1024, 1 << 20);
  EXPECT_EQ(wide.max_order, PageOrder::k1G);
  EXPECT_EQ(wide.span_2m, 1);
  EXPECT_EQ(wide.span_1g, 1 << 20);
}

TEST(P2mOrderTest, Max2mDisables1g) {
  const P2mOrders orders = ResolveP2mOrders(PageOrder::k2M, kSpan2m, kSpan1g);
  EXPECT_EQ(orders.max_order, PageOrder::k2M);
  EXPECT_EQ(orders.span_2m, kSpan2m);
  EXPECT_EQ(orders.span_1g, 1);

  // With a collapsed 2M span, a 2M maximum leaves no order at all.
  const P2mOrders none = ResolveP2mOrders(PageOrder::k2M, 1, kSpan1g);
  EXPECT_EQ(none.max_order, PageOrder::k4K);
  EXPECT_EQ(none.span_1g, 1);
}

TEST(P2mOrderTest, Max4kKeepsHierarchyOff) {
  const P2mOrders orders = ResolveP2mOrders(PageOrder::k4K, kSpan2m, kSpan1g);
  EXPECT_EQ(orders.max_order, PageOrder::k4K);
  EXPECT_EQ(orders.span_2m, 1);
  EXPECT_EQ(orders.span_1g, 1);
}

}  // namespace
}  // namespace xnuma
