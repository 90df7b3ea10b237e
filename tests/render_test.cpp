#include "pnr/render.h"

#include <gtest/gtest.h>

#include "base/error.h"

namespace secflow {
namespace {

DefDesign tiny_design() {
  DefDesign d;
  d.name = "t";
  d.die = {{0, 0}, {10000, 10000}};
  d.components.push_back(DefComponent{"u1", "INV", {1000, 1000}});
  DefNet n;
  n.name = "n";
  n.wires.push_back(Segment{{0, 5000}, {9000, 5000}, 0, 280});
  n.wires.push_back(Segment{{4000, 1000}, {4000, 9000}, 1, 280});
  n.vias.push_back(DefVia{{4000, 5000}, 0, 1});
  d.nets.push_back(n);
  return d;
}

TEST(Render, ContainsAllMarkKinds) {
  const std::string pic = render_design(tiny_design());
  EXPECT_NE(pic.find('#'), std::string::npos);  // component
  EXPECT_NE(pic.find('-'), std::string::npos);  // horizontal wire
  EXPECT_NE(pic.find('|'), std::string::npos);  // vertical wire
  EXPECT_NE(pic.find('+'), std::string::npos);  // via
}

TEST(Render, RespectsColumnBudget) {
  RenderOptions opts;
  opts.max_cols = 40;
  const std::string pic = render_design(tiny_design(), opts);
  std::size_t pos = 0;
  while (pos < pic.size()) {
    const std::size_t nl = pic.find('\n', pos);
    ASSERT_NE(nl, std::string::npos);
    EXPECT_LE(nl - pos, 40u);
    pos = nl + 1;
  }
}

TEST(Render, WireEndpointsLandAtExpectedCells) {
  RenderOptions opts;
  opts.max_cols = 101;  // 100 dbu per column on the 10000-wide die
  const std::string pic = render_design(tiny_design(), opts);
  // The horizontal wire runs at y=5000: find its row and check extent.
  std::vector<std::string> rows;
  std::size_t pos = 0;
  while (pos < pic.size()) {
    const std::size_t nl = pic.find('\n', pos);
    rows.push_back(pic.substr(pos, nl - pos));
    pos = nl + 1;
  }
  bool found = false;
  for (const std::string& row : rows) {
    if (row.find("----") != std::string::npos) {
      found = true;
      EXPECT_EQ(row.find('-'), 0u);       // starts at x=0
      EXPECT_GE(row.rfind('-'), 85u);     // reaches x=9000
    }
  }
  EXPECT_TRUE(found);
}

TEST(Render, TinyBudgetRejected) {
  RenderOptions opts;
  opts.max_cols = 4;
  EXPECT_THROW(render_design(tiny_design(), opts), Error);
}

}  // namespace
}  // namespace secflow
