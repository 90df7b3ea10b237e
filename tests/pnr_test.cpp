#include <gtest/gtest.h>

#include "base/error.h"
#include "lef/lef_io.h"
#include "liberty/builtin_lib.h"
#include "pnr/check.h"
#include "pnr/decompose.h"
#include "pnr/def.h"
#include "pnr/place.h"
#include "pnr/render.h"
#include "pnr/route.h"
#include "synth/hdl.h"
#include "synth/techmap.h"
#include "wddl/cell_substitution.h"
#include "wddl/wddl_library.h"

namespace secflow {
namespace {

class PnrTest : public ::testing::Test {
 protected:
  std::shared_ptr<const CellLibrary> lib_ = builtin_stdcell018();

  Netlist map_hdl(const std::string& src) {
    return technology_map(parse_hdl(src), lib_);
  }

  static constexpr const char* kSmallDesign = R"(
    module small (input a, input b, input c, input d, output y, output z);
      wire t1, t2;
      assign t1 = a ^ b;
      assign t2 = c & d;
      assign y = t1 | t2;
      assign z = ~(t1 & c);
    endmodule)";
};

// --- DEF round trip ----------------------------------------------------------

TEST_F(PnrTest, DefRoundTrip) {
  DefDesign d;
  d.name = "t";
  d.die = {{0, 0}, {10000, 8000}};
  d.row_height_dbu = 5040;
  d.track_pitch_dbu = 560;
  d.components.push_back(DefComponent{"u1", "INV", {560, 0}});
  DefNet n;
  n.name = "n1";
  n.wires.push_back(Segment{{0, 0}, {1120, 0}, 0, 280});
  n.wires.push_back(Segment{{1120, 0}, {1120, 560}, 1, 280});
  n.vias.push_back(DefVia{{1120, 0}, 0, 1});
  d.nets.push_back(n);

  const DefDesign back = parse_def(write_def(d));
  EXPECT_EQ(back.name, d.name);
  EXPECT_EQ(back.die, d.die);
  ASSERT_EQ(back.components.size(), 1u);
  EXPECT_EQ(back.components[0].origin, (Point{560, 0}));
  ASSERT_EQ(back.nets.size(), 1u);
  EXPECT_EQ(back.nets[0].wires, d.nets[0].wires);
  ASSERT_EQ(back.nets[0].vias.size(), 1u);
  EXPECT_EQ(back.nets[0].vias[0].at, (Point{1120, 0}));
}

TEST_F(PnrTest, DefParserRejectsGarbage) {
  EXPECT_THROW(parse_def("NONSENSE"), ParseError);
  EXPECT_THROW(parse_def("DESIGN x ; COMPONENTS 1 ; END"), Error);
}

// --- floorplan & placement ----------------------------------------------------

TEST_F(PnrTest, FloorplanRespectsFillFactor) {
  const Netlist nl = map_hdl(kSmallDesign);
  const LefLibrary lef = generate_lef(*lib_, {});
  PlaceOptions opts;
  const Floorplan fp = make_floorplan(nl, lef, opts);
  const double core_um2 =
      dbu_to_um(fp.core.width()) * dbu_to_um(fp.core.height());
  // Core must fit all cells at <= fill factor (with row rounding slack).
  EXPECT_GE(core_um2 * 1.05, nl.total_area_um2() / opts.fill_factor * 0.8);
  EXPECT_GE(fp.n_rows, 1);
  EXPECT_TRUE(fp.die.contains(fp.core.lo));
  EXPECT_TRUE(fp.die.contains(fp.core.hi));
}

TEST_F(PnrTest, FloorplanRejectsRowCountOverflow) {
  // A tiny aspect ratio asks for more rows than an int holds; the cast
  // used to overflow and flip the die to a single row.
  const Netlist nl = map_hdl(kSmallDesign);
  const LefLibrary lef = generate_lef(*lib_, {});
  PlaceOptions opts;
  opts.aspect_ratio = 1e-30;
  EXPECT_THROW(make_floorplan(nl, lef, opts), Error);
  opts.aspect_ratio = 1e-3;  // validate()'s lowest ratio still fits
  EXPECT_GT(make_floorplan(nl, lef, opts).n_rows, 1);
}

TEST_F(PnrTest, PlacementIsLegal) {
  const Netlist nl = map_hdl(kSmallDesign);
  const LefLibrary lef = generate_lef(*lib_, {});
  const DefDesign d = place_design(nl, lef);
  EXPECT_EQ(d.components.size(), nl.n_instances());
  // Every component inside the die; no overlaps within a row.
  for (const DefComponent& c : d.components) {
    const LefMacro& m = lef.macro(c.macro);
    EXPECT_TRUE(d.die.contains(c.origin)) << c.name;
    EXPECT_TRUE(d.die.contains(
        Point{c.origin.x + m.width_dbu, c.origin.y + m.height_dbu}))
        << c.name;
  }
  for (std::size_t i = 0; i < d.components.size(); ++i) {
    for (std::size_t j = i + 1; j < d.components.size(); ++j) {
      const DefComponent& a = d.components[i];
      const DefComponent& b = d.components[j];
      if (a.origin.y != b.origin.y) continue;
      const std::int64_t aw = lef.macro(a.macro).width_dbu;
      const std::int64_t bw = lef.macro(b.macro).width_dbu;
      const bool disjoint = a.origin.x + aw <= b.origin.x ||
                            b.origin.x + bw <= a.origin.x;
      EXPECT_TRUE(disjoint) << a.name << " overlaps " << b.name;
    }
  }
}

TEST_F(PnrTest, NegativeMarginIsRejected) {
  const Netlist nl = map_hdl(kSmallDesign);
  const LefLibrary lef = generate_lef(*lib_, {});
  PlaceOptions opts;
  opts.margin_tracks = -8;
  EXPECT_THROW(place_design(nl, lef, opts), Error);
  opts.margin_tracks = 0;  // die == core: every component still inside
  const DefDesign d = place_design(nl, lef, opts);
  for (const DefComponent& c : d.components) {
    EXPECT_TRUE(d.die.contains(c.origin)) << c.name;
  }
}

TEST_F(PnrTest, AnnealingImprovesOrEqualsWirelength) {
  const Netlist nl = map_hdl(kSmallDesign);
  const LefLibrary lef = generate_lef(*lib_, {});
  PlaceOptions no_sa;
  no_sa.sa_moves_per_instance = 0;
  PlaceOptions with_sa;
  with_sa.sa_moves_per_instance = 200;
  const std::int64_t before =
      placement_hpwl(nl, lef, place_design(nl, lef, no_sa));
  const std::int64_t after =
      placement_hpwl(nl, lef, place_design(nl, lef, with_sa));
  EXPECT_LE(after, before + before / 10);  // never much worse
}

TEST_F(PnrTest, PlacementDeterministic) {
  const Netlist nl = map_hdl(kSmallDesign);
  const LefLibrary lef = generate_lef(*lib_, {});
  const DefDesign a = place_design(nl, lef);
  const DefDesign b = place_design(nl, lef);
  ASSERT_EQ(a.components.size(), b.components.size());
  for (std::size_t i = 0; i < a.components.size(); ++i) {
    EXPECT_EQ(a.components[i].origin, b.components[i].origin);
  }
}

// --- routing -------------------------------------------------------------------

TEST_F(PnrTest, RoutesSmallDesignCleanly) {
  const Netlist nl = map_hdl(kSmallDesign);
  const LefLibrary lef = generate_lef(*lib_, {});
  DefDesign d = place_design(nl, lef);
  const RouteStats stats = route_design(nl, lef, d);
  EXPECT_GT(stats.nets_routed, 0);
  EXPECT_GT(stats.wirelength_dbu, 0);

  const CheckResult conn = check_connectivity(nl, lef, d, 4 * 560);
  EXPECT_TRUE(conn.ok) << (conn.issues.empty() ? "" : conn.issues[0].net + ": " +
                                                          conn.issues[0].what);
  EXPECT_GT(conn.pins_checked, 0);
  const CheckResult shorts = check_shorts(d, d.track_pitch_dbu);
  EXPECT_TRUE(shorts.ok) << (shorts.issues.empty()
                                 ? ""
                                 : shorts.issues[0].net + " " +
                                       shorts.issues[0].what);
}

TEST_F(PnrTest, RoutingDeterministic) {
  const Netlist nl = map_hdl(kSmallDesign);
  const LefLibrary lef = generate_lef(*lib_, {});
  DefDesign a = place_design(nl, lef);
  DefDesign b = place_design(nl, lef);
  route_design(nl, lef, a);
  route_design(nl, lef, b);
  EXPECT_EQ(write_def(a), write_def(b));
}

TEST_F(PnrTest, QuickRouteCoversAllNets) {
  const Netlist nl = map_hdl(kSmallDesign);
  const LefLibrary lef = generate_lef(*lib_, {});
  DefDesign d = place_design(nl, lef);
  const RouteStats stats = route_design_quick(nl, lef, d);
  EXPECT_GT(stats.nets_routed, 0);
  // Quick mode guarantees connectivity (not short-freedom).
  const CheckResult conn = check_connectivity(nl, lef, d, 0);
  EXPECT_TRUE(conn.ok);
}

// --- the secure physical pipeline: fat route + decomposition -------------------

class FatFlowTest : public PnrTest {
 protected:
  struct FatArtifacts {
    std::shared_ptr<WddlLibrary> wlib;
    Netlist rtl;
    Netlist fat;
    LefLibrary fat_lef;
    DefDesign fat_def;
  };

  FatArtifacts build_fat(const std::string& src) {
    Netlist rtl = map_hdl(src);
    auto wlib = std::make_shared<WddlLibrary>(lib_);
    SubstitutionResult sub = substitute_cells(rtl, *wlib);
    LefGenOptions fat_opts;
    fat_opts.wire_scale = 2.0;
    LefLibrary fat_lef = generate_lef(*wlib->fat_library(), fat_opts);
    DefDesign fat_def = place_design(sub.fat, fat_lef);
    route_design(sub.fat, fat_lef, fat_def);
    return FatArtifacts{wlib, std::move(rtl), std::move(sub.fat),
                        std::move(fat_lef), std::move(fat_def)};
  }
};

TEST_F(FatFlowTest, FatRouteIsCleanAndConnected) {
  FatArtifacts art = build_fat(kSmallDesign);
  const std::int64_t fat_pitch = art.fat_lef.track_pitch_dbu();
  EXPECT_TRUE(check_connectivity(art.fat, art.fat_lef, art.fat_def,
                                 4 * fat_pitch)
                  .ok);
  EXPECT_TRUE(check_shorts(art.fat_def, fat_pitch).ok);
}

TEST_F(FatFlowTest, DecompositionProducesMatchedRails) {
  FatArtifacts art = build_fat(kSmallDesign);
  const Process018 pr;
  const std::int64_t p = um_to_dbu(pr.wire_pitch_um);
  const std::int64_t w = um_to_dbu(pr.wire_width_um);
  const DefDesign diff = decompose_interconnect(art.fat_def, p, w);

  // Every fat net became a rail pair (no clock in this design).
  EXPECT_EQ(diff.nets.size(), 2 * art.fat_def.nets.size());
  const CheckResult sym = check_differential_symmetry(diff, p);
  EXPECT_TRUE(sym.ok) << (sym.issues.empty() ? "" : sym.issues[0].net + ": " +
                                                        sym.issues[0].what);
  EXPECT_GT(sym.nets_checked, 0);
}

TEST_F(FatFlowTest, DecompositionKeepsClockSingleEnded) {
  FatArtifacts art = build_fat(R"(
    module seq (input clk, input d, output q);
      reg r;
      always @(posedge clk) r <= d ^ r;
      assign q = r;
    endmodule)");
  const Process018 pr;
  DecomposeOptions opts;
  opts.single_ended_nets = {"clk"};
  const DefDesign diff = decompose_interconnect(
      art.fat_def, um_to_dbu(pr.wire_pitch_um), um_to_dbu(pr.wire_width_um),
      opts);
  EXPECT_NE(diff.find_net("clk"), nullptr);
  EXPECT_EQ(diff.find_net("clk_t"), nullptr);
  // Clock wire was width-reduced.
  for (const Segment& s : diff.find_net("clk")->wires) {
    EXPECT_EQ(s.width, um_to_dbu(pr.wire_width_um));
  }
}

TEST_F(FatFlowTest, DiffLefSplitsPins) {
  FatArtifacts art = build_fat(kSmallDesign);
  const Process018 pr;
  const LefLibrary diff_lef =
      make_diff_lef(art.fat_lef, pr.wire_pitch_um, pr.wire_width_um);
  EXPECT_EQ(diff_lef.n_macros(), art.fat_lef.n_macros());
  for (const LefMacro& fm : art.fat_lef.macros()) {
    const LefMacro& dm = diff_lef.macro(fm.name);
    for (const LefPin& pin : fm.pins) {
      if (pin.name == "CK") {
        EXPECT_NE(dm.find_pin("CK"), nullptr);
        continue;
      }
      const LefPin* t = dm.find_pin(pin.name + "_t");
      const LefPin* f = dm.find_pin(pin.name + "_f");
      ASSERT_NE(t, nullptr) << fm.name << '/' << pin.name;
      ASSERT_NE(f, nullptr) << fm.name << '/' << pin.name;
      EXPECT_EQ(t->offset, pin.offset);
      EXPECT_EQ(f->offset.x - t->offset.x, um_to_dbu(pr.wire_pitch_um));
      EXPECT_EQ(f->offset.y - t->offset.y, um_to_dbu(pr.wire_pitch_um));
    }
  }
}


TEST_F(FatFlowTest, StreamOutCheckPassesAndCatchesCorruption) {
  FatArtifacts art = build_fat(kSmallDesign);
  const Process018 pr;
  DefDesign diff = decompose_interconnect(
      art.fat_def, um_to_dbu(pr.wire_pitch_um), um_to_dbu(pr.wire_width_um));
  const LefLibrary diff_lef =
      make_diff_lef(art.fat_lef, pr.wire_pitch_um, pr.wire_width_um);
  const std::int64_t tol = 5 * art.fat_lef.track_pitch_dbu();
  const CheckResult ok = check_stream_out(art.fat, diff_lef, diff, tol);
  EXPECT_TRUE(ok.ok) << (ok.issues.empty() ? "" : ok.issues[0].net + ": " +
                                                      ok.issues[0].what);
  EXPECT_GT(ok.pins_checked, 0);

  // Corrupt: drop one rail's wiring entirely.
  for (DefNet& net : diff.nets) {
    if (!net.wires.empty() && net.name.ends_with("_f")) {
      // Move the rail far away instead of deleting it (a "net missing"
      // error is tested separately below).
      for (Segment& seg : net.wires) seg = seg.translated(900000, 900000);
      for (DefVia& v : net.vias) v.at = {v.at.x + 900000, v.at.y + 900000};
      break;
    }
  }
  EXPECT_FALSE(check_stream_out(art.fat, diff_lef, diff, tol).ok);

  // Missing net entirely.
  diff.nets.pop_back();
  diff.nets.pop_back();
  const CheckResult missing = check_stream_out(art.fat, diff_lef, diff, tol);
  EXPECT_FALSE(missing.ok);
}

TEST_F(FatFlowTest, RenderedLayoutsLookSane) {
  FatArtifacts art = build_fat(kSmallDesign);
  const std::string fat_pic = render_design(art.fat_def);
  EXPECT_NE(fat_pic.find('#'), std::string::npos);   // components
  EXPECT_NE(fat_pic.find('-'), std::string::npos);   // wires
  const Process018 pr;
  const DefDesign diff = decompose_interconnect(
      art.fat_def, um_to_dbu(pr.wire_pitch_um), um_to_dbu(pr.wire_width_um));
  const std::string diff_pic = render_design(diff);
  EXPECT_GT(diff_pic.size(), 100u);
}

}  // namespace
}  // namespace secflow
