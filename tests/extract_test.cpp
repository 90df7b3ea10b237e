#include "extract/extract.h"

#include <gtest/gtest.h>

#include <bit>
#include <map>

#include "base/error.h"
#include "base/rng.h"
#include "liberty/builtin_lib.h"
#include "netlist/netlist_ops.h"
#include "obs/trace.h"
#include "pnr/decompose.h"
#include "pnr/place.h"
#include "pnr/route.h"
#include "synth/hdl.h"
#include "synth/techmap.h"
#include "wddl/cell_substitution.h"
#include "wddl/wddl_library.h"

namespace secflow {
namespace {

class ExtractTest : public ::testing::Test {
 protected:
  std::shared_ptr<const CellLibrary> lib_ = builtin_stdcell018();
};

TEST_F(ExtractTest, WireCapScalesWithLength) {
  DefDesign d;
  d.name = "t";
  d.die = {{0, 0}, {100000, 10000}};
  DefNet short_net{"short", {Segment{{0, 0}, {10000, 0}, 0, 280}}, {}};
  DefNet long_net{"long", {Segment{{0, 5000}, {80000, 5000}, 0, 280}}, {}};
  d.nets = {short_net, long_net};
  Netlist nl("empty", lib_);  // no pins

  const Extraction ex = extract_parasitics(d, nl);
  const double cs = ex.find("short")->total_cap_ff();
  const double cl = ex.find("long")->total_cap_ff();
  EXPECT_GT(cs, 0.0);
  EXPECT_NEAR(cl / cs, 8.0, 0.01);  // area+fringe both linear in length
  EXPECT_NEAR(ex.find("long")->res_kohm / ex.find("short")->res_kohm, 8.0,
              0.01);
}

TEST_F(ExtractTest, ViasAddCapAndResistance) {
  DefDesign d;
  d.name = "t";
  d.die = {{0, 0}, {10000, 10000}};
  DefNet plain{"plain", {Segment{{0, 0}, {5000, 0}, 0, 280}}, {}};
  DefNet with_via{"via",
                  {Segment{{0, 560}, {5000, 560}, 0, 280}},
                  {DefVia{{5000, 560}, 0, 1}}};
  d.nets = {plain, with_via};
  Netlist nl("empty", lib_);
  const Extraction ex = extract_parasitics(d, nl);
  EXPECT_GT(ex.find("via")->total_cap_ff(), ex.find("plain")->total_cap_ff());
  EXPECT_GT(ex.find("via")->res_kohm, ex.find("plain")->res_kohm);
}

TEST_F(ExtractTest, CouplingOnlyBetweenParallelNeighbours) {
  DefDesign d;
  d.name = "t";
  d.die = {{0, 0}, {100000, 100000}};
  // a and b run parallel at one pitch; c is far away; e is perpendicular.
  d.nets = {
      DefNet{"a", {Segment{{0, 0}, {50000, 0}, 0, 280}}, {}},
      DefNet{"b", {Segment{{0, 560}, {50000, 560}, 0, 280}}, {}},
      DefNet{"c", {Segment{{0, 50000}, {50000, 50000}, 0, 280}}, {}},
      DefNet{"e", {Segment{{10000, -20000}, {10000, 20000}, 1, 280}}, {}},
  };
  Netlist nl("empty", lib_);
  const Extraction ex = extract_parasitics(d, nl);
  EXPECT_GT(ex.find("a")->coupling_cap_ff, 0.0);
  EXPECT_DOUBLE_EQ(ex.find("a")->coupling_cap_ff,
                   ex.find("b")->coupling_cap_ff);
  EXPECT_DOUBLE_EQ(ex.find("c")->coupling_cap_ff, 0.0);
  EXPECT_DOUBLE_EQ(ex.find("e")->coupling_cap_ff, 0.0);
  ASSERT_EQ(ex.find("a")->couplings.size(), 1u);
  EXPECT_EQ(ex.find("a")->couplings[0].first, "b");
}

TEST_F(ExtractTest, CouplingFallsWithSeparation) {
  DefDesign d;
  d.name = "t";
  d.die = {{0, 0}, {100000, 100000}};
  d.nets = {
      DefNet{"x", {Segment{{0, 0}, {50000, 0}, 0, 280}}, {}},
      DefNet{"near", {Segment{{0, 560}, {50000, 560}, 0, 280}}, {}},
      DefNet{"far", {Segment{{0, -1120}, {50000, -1120}, 0, 280}}, {}},
  };
  Netlist nl("empty", lib_);
  const Extraction ex = extract_parasitics(d, nl);
  double c_near = 0, c_far = 0;
  for (const auto& [other, c] : ex.find("x")->couplings) {
    if (other == "near") c_near = c;
    if (other == "far") c_far = c;
  }
  EXPECT_GT(c_near, c_far);
  EXPECT_GT(c_far, 0.0);
}

/// The all-pairs coupling scan the track index replaced, kept as the
/// reference for the summation contract: each net pair (i < j) sums its
/// terms over net i's wires, then net j's, in wire order, and the pairs
/// merge in (i, j) order.  `*at_edge` counts the terms at exactly the
/// window's edge.
Extraction all_pairs_coupling(const DefDesign& d, const ExtractOptions& opts,
                              int* at_edge) {
  const Process018& pr = opts.process;
  const std::int64_t max_sep = um_to_dbu(opts.coupling_max_sep_um);
  Extraction ex;
  for (const DefNet& net : d.nets) ex.nets.emplace(net.name, NetParasitics{});
  for (std::size_t i = 0; i < d.nets.size(); ++i) {
    for (std::size_t j = i + 1; j < d.nets.size(); ++j) {
      double cc = 0.0;
      for (const Segment& sa : d.nets[i].wires) {
        for (const Segment& sb : d.nets[j].wires) {
          std::int64_t sep = 0;
          const std::int64_t run = parallel_run_length(sa, sb, &sep);
          if (run <= 0 || sep == 0 || sep > max_sep) continue;
          if (sep == max_sep) ++*at_edge;
          const double pitch_um = pr.wire_pitch_um;
          cc += pr.wire_c_couple_ff_per_um * dbu_to_um(run) *
                (pitch_um / dbu_to_um(sep));
        }
      }
      if (cc > 0.0) {
        const std::string& a = d.nets[i].name;
        const std::string& b = d.nets[j].name;
        ex.nets[a].coupling_cap_ff += cc;
        ex.nets[a].couplings.emplace_back(b, cc);
        ex.nets[b].coupling_cap_ff += cc;
        ex.nets[b].couplings.emplace_back(a, cc);
      }
    }
  }
  return ex;
}

/// About 60 nets on three layers in both orientations, on a 40-DBU track
/// grid (so separations of 0.56, 1.2 and 3.0 um occur exactly) with
/// 100-DBU span ends (so spans touch).  Some segments have zero length,
/// reversed endpoints, a duplicate in the same or another net, or a
/// neighbour of their own net on the next track.
DefDesign random_layout(std::uint64_t seed) {
  Rng rng(seed);
  DefDesign d;
  d.name = "random";
  d.die = {{0, 0}, {6000, 6000}};
  const int n_nets = 50 + static_cast<int>(rng.next_below(21));
  for (int n = 0; n < n_nets; ++n) {
    DefNet net;
    net.name = "n" + std::to_string(n);
    const int n_wires = 1 + static_cast<int>(rng.next_below(6));
    for (int w = 0; w < n_wires; ++w) {
      const int layer = static_cast<int>(rng.next_below(3));
      const bool vertical = rng.next_bool();
      const std::int64_t track = 40 * static_cast<std::int64_t>(
                                          rng.next_below(100));
      const std::int64_t lo =
          100 * static_cast<std::int64_t>(rng.next_below(50));
      const std::int64_t hi =
          lo + 100 * static_cast<std::int64_t>(rng.next_below(20));
      Segment s = vertical ? Segment{{track, lo}, {track, hi}, layer, 280}
                           : Segment{{lo, track}, {hi, track}, layer, 280};
      if (rng.next_bool()) std::swap(s.a, s.b);
      net.wires.push_back(s);
      switch (rng.next_below(8)) {
        case 0:
          net.wires.push_back(s);
          break;
        case 1:
          if (!d.nets.empty()) {
            d.nets[rng.next_below(d.nets.size())].wires.push_back(s);
          }
          break;
        case 2:
          net.wires.push_back(vertical ? s.translated(40, 0)
                                       : s.translated(0, 40));
          break;
        default:
          break;
      }
    }
    d.nets.push_back(std::move(net));
  }
  return d;
}

TEST_F(ExtractTest, CouplingMatchesTheAllPairsScanBitForBit) {
  Netlist nl("empty", lib_);
  std::map<double, int> at_edge;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const DefDesign d = random_layout(seed);
    for (const double max_sep_um : {0.0, 0.56, 1.2, 3.0}) {
      ExtractOptions o;
      o.coupling_max_sep_um = max_sep_um;
      const Extraction ex = extract_parasitics(d, nl, o);
      const Extraction ref = all_pairs_coupling(d, o, &at_edge[max_sep_um]);
      ASSERT_EQ(ex.nets.size(), ref.nets.size());
      for (const auto& [name, want] : ref.nets) {
        const NetParasitics& got = ex.nets.at(name);
        SCOPED_TRACE("seed " + std::to_string(seed) + ", max_sep " +
                     std::to_string(max_sep_um) + " um, net " + name);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.coupling_cap_ff),
                  std::bit_cast<std::uint64_t>(want.coupling_cap_ff));
        ASSERT_EQ(got.couplings.size(), want.couplings.size());
        for (std::size_t k = 0; k < want.couplings.size(); ++k) {
          EXPECT_EQ(got.couplings[k].first, want.couplings[k].first) << k;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got.couplings[k].second),
                    std::bit_cast<std::uint64_t>(want.couplings[k].second))
              << k;
        }
      }
    }
  }
  // The layouts reach the window's edge at every width that couples.
  EXPECT_EQ(at_edge[0.0], 0);
  EXPECT_GT(at_edge[0.56], 0);
  EXPECT_GT(at_edge[1.2], 0);
  EXPECT_GT(at_edge[3.0], 0);
}

TEST_F(ExtractTest, CouplingWindowIsBounded) {
  DefDesign d;
  d.name = "t";
  d.nets = {DefNet{"a", {Segment{{0, 0}, {5000, 0}, 0, 280}}, {}},
            DefNet{"b", {Segment{{0, 560}, {5000, 560}, 0, 280}}, {}}};
  Netlist nl("empty", lib_);
  ExtractOptions o;
  o.coupling_max_sep_um = kMaxCouplingSepUm;  // boundary: legal
  EXPECT_GT(extract_parasitics(d, nl, o).find("a")->coupling_cap_ff, 0.0);
  // Wider windows used to overflow the DBU conversion and drop every
  // coupling.
  for (const double bad : {1e16, 1e300, -1.0}) {
    o.coupling_max_sep_um = bad;
    EXPECT_THROW(extract_parasitics(d, nl, o), Error) << bad;
  }
}

TEST_F(ExtractTest, ExtractionHasItsOwnSpan) {
  DefDesign d;
  d.name = "t";
  // a and b couple; c's zero-length wire still counts as a segment.
  d.nets = {DefNet{"a", {Segment{{0, 0}, {5000, 0}, 0, 280}}, {}},
            DefNet{"b", {Segment{{0, 560}, {5000, 560}, 0, 280}}, {}},
            DefNet{"c",
                   {Segment{{0, 9000}, {5000, 9000}, 0, 280},
                    Segment{{0, 1120}, {0, 1120}, 0, 280}},
                   {}}};
  Netlist nl("empty", lib_);
  Tracer::global().clear();
  Tracer::global().set_enabled(true);
  extract_parasitics(d, nl);
  Tracer::global().set_enabled(false);
  const std::vector<TraceEvent> events = Tracer::global().events();
  Tracer::global().clear();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "extract.parasitics");
  const std::vector<std::pair<std::string, std::string>> want = {
      {"nets", "3"}, {"segments", "4"}, {"coupled_pairs", "1"}};
  EXPECT_EQ(events[0].args, want);
}

TEST_F(ExtractTest, PinCapsComeFromNetlist) {
  Netlist nl("t", lib_);
  const NetId a = nl.add_net("a");
  const NetId y = nl.add_net("y");
  nl.add_port("a", PinDir::kInput, a);
  nl.add_port("y", PinDir::kOutput, y);
  add_gate(nl, "INV", "u1", {a}, y);
  add_gate(nl, "NAND2", "u2", {a, y}, nl.add_net("z"));

  DefDesign d;
  d.name = "t";
  d.die = {{0, 0}, {10000, 10000}};
  d.nets = {DefNet{"a", {Segment{{0, 0}, {1000, 0}, 0, 280}}, {}},
            DefNet{"y", {Segment{{0, 560}, {1000, 560}, 0, 280}}, {}}};
  const Extraction ex = extract_parasitics(d, nl);
  // a feeds INV.A (2.0) + NAND2.A (2.1); y feeds NAND2.B (2.1).
  EXPECT_NEAR(ex.find("a")->pin_cap_ff, 4.1, 1e-9);
  EXPECT_NEAR(ex.find("y")->pin_cap_ff, 2.1, 1e-9);
}

TEST_F(ExtractTest, VariationIsDeterministicPerSeed) {
  DefDesign d;
  d.name = "t";
  d.die = {{0, 0}, {100000, 10000}};
  d.nets = {DefNet{"n", {Segment{{0, 0}, {50000, 0}, 0, 280}}, {}}};
  Netlist nl("empty", lib_);
  ExtractOptions o1;
  o1.variation_sigma = 0.05;
  o1.seed = 42;
  ExtractOptions o2 = o1;
  ExtractOptions o3 = o1;
  o3.seed = 43;
  const double c1 = extract_parasitics(d, nl, o1).find("n")->total_cap_ff();
  const double c2 = extract_parasitics(d, nl, o2).find("n")->total_cap_ff();
  const double c3 = extract_parasitics(d, nl, o3).find("n")->total_cap_ff();
  EXPECT_DOUBLE_EQ(c1, c2);
  EXPECT_NE(c1, c3);
}

TEST_F(ExtractTest, CapTableCoversInternalNets) {
  Netlist nl("t", lib_);
  const NetId a = nl.add_net("a");
  const NetId inner = nl.add_net("inner");
  const NetId y = nl.add_net("y");
  nl.add_port("a", PinDir::kInput, a);
  nl.add_port("y", PinDir::kOutput, y);
  add_gate(nl, "INV", "u1", {a}, inner);
  add_gate(nl, "INV", "u2", {inner}, y);

  DefDesign d;
  d.name = "t";
  d.die = {{0, 0}, {10000, 10000}};
  d.nets = {DefNet{"a", {Segment{{0, 0}, {1000, 0}, 0, 280}}, {}}};
  const Extraction ex = extract_parasitics(d, nl);
  const auto table = build_cap_table(nl, ex, 0.8);
  ASSERT_TRUE(table.contains("inner"));
  // inner: internal default 0.8 + INV.A 2.0.
  EXPECT_NEAR(table.at("inner"), 2.8, 1e-9);
  // a: extracted wire cap + pin cap.
  EXPECT_GT(table.at("a"), 2.0);
}


TEST_F(ExtractTest, BalanceRailCapsEqualizesPairs) {
  std::unordered_map<std::string, double> caps = {
      {"n1_t", 10.0}, {"n1_f", 14.0}, {"n2_t", 8.0}, {"n2_f", 8.0},
      {"clk", 30.0}, {"lonely_t", 5.0}};
  const int adjusted = balance_rail_caps(caps, 1.0);
  EXPECT_EQ(adjusted, 2);
  EXPECT_DOUBLE_EQ(caps["n1_t"], 14.0);
  EXPECT_DOUBLE_EQ(caps["n1_f"], 14.0);
  EXPECT_DOUBLE_EQ(caps["n2_t"], 8.0);
  EXPECT_DOUBLE_EQ(caps["clk"], 30.0);       // untouched
  EXPECT_DOUBLE_EQ(caps["lonely_t"], 5.0);   // unpaired: untouched
}

TEST_F(ExtractTest, BalanceRailCapsPartialStrength) {
  std::unordered_map<std::string, double> caps = {{"a_t", 10.0},
                                                  {"a_f", 20.0}};
  balance_rail_caps(caps, 0.5);
  EXPECT_DOUBLE_EQ(caps["a_t"], 15.0);
  EXPECT_DOUBLE_EQ(caps["a_f"], 20.0);
  EXPECT_THROW(balance_rail_caps(caps, 1.5), Error);
}

// End-to-end: matched rails from the secure pipeline, mismatched nets from
// the regular one — the crux of the countermeasure.
TEST_F(ExtractTest, DifferentialRailsExtractMatched) {
  const Netlist rtl = technology_map(parse_hdl(R"(
    module m (input a, input b, input c, output y);
      assign y = (a & b) ^ c;
    endmodule)"),
                                     lib_);
  WddlLibrary wlib(lib_);
  SubstitutionResult sub = substitute_cells(rtl, wlib);
  LefGenOptions fat_opts;
  fat_opts.wire_scale = 2.0;
  const LefLibrary fat_lef = generate_lef(*wlib.fat_library(), fat_opts);
  DefDesign fat_def = place_design(sub.fat, fat_lef);
  route_design(sub.fat, fat_lef, fat_def);
  const Process018 pr;
  const DefDesign diff = decompose_interconnect(
      fat_def, um_to_dbu(pr.wire_pitch_um), um_to_dbu(pr.wire_width_um));
  const Netlist diff_nl = expand_differential(sub.fat, wlib);

  const Extraction ex = extract_parasitics(diff, diff_nl);
  const auto mismatch = rail_mismatch_ff(ex);
  EXPECT_FALSE(mismatch.empty());
  for (const auto& [net, mm] : mismatch) {
    // Wire geometry is exactly matched; only pin-cap asymmetry of the
    // compound internals remains, which is bounded by a few fF.
    EXPECT_LT(mm, 8.0) << net;
  }
}

}  // namespace
}  // namespace secflow
