// Router-core regression suite (DESIGN.md section 15) on the paper's DES
// module fat netlist — the workload whose 20K+ differential pairs motivate
// the throughput work:
//  * the default windowed + incremental configuration is DRC-clean
//    (connectivity and shorts);
//  * a sparse die more than 160 tracks across, where two default search
//    windows can be disjoint, converges clean too;
//  * window escalation reaches the full grid and still converges clean,
//    so window pruning never costs completeness;
//  * the serial reroute-everything reference (incremental off) is equally
//    clean — the A/B pair the bench measures;
//  * a run that cannot converge throws an Error naming congested nets and
//    the region of the shared nodes;
//  * the decomposed rails of the default geometry stay capacitance-
//    balanced, the security property that constrains rip-up discipline.
#include "pnr/route.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <regex>
#include <string>

#include "base/error.h"
#include "base/units.h"
#include "crypto/des.h"
#include "extract/extract.h"
#include "flow/flow.h"
#include "lef/lef.h"
#include "liberty/builtin_lib.h"
#include "pnr/check.h"
#include "pnr/decompose.h"
#include "pnr/place.h"
#include "synth/techmap.h"
#include "wddl/cell_substitution.h"

namespace secflow {
namespace {

/// Shared fixture: synthesize, substitute and place the fat DES module
/// once per test binary (the placement is the expensive part), then route
/// the default configuration once — several tests inspect that geometry.
class RouterOnFatDes : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto lib = builtin_stdcell018();
    Netlist rtl = technology_map(make_des_dpa_circuit(), lib,
                                 wddl_synth_constraints());
    wlib_ = std::make_shared<WddlLibrary>(lib);
    SubstitutionResult sub = substitute_cells(rtl, *wlib_);
    fat_ = new Netlist(std::move(sub.fat));
    LefGenOptions fat_gen;
    fat_gen.wire_scale = 2.0;
    fat_lef_ = new LefLibrary(generate_lef(*wlib_->fat_library(), fat_gen));
    placed_ = new DefDesign(place_design(*fat_, *fat_lef_));

    routed_ = new DefDesign(*placed_);
    default_stats_ = route_design(*fat_, *fat_lef_, *routed_);
    default_def_ = write_def(*routed_);
  }
  static void TearDownTestSuite() {
    delete routed_;
    delete placed_;
    delete fat_lef_;
    delete fat_;
    routed_ = nullptr;
    placed_ = nullptr;
    fat_lef_ = nullptr;
    fat_ = nullptr;
    wlib_.reset();
  }

  /// Route a fresh copy of the placement under `opts`; returns the DEF.
  static DefDesign route_copy(const RouteOptions& opts, RouteStats* stats) {
    DefDesign def = *placed_;
    RouteStats rs = route_design(*fat_, *fat_lef_, def, opts);
    if (stats != nullptr) *stats = rs;
    return def;
  }

  static void expect_drc_clean(const DefDesign& def) {
    const std::int64_t pitch = fat_lef_->track_pitch_dbu();
    const CheckResult conn =
        check_connectivity(*fat_, *fat_lef_, def, 4 * pitch);
    EXPECT_TRUE(conn.ok) << (conn.issues.empty()
                                 ? std::string("no issue recorded")
                                 : conn.issues.front().net + ": " +
                                       conn.issues.front().what);
    const CheckResult shorts = check_shorts(def, pitch);
    EXPECT_TRUE(shorts.ok) << (shorts.issues.empty()
                                   ? std::string("no issue recorded")
                                   : shorts.issues.front().net + ": " +
                                         shorts.issues.front().what);
  }

  static std::shared_ptr<WddlLibrary> wlib_;
  static Netlist* fat_;
  static LefLibrary* fat_lef_;
  static DefDesign* placed_;
  static DefDesign* routed_;
  static RouteStats default_stats_;
  static std::string default_def_;
};

std::shared_ptr<WddlLibrary> RouterOnFatDes::wlib_;
Netlist* RouterOnFatDes::fat_ = nullptr;
LefLibrary* RouterOnFatDes::fat_lef_ = nullptr;
DefDesign* RouterOnFatDes::placed_ = nullptr;
DefDesign* RouterOnFatDes::routed_ = nullptr;
RouteStats RouterOnFatDes::default_stats_;
std::string RouterOnFatDes::default_def_;

TEST_F(RouterOnFatDes, DefaultConfigurationIsDrcClean) {
  EXPECT_GT(default_stats_.nets_routed, 100);
  EXPECT_GE(default_stats_.iterations, 1);
  EXPECT_GT(default_stats_.expanded_nodes, 0);
  EXPECT_GT(default_stats_.wirelength_dbu, 0);
  // Incremental rip-up engaged: later iterations reroute a strict subset.
  EXPECT_GT(default_stats_.nets_ripped, 0);
  EXPECT_LT(default_stats_.nets_ripped,
            static_cast<std::int64_t>(default_stats_.nets_routed) *
                default_stats_.iterations);
  expect_drc_clean(*routed_);
}

TEST_F(RouterOnFatDes, SparseDieWiderThanTheWindowsConvergesClean) {
  // At 20 % fill the die is more than 160 tracks across, wider than any
  // DES layout at the default fill, so two windows with the default
  // 64-track margin can be disjoint.  Routing must still converge within
  // the default budget, complete and clean.
  PlaceOptions popts;
  popts.fill_factor = 0.2;
  DefDesign def = place_design(*fat_, *fat_lef_, popts);
  const std::int64_t pitch = fat_lef_->track_pitch_dbu();
  EXPECT_GT(def.die.width() / pitch, 160);
  EXPECT_GT(def.die.height() / pitch, 160);
  RouteStats rs;  // route_design throws when 48 iterations do not converge
  ASSERT_NO_THROW(rs = route_design(*fat_, *fat_lef_, def));
  EXPECT_EQ(rs.nets_routed, default_stats_.nets_routed);
  expect_drc_clean(def);
}

TEST_F(RouterOnFatDes, WindowEscalationReachesFullGridAndStaysClean) {
  // Start from the pin bounding box itself and jump straight to the full
  // grid on first escalation: congested nets must take that path, and the
  // result must still be complete and clean — windows prune work, never
  // completeness.
  RouteOptions opts;
  opts.window_margin = 0;
  opts.window_escalation = 1 << 20;
  RouteStats rs;
  const DefDesign def = route_copy(opts, &rs);
  EXPECT_GT(rs.window_escalations, 0);
  EXPECT_GT(rs.full_grid_searches, 0);
  EXPECT_EQ(rs.nets_routed, default_stats_.nets_routed);
  expect_drc_clean(def);
}

TEST_F(RouterOnFatDes, SerialReferenceIsDrcClean) {
  // incremental = false is the classic reroute-everything Gauss-Seidel
  // loop the bench uses as its A/B reference; it must produce legal
  // geometry too (it converges on different, more tightly packed paths).
  RouteOptions opts;
  opts.incremental = false;
  opts.window_margin = 1 << 20;  // full-grid windows
  RouteStats rs;
  const DefDesign def = route_copy(opts, &rs);
  EXPECT_EQ(rs.nets_routed, default_stats_.nets_routed);
  // Serial mode rips every net every iteration after the first, so its
  // rip count is exactly nets x (iterations - 1) — no subset selection.
  EXPECT_EQ(rs.nets_ripped,
            static_cast<std::int64_t>(rs.nets_routed) * (rs.iterations - 1));
  expect_drc_clean(def);
}

TEST_F(RouterOnFatDes, NonConvergenceNamesCongestedNetsAndRegion) {
  // One iteration cannot resolve fat DES (the default run needs several):
  // the Error must say how far it got, name nets of the design and give
  // the shared nodes' bounding box inside the die.
  RouteOptions opts;
  opts.max_iterations = 1;
  std::string msg;
  try {
    route_copy(opts, nullptr);
  } catch (const Error& e) {
    msg = e.what();
  }
  ASSERT_FALSE(msg.empty()) << "one iteration unexpectedly converged";
  EXPECT_NE(msg.find("after 1 iteration"), std::string::npos) << msg;

  std::smatch m;
  ASSERT_TRUE(std::regex_search(msg, m, std::regex("congested nets: ([^ ,;]+)")))
      << msg;
  const std::string first = m[1].str();
  EXPECT_TRUE(std::any_of(placed_->nets.begin(), placed_->nets.end(),
                          [&](const DefNet& n) { return n.name == first; }))
      << "'" << first << "' is not a net of the design: " << msg;

  ASSERT_TRUE(std::regex_search(
      msg, m, std::regex(R"(\((-?\d+), (-?\d+)\)-\((-?\d+), (-?\d+)\) DBU)")))
      << msg;
  const Point lo{std::stoll(m[1].str()), std::stoll(m[2].str())};
  const Point hi{std::stoll(m[3].str()), std::stoll(m[4].str())};
  EXPECT_LE(lo.x, hi.x);
  EXPECT_LE(lo.y, hi.y);
  EXPECT_GE(lo.x, placed_->die.lo.x);
  EXPECT_GE(lo.y, placed_->die.lo.y);
  EXPECT_LE(hi.x, placed_->die.hi.x);
  EXPECT_LE(hi.y, placed_->die.hi.y);
}

TEST_F(RouterOnFatDes, DecomposedRailsStayCapacitanceBalanced) {
  // The security property that constrains the rip-up discipline: after
  // decomposition the _t/_f rails must carry matched capacitance.  The
  // geometry is translation-identical (symmetry check), so any residual
  // mismatch is lateral coupling to other nets — the term the rip-first
  // incremental discipline keeps small (DESIGN.md section 15).
  const Process018 pr;
  const std::int64_t fine_pitch = um_to_dbu(pr.wire_pitch_um);
  const DefDesign diff = decompose_interconnect(
      *routed_, fine_pitch, um_to_dbu(pr.wire_width_um));
  EXPECT_TRUE(check_differential_symmetry(diff, fine_pitch).ok);

  // Extract wire + coupling caps only (the diff net names are absent from
  // the fat netlist, so no pin caps enter): the mismatch below is purely
  // the router's doing.
  const Extraction ex = extract_parasitics(diff, *fat_);
  const auto mismatch = rail_mismatch_ff(ex);
  ASSERT_FALSE(mismatch.empty());
  double worst = 0.0, sum = 0.0;
  for (const auto& [net, mm] : mismatch) {
    worst = std::max(worst, mm);
    sum += mm;
  }
  EXPECT_LT(worst, 20.0);
  EXPECT_LT(sum / static_cast<double>(mismatch.size()), 1.5);
}

}  // namespace
}  // namespace secflow
