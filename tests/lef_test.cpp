#include "lef/lef.h"

#include <gtest/gtest.h>

#include <string>

#include "base/error.h"
#include "crypto/des.h"
#include "flow/flow.h"
#include "lef/lef_io.h"
#include "liberty/builtin_lib.h"

namespace secflow {
namespace {

class LefTest : public ::testing::Test {
 protected:
  std::shared_ptr<const CellLibrary> cells_ = builtin_stdcell018();
};

TEST_F(LefTest, GeneratesOneMacroPerCell) {
  const LefLibrary lef = generate_lef(*cells_, {});
  EXPECT_EQ(lef.n_macros(), cells_->size());
  EXPECT_EQ(lef.layers().size(), 5u);
  for (CellTypeId id : cells_->all()) {
    const CellType& c = cells_->cell(id);
    const LefMacro& m = lef.macro(c.name);
    EXPECT_EQ(m.width_dbu, um_to_dbu(c.width_um)) << c.name;
    EXPECT_EQ(m.height_dbu, um_to_dbu(c.height_um)) << c.name;
    EXPECT_EQ(m.pins.size(), c.pins.size()) << c.name;
  }
}

TEST_F(LefTest, LayerDirectionsAlternate) {
  const LefLibrary lef = generate_lef(*cells_, {});
  EXPECT_EQ(lef.layers()[0].dir, LayerDir::kHorizontal);
  EXPECT_EQ(lef.layers()[1].dir, LayerDir::kVertical);
  EXPECT_EQ(lef.layers()[2].dir, LayerDir::kHorizontal);
  EXPECT_EQ(lef.layers()[3].dir, LayerDir::kVertical);
  EXPECT_EQ(lef.layers()[4].dir, LayerDir::kHorizontal);
}

TEST_F(LefTest, PinsInsideMacroAndOnGrid) {
  const LefLibrary lef = generate_lef(*cells_, {});
  const std::int64_t pitch = lef.track_pitch_dbu();
  for (const LefMacro& m : lef.macros()) {
    for (const LefPin& p : m.pins) {
      EXPECT_GE(p.offset.x, 0) << m.name << '/' << p.name;
      EXPECT_LE(p.offset.x, m.width_dbu) << m.name << '/' << p.name;
      EXPECT_GE(p.offset.y, 0) << m.name << '/' << p.name;
      EXPECT_LE(p.offset.y, m.height_dbu) << m.name << '/' << p.name;
      EXPECT_EQ(p.offset.x % pitch, 0) << m.name << '/' << p.name;
      EXPECT_EQ(p.offset.y % pitch, 0) << m.name << '/' << p.name;
    }
  }
}

TEST_F(LefTest, PinsDoNotOverlapWithinMacro) {
  const LefLibrary lef = generate_lef(*cells_, {});
  for (const LefMacro& m : lef.macros()) {
    for (std::size_t i = 0; i < m.pins.size(); ++i) {
      for (std::size_t j = i + 1; j < m.pins.size(); ++j) {
        EXPECT_FALSE(m.pins[i].offset == m.pins[j].offset)
            << m.name << ": " << m.pins[i].name << " vs " << m.pins[j].name;
      }
    }
  }
}

TEST_F(LefTest, FatLibraryDoublesWireGeometry) {
  // At half the default pitch: on the doubled default grid the builtin
  // cells stack pins (see FlowWireScalesKeepPinsApart).
  LefGenOptions normal;
  normal.process.wire_pitch_um /= 2;
  normal.process.wire_width_um /= 2;
  LefGenOptions fat = normal;
  fat.wire_scale = 2.0;
  const LefLibrary nl = generate_lef(*cells_, normal);
  const LefLibrary fl = generate_lef(*cells_, fat);
  EXPECT_EQ(fl.track_pitch_dbu(), 2 * nl.track_pitch_dbu());
  EXPECT_EQ(fl.wire_width_dbu(), 2 * nl.wire_width_dbu());
  // Macros keep the same footprint; only the wire definition changes.
  EXPECT_EQ(fl.macro("INV").width_dbu, nl.macro("INV").width_dbu);
}

TEST_F(LefTest, PitchBelowOneDbuThrows) {
  // Pins snap to the grid by dividing by the pitch in DBU: a pitch that
  // rounds to 0 DBU ended the process with SIGFPE.
  LefGenOptions opts;
  for (double pitch : {0.0, 0.0004, -0.56}) {
    opts.process.wire_pitch_um = pitch;
    EXPECT_THROW(generate_lef(*cells_, opts), Error) << pitch;
  }
  opts.process.wire_pitch_um = 0.0005;  // 1 DBU
  EXPECT_NO_THROW(generate_lef(*cells_, opts));
}

TEST_F(LefTest, PitchThatStacksPinsThrows) {
  // Pins snap to the routing grid: a pitch wider than a cell's pin spacing
  // puts every pin of the cell on one grid point, where the router would
  // join their nets.
  LefGenOptions opts;
  opts.process.wire_pitch_um = 50.0;
  opts.process.wire_width_um = 25.0;
  try {
    generate_lef(*cells_, opts);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("macro INV pins A and Y both snap to (0, 0) DBU at "
                       "wire pitch 50 um"),
              std::string::npos)
        << msg;
  }
}

TEST_F(LefTest, FlowWireScalesKeepPinsApart) {
  // At the default pitch, each library a flow places: the builtin cells at
  // the plain scale (regular flow), and the fat cells the secure flow
  // substitutes into the DES module at the plain, fat and shielded scales.
  FlowOptions des_opts;
  des_opts.stop_after = FlowStage::kSubstitution;
  const SecureFlowResult des =
      run_secure_flow(make_des_dpa_circuit(), cells_, des_opts);
  EXPECT_NO_THROW(generate_lef(*cells_, {}));
  for (const double scale : {1.0, 2.0, 3.0}) {
    LefGenOptions opts;
    opts.wire_scale = scale;
    EXPECT_NO_THROW(generate_lef(des.fat.library(), opts)) << scale;
    // The builtin cells are narrower than the fat compounds: on a fat or
    // shielded grid NAND2/NAND3 pins share a point.
    if (scale > 1.0) {
      EXPECT_THROW(generate_lef(*cells_, opts), Error) << scale;
    }
  }
}

TEST_F(LefTest, FindPin) {
  const LefLibrary lef = generate_lef(*cells_, {});
  const LefMacro& inv = lef.macro("INV");
  ASSERT_NE(inv.find_pin("A"), nullptr);
  ASSERT_NE(inv.find_pin("Y"), nullptr);
  EXPECT_EQ(inv.find_pin("Z"), nullptr);
  EXPECT_EQ(inv.find_pin("A")->dir, PinDir::kInput);
  EXPECT_EQ(inv.find_pin("Y")->dir, PinDir::kOutput);
}

TEST_F(LefTest, UnknownMacroThrows) {
  const LefLibrary lef = generate_lef(*cells_, {});
  EXPECT_THROW(lef.macro("NOPE"), Error);
  EXPECT_FALSE(lef.has_macro("NOPE"));
  EXPECT_TRUE(lef.has_macro("NAND2"));
}

TEST_F(LefTest, TextRoundTrip) {
  const LefLibrary lef = generate_lef(*cells_, {});
  const std::string text = write_lef(lef);
  const LefLibrary back = parse_lef(text);
  EXPECT_EQ(back.n_macros(), lef.n_macros());
  EXPECT_EQ(back.layers().size(), lef.layers().size());
  for (std::size_t i = 0; i < lef.layers().size(); ++i) {
    EXPECT_EQ(back.layers()[i].name, lef.layers()[i].name);
    EXPECT_EQ(back.layers()[i].dir, lef.layers()[i].dir);
    EXPECT_DOUBLE_EQ(back.layers()[i].pitch_um, lef.layers()[i].pitch_um);
  }
  for (const LefMacro& m : lef.macros()) {
    const LefMacro& b = back.macro(m.name);
    EXPECT_EQ(b.width_dbu, m.width_dbu) << m.name;
    EXPECT_EQ(b.height_dbu, m.height_dbu) << m.name;
    ASSERT_EQ(b.pins.size(), m.pins.size()) << m.name;
    for (std::size_t i = 0; i < m.pins.size(); ++i) {
      EXPECT_EQ(b.pins[i].name, m.pins[i].name);
      EXPECT_EQ(b.pins[i].offset, m.pins[i].offset) << m.name;
    }
  }
}

TEST_F(LefTest, ParserRejectsGarbage) {
  EXPECT_THROW(parse_lef("WHAT IS THIS ;"), ParseError);
  EXPECT_THROW(parse_lef("MACRO X SIZE 1 BY"), Error);
  EXPECT_THROW(parse_lef("LAYER M1 COLOUR RED ; END M1"), ParseError);
}

}  // namespace
}  // namespace secflow
