#include "pnr/decompose.h"

#include <unordered_set>

#include "base/error.h"
#include "wddl/cell_substitution.h"

namespace secflow {

DefDesign decompose_interconnect(const DefDesign& fat,
                                 std::int64_t fine_pitch,
                                 std::int64_t fine_width,
                                 const DecomposeOptions& opts) {
  SECFLOW_CHECK(fine_pitch > 0 && fine_width > 0, "bad fine wire definition");
  std::unordered_set<std::string> single(opts.single_ended_nets.begin(),
                                         opts.single_ended_nets.end());
  DefDesign diff;
  diff.name = fat.name + "_diff";
  diff.die = fat.die;
  diff.row_height_dbu = fat.row_height_dbu;
  diff.track_pitch_dbu = fine_pitch;
  diff.components = fat.components;  // same placement, differential macros

  DefNet shield;
  shield.name = kShieldNet;

  for (const DefNet& net : fat.nets) {
    if (single.contains(net.name)) {
      DefNet out;
      out.name = net.name;
      out.vias = net.vias;
      for (const Segment& s : net.wires) {
        out.wires.push_back(Segment{s.a, s.b, s.layer, fine_width});
      }
      diff.nets.push_back(std::move(out));
      continue;
    }
    DefNet t_rail;
    t_rail.name = rail_name(net.name, false);
    DefNet f_rail;
    f_rail.name = rail_name(net.name, true);
    for (const Segment& s : net.wires) {
      t_rail.wires.push_back(Segment{s.a, s.b, s.layer, fine_width});
      Segment shifted = s.translated(fine_pitch, fine_pitch);
      shifted.width = fine_width;
      f_rail.wires.push_back(shifted);
    }
    for (const DefVia& v : net.vias) {
      t_rail.vias.push_back(v);
      f_rail.vias.push_back(DefVia{
          {v.at.x + fine_pitch, v.at.y + fine_pitch}, v.from_layer,
          v.to_layer});
    }
    if (opts.add_shields) {
      for (const Segment& s : net.wires) {
        Segment sh = s.translated(2 * fine_pitch, 2 * fine_pitch);
        sh.width = fine_width;
        shield.wires.push_back(sh);
      }
    }
    diff.nets.push_back(std::move(t_rail));
    diff.nets.push_back(std::move(f_rail));
  }
  if (opts.add_shields && !shield.wires.empty()) {
    diff.nets.push_back(std::move(shield));
  }
  return diff;
}

LefLibrary make_diff_lef(const LefLibrary& fat_lef, double fine_pitch_um,
                         double fine_width_um) {
  LefLibrary diff("diff_lib");
  for (const LefLayer& l : fat_lef.layers()) {
    diff.add_layer(LefLayer{l.name, l.dir, fine_pitch_um, fine_width_um});
  }
  const std::int64_t p = um_to_dbu(fine_pitch_um);
  for (const LefMacro& m : fat_lef.macros()) {
    LefMacro out;
    out.name = m.name;
    out.width_dbu = m.width_dbu;
    out.height_dbu = m.height_dbu;
    for (const LefPin& pin : m.pins) {
      if (pin.name == "CK") {
        out.pins.push_back(pin);  // the clock stays single-ended
        continue;
      }
      out.pins.push_back(LefPin{pin.name + "_t", pin.dir, pin.offset});
      out.pins.push_back(LefPin{pin.name + "_f", pin.dir,
                                {pin.offset.x + p, pin.offset.y + p}});
    }
    diff.add_macro(std::move(out));
  }
  return diff;
}

}  // namespace secflow
