// Placed-and-routed design data (DEF-lite), the fat.def / diff.def
// artifacts of the flow.
//
// A DefDesign references a netlist by component/net names and a LefLibrary
// by macro names; geometry is DBU.  Wires are axis-parallel segments plus
// explicit vias (layer changes at a point).
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "base/geometry.h"
#include "lef/lef.h"

namespace secflow {

struct DefComponent {
  std::string name;   ///< instance name
  std::string macro;  ///< LEF macro name
  Point origin;       ///< lower-left corner [DBU]
};

struct DefVia {
  Point at;
  int from_layer = 0;
  int to_layer = 0;
};

struct DefNet {
  std::string name;
  std::vector<Segment> wires;
  std::vector<DefVia> vias;

  std::int64_t total_wirelength() const {
    std::int64_t wl = 0;
    for (const Segment& s : wires) wl += s.length();
    return wl;
  }
};

struct DefDesign {
  std::string name;
  Rect die;
  std::int64_t row_height_dbu = 0;
  std::int64_t track_pitch_dbu = 0;  ///< pitch the wires are drawn on
  std::vector<DefComponent> components;
  std::vector<DefNet> nets;

  const DefComponent* find_component(const std::string& name) const;
  const DefNet* find_net(const std::string& name) const;
  DefNet* find_net(const std::string& name);

  std::int64_t total_wirelength() const;
  int total_vias() const;
  /// Die area in um^2.
  double die_area_um2() const;

  /// Absolute position of a component pin (component origin + LEF offset).
  Point pin_position(const LefLibrary& lef, const std::string& component,
                     const std::string& pin) const;
};

/// DEF-lite text round-trip.
std::string write_def(const DefDesign& d);
void write_def_file(const DefDesign& d, const std::string& path);
DefDesign parse_def(const std::string& text);

}  // namespace secflow
