// Physical library (LEF-lite): routing layers and cell macros.
//
// Three physical views exist in the secure flow (paper Fig 1):
//  * the single-ended library for the regular flow;
//  * `fat_lib.lef`: WDDL compound macros and a FAT wire definition whose
//    width/pitch are doubled, so the router reserves two adjacent tracks
//    for every fat wire;
//  * `diff_lib.lef`: the same macros with the normal wire definition, used
//    during stream-out after interconnect decomposition.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "base/geometry.h"
#include "base/units.h"
#include "netlist/cell_library.h"

namespace secflow {

enum class LayerDir { kHorizontal, kVertical };

struct LefLayer {
  std::string name;
  LayerDir dir = LayerDir::kHorizontal;
  double pitch_um = 0.0;
  double width_um = 0.0;
};

struct LefPin {
  std::string name;
  PinDir dir = PinDir::kInput;
  Point offset;  ///< pin location relative to macro origin [DBU]
};

struct LefMacro {
  std::string name;
  std::int64_t width_dbu = 0;
  std::int64_t height_dbu = 0;
  std::vector<LefPin> pins;

  const LefPin* find_pin(const std::string& pin_name) const;
};

class LefLibrary {
 public:
  explicit LefLibrary(std::string name = "lef") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void add_layer(LefLayer layer);
  void add_macro(LefMacro macro);

  const std::vector<LefLayer>& layers() const { return layers_; }
  const LefMacro& macro(const std::string& name) const;
  bool has_macro(const std::string& name) const;
  std::size_t n_macros() const { return macros_.size(); }
  const std::vector<LefMacro>& macros() const { return macros_; }

  /// Routing track pitch of layer 0 in DBU (uniform across layers here).
  std::int64_t track_pitch_dbu() const;
  /// Drawn wire width in DBU.
  std::int64_t wire_width_dbu() const;

 private:
  std::string name_;
  std::vector<LefLayer> layers_;
  std::vector<LefMacro> macros_;
  std::unordered_map<std::string, std::size_t> macro_by_name_;
};

/// Routing layers of a generated library (M1..M5).
inline constexpr int kRoutingLayers = 5;

/// Options controlling physical library generation.
struct LefGenOptions {
  Process018 process;
  /// Multiply wire width and pitch (2.0 generates the fat library).
  double wire_scale = 1.0;
};

/// Generate a physical library matching `cells`: one macro per cell with
/// deterministically placed pins (snapped to the routing grid), plus
/// kRoutingLayers routing layer definitions (M1 horizontal, M2 vertical,
/// alternating upward).
/// Throws Error when the scaled wire pitch rounds below 1 DBU, or when it is
/// so coarse that two pins of one macro snap to the same grid point (the
/// message names the macro, both pins, the point and the pitch).
LefLibrary generate_lef(const CellLibrary& cells, const LefGenOptions& opts);

}  // namespace secflow
