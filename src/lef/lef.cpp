#include "lef/lef.h"

#include "base/error.h"
#include "base/strings.h"

namespace secflow {

const LefPin* LefMacro::find_pin(const std::string& pin_name) const {
  for (const LefPin& p : pins) {
    if (p.name == pin_name) return &p;
  }
  return nullptr;
}

void LefLibrary::add_layer(LefLayer layer) {
  layers_.push_back(std::move(layer));
}

void LefLibrary::add_macro(LefMacro macro) {
  SECFLOW_CHECK(!macro_by_name_.contains(macro.name),
                "duplicate macro: " + macro.name);
  macro_by_name_.emplace(macro.name, macros_.size());
  macros_.push_back(std::move(macro));
}

const LefMacro& LefLibrary::macro(const std::string& name) const {
  const auto it = macro_by_name_.find(name);
  SECFLOW_CHECK(it != macro_by_name_.end(), "unknown macro: " + name);
  return macros_[it->second];
}

bool LefLibrary::has_macro(const std::string& name) const {
  return macro_by_name_.contains(name);
}

std::int64_t LefLibrary::track_pitch_dbu() const {
  SECFLOW_CHECK(!layers_.empty(), "no layers in LEF library");
  return um_to_dbu(layers_.front().pitch_um);
}

std::int64_t LefLibrary::wire_width_dbu() const {
  SECFLOW_CHECK(!layers_.empty(), "no layers in LEF library");
  return um_to_dbu(layers_.front().width_um);
}

LefLibrary generate_lef(const CellLibrary& cells, const LefGenOptions& opts) {
  LefLibrary lef(cells.name() + (opts.wire_scale > 1.0 ? "_fat" : "_lef"));

  const double pitch = opts.process.wire_pitch_um * opts.wire_scale;
  const double width = opts.process.wire_width_um * opts.wire_scale;
  const std::int64_t pitch_dbu = um_to_dbu(pitch);
  // Pins snap to the routing grid by dividing by the pitch in DBU.
  SECFLOW_CHECK(pitch_dbu >= 1,
                strfmt("LEF generation: wire pitch %g um rounds to %lld DBU",
                       pitch, static_cast<long long>(pitch_dbu)));
  for (int i = 0; i < kRoutingLayers; ++i) {
    // M1/M3 horizontal, M2 vertical (standard HVH assignment).
    lef.add_layer(LefLayer{"M" + std::to_string(i + 1),
                           (i % 2 == 0) ? LayerDir::kHorizontal
                                        : LayerDir::kVertical,
                           pitch, width});
  }

  for (CellTypeId id : cells.all()) {
    const CellType& c = cells.cell(id);
    LefMacro m;
    m.name = c.name;
    m.width_dbu = um_to_dbu(c.width_um);
    m.height_dbu = um_to_dbu(c.height_um);
    // Pins snapped to the routing grid, spread across the cell: inputs on
    // the lower half, output on the upper half, left to right.
    int in_idx = 0;
    const int n_in = c.n_inputs();
    for (std::size_t pi = 0; pi < c.pins.size(); ++pi) {
      const PinDef& p = c.pins[pi];
      LefPin lp;
      lp.name = p.name;
      lp.dir = p.dir;
      std::int64_t x;
      std::int64_t y;
      if (p.dir == PinDir::kInput) {
        const std::int64_t slot =
            n_in > 0 ? (m.width_dbu * (2 * in_idx + 1)) / (2 * n_in)
                     : m.width_dbu / 2;
        x = slot;
        y = m.height_dbu / 4;
        ++in_idx;
      } else {
        x = m.width_dbu / 2;
        y = (3 * m.height_dbu) / 4;
      }
      // Snap to routing grid so the router can reach the pin exactly.
      lp.offset = {(x / pitch_dbu) * pitch_dbu, (y / pitch_dbu) * pitch_dbu};
      // A pitch coarser than the pin spacing stacks pins on one grid
      // point, where the router would join their nets.
      for (const LefPin& other : m.pins) {
        SECFLOW_CHECK(
            other.offset != lp.offset,
            strfmt("LEF generation: macro %s pins %s and %s both snap to "
                   "(%lld, %lld) DBU at wire pitch %g um",
                   m.name.c_str(), other.name.c_str(), lp.name.c_str(),
                   static_cast<long long>(lp.offset.x),
                   static_cast<long long>(lp.offset.y), pitch));
      }
      m.pins.push_back(lp);
    }
    lef.add_macro(std::move(m));
  }
  return lef;
}

}  // namespace secflow
