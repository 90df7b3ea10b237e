// ASCII rendering of placed-and-routed designs (used to reproduce the
// *pictures* of Fig 3 and Fig 5 in terminal form).
#pragma once

#include <string>

#include "pnr/def.h"

namespace secflow {

struct RenderOptions {
  int max_cols = 100;   ///< character budget; geometry is downsampled
};

/// Render components ('#' outlines) and wires ('-', '|', '+' at vias).
std::string render_design(const DefDesign& d, const RenderOptions& opts = {});

}  // namespace secflow
