#include "pnr/render.h"

#include <algorithm>
#include <vector>

#include "base/error.h"

namespace secflow {

std::string render_design(const DefDesign& d, const RenderOptions& opts) {
  SECFLOW_CHECK(opts.max_cols > 10, "render budget too small");
  const std::int64_t w = std::max<std::int64_t>(d.die.width(), 1);
  const std::int64_t h = std::max<std::int64_t>(d.die.height(), 1);
  const int cols = opts.max_cols;
  // Terminal characters are ~2x taller than wide; halve the row count.
  const int rows = std::max(
      4, static_cast<int>(h * cols / (2 * w)));
  std::vector<std::string> canvas(static_cast<std::size_t>(rows),
                                  std::string(static_cast<std::size_t>(cols), '.'));
  auto to_col = [&](std::int64_t x) {
    return static_cast<int>(
        std::clamp<std::int64_t>((x - d.die.lo.x) * (cols - 1) / w, 0, cols - 1));
  };
  auto to_row = [&](std::int64_t y) {
    // y grows upward; rows grow downward.
    return static_cast<int>(std::clamp<std::int64_t>(
        (rows - 1) - (y - d.die.lo.y) * (rows - 1) / h, 0, rows - 1));
  };
  auto put = [&](int r, int c, char ch) {
    canvas[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] = ch;
  };

  // Component footprints.
  for (const DefComponent& c : d.components) {
    const int c0 = to_col(c.origin.x);
    const int r0 = to_row(c.origin.y);
    put(r0, c0, '#');
  }
  // Wires.
  for (const DefNet& net : d.nets) {
    for (const Segment& s : net.wires) {
      if (s.horizontal()) {
        const int r = to_row(s.a.y);
        const int ca = to_col(std::min(s.a.x, s.b.x));
        const int cb = to_col(std::max(s.a.x, s.b.x));
        for (int c = ca; c <= cb; ++c) put(r, c, '-');
      } else {
        const int c = to_col(s.a.x);
        const int ra = to_row(std::max(s.a.y, s.b.y));
        const int rb = to_row(std::min(s.a.y, s.b.y));
        for (int r = ra; r <= rb; ++r) put(r, c, '|');
      }
    }
    for (const DefVia& v : net.vias) {
      put(to_row(v.at.y), to_col(v.at.x), '+');
    }
  }

  std::string out;
  for (const std::string& line : canvas) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace secflow
