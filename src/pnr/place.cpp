#include "pnr/place.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <utility>

#include "base/error.h"
#include "base/rng.h"
#include "base/strings.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace secflow {
namespace {

/// Row-major placement state used during annealing: per row, an ordered
/// list of instance indices; x positions are derived by left-packing.
struct PlacerState {
  std::vector<std::vector<std::size_t>> rows;   // instance indices
  std::vector<std::size_t> row_of;              // per instance
  std::vector<std::size_t> slot_of;             // position in its row
  std::vector<std::int64_t> x_of;               // packed x [DBU]
  std::vector<std::int64_t> width;              // per instance
};

void pack_row(PlacerState& st, std::size_t row, std::int64_t pitch) {
  std::int64_t x = 0;
  for (std::size_t k = 0; k < st.rows[row].size(); ++k) {
    const std::size_t idx = st.rows[row][k];
    // Snap each origin up to the track grid.
    x = ((x + pitch - 1) / pitch) * pitch;
    st.x_of[idx] = x;
    st.slot_of[idx] = k;
    x += st.width[idx];
  }
}

/// Bounding box of a net's pins; hpwl() is its half perimeter.
struct PinBox {
  std::int64_t lx = INT64_MAX, ly = INT64_MAX, hx = INT64_MIN, hy = INT64_MIN;
  void add(const Point& p) {
    lx = std::min(lx, p.x);
    hx = std::max(hx, p.x);
    ly = std::min(ly, p.y);
    hy = std::max(hy, p.y);
  }
  std::int64_t hpwl() const { return (hx - lx) + (hy - ly); }
};

}  // namespace

Floorplan make_floorplan(const Netlist& nl, const LefLibrary& lef,
                         const PlaceOptions& opts) {
  SECFLOW_CHECK(opts.fill_factor > 0.0 && opts.fill_factor <= 1.0,
                "fill factor out of range");
  SECFLOW_CHECK(opts.aspect_ratio > 0.0, "aspect ratio out of range");
  SECFLOW_CHECK(opts.margin_tracks >= 0,
                "margin_tracks must be >= 0: a negative margin puts the "
                "core outside the die");
  const std::int64_t snap = lef.track_pitch_dbu();
  double cell_area = 0.0;     // um^2, with widths snapped to the track grid
  std::int64_t row_h = 0;
  std::int64_t max_w = 0;
  for (InstId id : nl.instance_ids()) {
    const LefMacro& m = lef.macro(nl.cell_of(id).name);
    const std::int64_t w_snapped = ((m.width_dbu + snap - 1) / snap) * snap;
    cell_area += dbu_to_um(w_snapped) * dbu_to_um(m.height_dbu);
    row_h = std::max(row_h, m.height_dbu);
    max_w = std::max(max_w, w_snapped);
  }
  SECFLOW_CHECK(row_h > 0, "empty netlist");
  const double core_area = cell_area / opts.fill_factor;
  const double height_um = std::sqrt(core_area / opts.aspect_ratio);
  // The row count is cast to int: refuse a die too tall for that (a tiny
  // aspect ratio) before the cast and the DBU conversion overflow.
  const double rows = std::ceil(height_um / dbu_to_um(row_h));
  SECFLOW_CHECK(rows <= 1e9,
                strfmt("floorplan: aspect ratio %g needs %g rows, more "
                       "than 1e9",
                       opts.aspect_ratio, rows));

  Floorplan fp;
  fp.row_height_dbu = row_h;
  fp.n_rows = std::max<int>(
      1, static_cast<int>(std::ceil(um_to_dbu(height_um) /
                                    static_cast<double>(row_h))));
  const double width_um = core_area / (fp.n_rows * dbu_to_um(row_h));
  const std::int64_t pitch = lef.track_pitch_dbu();
  std::int64_t row_w = um_to_dbu(width_um);
  row_w = std::max(row_w, max_w);
  row_w = ((row_w + pitch - 1) / pitch) * pitch;
  fp.row_width_dbu = row_w;

  const std::int64_t margin = opts.margin_tracks * pitch;
  fp.core = Rect{{margin, margin},
                 {margin + row_w, margin + fp.n_rows * row_h}};
  fp.die = fp.core.inflated(margin);
  fp.die.lo = {0, 0};
  fp.die.hi = {fp.core.hi.x + margin, fp.core.hi.y + margin};
  return fp;
}

DefDesign place_design(const Netlist& nl, const LefLibrary& lef,
                       const PlaceOptions& opts) {
  Floorplan fp = make_floorplan(nl, lef, opts);
  const std::int64_t pitch = lef.track_pitch_dbu();
  // Instance ids are dense: insts[i].index() == i.
  const std::vector<InstId> insts = nl.instance_ids();
  const std::size_t n = insts.size();
  std::vector<const LefMacro*> macro_of(n);
  for (std::size_t i = 0; i < n; ++i) {
    macro_of[i] = &lef.macro(nl.cell_of(insts[i]).name);
  }

  PlacerState st;
  st.rows.resize(static_cast<std::size_t>(fp.n_rows));
  st.row_of.resize(n);
  st.slot_of.resize(n);
  st.x_of.resize(n);
  st.width.resize(n);
  for (std::size_t i = 0; i < n; ++i) st.width[i] = macro_of[i]->width_dbu;

  // Initial order: BFS over net connectivity from the first instance, so
  // tightly connected cells land in nearby slots (serpentine fill).
  std::vector<std::size_t> order;
  {
    std::vector<bool> seen(n, false);
    for (std::size_t start = 0; start < n; ++start) {
      if (seen[start]) continue;
      std::deque<std::size_t> queue{start};
      seen[start] = true;
      while (!queue.empty()) {
        const std::size_t i = queue.front();
        queue.pop_front();
        order.push_back(i);
        const Instance& in = nl.instance(insts[i]);
        for (const NetId net : in.conns) {
          if (!net.valid()) continue;
          if (nl.net(net).pins.size() > 12) continue;  // skip clock-like nets
          for (const PinRef& p : nl.net(net).pins) {
            const std::size_t j = p.inst.index();
            if (!seen[j]) {
              seen[j] = true;
              queue.push_back(j);
            }
          }
        }
      }
    }
  }

  // Serpentine fill with row capacity = row width.  Uneven cell widths can
  // make the area-derived row width too tight; widen and retry.
  for (int attempt = 0;; ++attempt) {
    SECFLOW_CHECK(attempt < 16, "placement overflow: die sizing failed");
    bool overflow = false;
    for (auto& row : st.rows) row.clear();
    std::size_t row = 0;
    bool forward = true;
    std::int64_t used = 0;
    for (std::size_t idx : order) {
      const std::int64_t w = ((st.width[idx] + pitch - 1) / pitch) * pitch;
      if (used + w > fp.row_width_dbu && row + 1 < st.rows.size()) {
        ++row;
        forward = !forward;
        used = 0;
      }
      if (used + w > fp.row_width_dbu && !st.rows[row].empty()) {
        overflow = true;
        break;
      }
      if (forward) {
        st.rows[row].push_back(idx);
      } else {
        st.rows[row].insert(st.rows[row].begin(), idx);
      }
      st.row_of[idx] = row;
      used += w;
    }
    if (!overflow) break;
    // Widen rows by 1/8 (snapped to pitch) and regrow the die.
    fp.row_width_dbu += std::max<std::int64_t>(
        pitch, ((fp.row_width_dbu / 8 + pitch - 1) / pitch) * pitch);
    fp.core.hi.x = fp.core.lo.x + fp.row_width_dbu;
    fp.die.hi.x = fp.core.hi.x + (fp.core.lo.x - fp.die.lo.x);
  }
  for (std::size_t r = 0; r < st.rows.size(); ++r) pack_row(st, r, pitch);

  // Simulated annealing: swap two instances (re-pack their rows).  Each
  // temperature step proposes a fixed batch of candidate swaps and costs
  // every candidate against the placement at the start of the batch; the
  // commits then run in proposal order, and a candidate whose rows an
  // earlier commit of the batch moved is re-costed against the current
  // placement first.  These batch rules, not the cost code, define the
  // layout.
  if (opts.sa_moves_per_instance > 0 && n > 2) {
    Span sa_span("place.sa", "pnr");
    sa_span.arg("instances", static_cast<std::uint64_t>(n));
    Rng rng(opts.seed);

    // Cost tables, built once.  Costed net k (a net with >= 2 pins) has
    // its pins as (instance, LEF pin offset) in pins[pin_begin[k] ..
    // pin_begin[k + 1]); nets_of[i] lists the costed nets of instance i,
    // once per connected pin.  Nets with fewer pins cost 0: left out.
    struct NetPin {
      std::size_t inst;
      Point offset;
    };
    std::vector<NetPin> pins;
    std::vector<std::size_t> pin_begin{0};
    std::vector<std::vector<std::size_t>> nets_of(n);
    for (const NetId net : nl.net_ids()) {
      const Net& nn = nl.net(net);
      if (nn.pins.size() < 2) continue;
      for (const PinRef& p : nn.pins) {
        const std::size_t i = p.inst.index();
        pins.push_back(
            {i, macro_of[i]->pins[static_cast<std::size_t>(p.pin)].offset});
        nets_of[i].push_back(pin_begin.size() - 1);
      }
      pin_begin.push_back(pins.size());
    }

    // Scratch overlay for one candidate: the hypothetical (x, y) of every
    // instance in the two repacked rows, valid where stamp == move.
    struct Hypo {
      std::uint64_t stamp = 0;
      Point at;
    };
    std::vector<Hypo> hypo(n);
    std::uint64_t move = 0;

    struct Proposal {
      std::size_t a = 0, b = 0;
      double accept_u = 0.0;  // Metropolis draw, pre-generated
      double delta = 0.0;
      bool feasible = false;
    };

    // Costs swapping a and b without touching the placement: repack their
    // rows into the overlay from the first changed slot on, then cost the
    // nets of a and of b (a net on both counts twice) before and after.
    // The core origin cancels out of every half perimeter, so positions
    // are core-relative.
    auto evaluate = [&](Proposal& p) {
      ++move;
      auto repack = [&](std::size_t r, std::size_t from) {
        const std::vector<std::size_t>& row = st.rows[r];
        std::int64_t x = st.x_of[row[from]];
        for (std::size_t k = from; k < row.size(); ++k) {
          std::size_t i = row[k];
          i = i == p.a ? p.b : i == p.b ? p.a : i;
          x = ((x + pitch - 1) / pitch) * pitch;
          hypo[i] = {move, {x, static_cast<std::int64_t>(r) *
                                   fp.row_height_dbu}};
          x += st.width[i];
        }
        return x <= fp.row_width_dbu;
      };
      const std::size_t ra = st.row_of[p.a], rb = st.row_of[p.b];
      const std::size_t sa = st.slot_of[p.a], sb = st.slot_of[p.b];
      p.feasible = ra == rb ? repack(ra, std::min(sa, sb))
                            : repack(ra, sa) && repack(rb, sb);
      if (!p.feasible) return;
      std::int64_t before = 0, after = 0;
      for (const std::size_t inst : {p.a, p.b}) {
        for (const std::size_t k : nets_of[inst]) {
          PinBox now, then;
          for (std::size_t q = pin_begin[k]; q < pin_begin[k + 1]; ++q) {
            const NetPin& pin = pins[q];
            const Point at{st.x_of[pin.inst],
                           static_cast<std::int64_t>(st.row_of[pin.inst]) *
                               fp.row_height_dbu};
            const Hypo& h = hypo[pin.inst];
            now.add(at + pin.offset);
            then.add((h.stamp == move ? h.at : at) + pin.offset);
          }
          before += now.hpwl();
          after += then.hpwl();
        }
      }
      p.delta = static_cast<double>(after - before);
    };

    const long total_moves =
        static_cast<long>(opts.sa_moves_per_instance) * static_cast<long>(n);
    double temperature = static_cast<double>(fp.row_width_dbu) / 2;
    const double cooling =
        std::pow(1e-3, 1.0 / std::max<long>(total_moves, 1));
    const int batch = std::max(1, opts.sa_batch);
    std::vector<Proposal> proposals;
    std::vector<char> row_dirty(st.rows.size(), 0);
    for (long done = 0; done < total_moves; done += batch) {
      Span batch_span("place.sa_batch", "pnr");
      const auto k_count = static_cast<std::size_t>(
          std::min<long>(batch, total_moves - done));
      proposals.assign(k_count, Proposal{});
      for (Proposal& p : proposals) {
        p.a = rng.next_below(n);
        p.b = rng.next_below(n);
        p.accept_u = rng.next_double();
      }
      for (Proposal& p : proposals) {
        if (p.a != p.b) evaluate(p);
      }
      std::fill(row_dirty.begin(), row_dirty.end(), 0);
      std::uint64_t accepted = 0, stale = 0;
      for (Proposal& p : proposals) {
        const std::size_t ra = st.row_of[p.a], rb = st.row_of[p.b];
        // An earlier commit of this batch moved a row this proposal was
        // costed against: re-cost it against the current placement.
        if (p.a != p.b && (row_dirty[ra] || row_dirty[rb])) {
          evaluate(p);
          ++stale;
        }
        const bool keep =
            p.a != p.b && p.feasible &&
            (p.delta <= 0 ||
             p.accept_u < std::exp(-p.delta / temperature));
        if (keep) {
          ++accepted;
          std::swap(st.rows[ra][st.slot_of[p.a]],
                    st.rows[rb][st.slot_of[p.b]]);
          std::swap(st.row_of[p.a], st.row_of[p.b]);
          pack_row(st, ra, pitch);
          if (rb != ra) pack_row(st, rb, pitch);
          row_dirty[ra] = 1;
          row_dirty[rb] = 1;
        }
        temperature *= cooling;
      }
      batch_span.arg("proposals", static_cast<std::uint64_t>(k_count));
      batch_span.arg("accepted", accepted);
      Metrics::global().add("pnr.place.sa_batches");
      Metrics::global().add("pnr.place.sa_accepted", accepted);
      Metrics::global().add("pnr.place.sa_stale_reevals", stale);
    }
  }

  DefDesign d;
  d.name = nl.name();
  d.die = fp.die;
  d.row_height_dbu = fp.row_height_dbu;
  d.track_pitch_dbu = pitch;
  for (std::size_t i = 0; i < n; ++i) {
    d.components.push_back(DefComponent{
        nl.instance(insts[i]).name, nl.cell_of(insts[i]).name,
        Point{fp.core.lo.x + st.x_of[i],
              fp.core.lo.y + static_cast<std::int64_t>(st.row_of[i]) *
                                 fp.row_height_dbu}});
  }
  for (NetId net : nl.net_ids()) {
    d.nets.push_back(DefNet{nl.net(net).name, {}, {}});
  }
  return d;
}

std::int64_t placement_hpwl(const Netlist& nl, const LefLibrary& lef,
                            const DefDesign& d) {
  std::int64_t total = 0;
  for (NetId net : nl.net_ids()) {
    const Net& nn = nl.net(net);
    if (nn.pins.size() < 2) continue;
    PinBox box;
    for (const PinRef& p : nn.pins) {
      const CellType& type = nl.cell_of(p.inst);
      box.add(d.pin_position(lef, nl.instance(p.inst).name,
                             type.pins[static_cast<std::size_t>(p.pin)].name));
    }
    total += box.hpwl();
  }
  return total;
}

}  // namespace secflow
