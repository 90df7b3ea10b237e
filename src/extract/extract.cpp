#include "extract/extract.h"

#include <algorithm>
#include <cstdint>
#include <tuple>

#include "base/error.h"
#include "obs/trace.h"

namespace secflow {

double Extraction::total_cap_ff() const {
  double c = 0.0;
  for (const auto& [name, p] : nets) c += p.total_cap_ff();
  return c;
}

namespace {

/// A wire segment of positive length, filed under its track: the line it
/// runs along on its layer, in one orientation.
struct TrackSegment {
  int layer = 0;
  bool vertical = false;
  std::int64_t track = 0;  ///< y of a horizontal wire, x of a vertical one
  std::int64_t lo = 0;     ///< span along the track, lo < hi
  std::int64_t hi = 0;
  std::uint32_t net = 0;
  std::uint32_t wire = 0;  ///< index into the net's wires
};

/// Wire a of net i runs beside wire b of net j (i < j) for `run` DBU at
/// centre-line distance `sep`.  The term keeps run and sep, not its value,
/// so the sum evaluates the all-pairs scan's expression as one statement
/// and a compiler that contracts it into a fused multiply-add does so the
/// same way.
struct CouplingTerm {
  std::uint32_t i = 0, j = 0, a = 0, b = 0;
  std::int64_t run = 0, sep = 0;
};

/// Every segment that can couple, sorted by layer, orientation, track and
/// span start.  Zero-length segments overlap nothing and diagonal ones are
/// parallel to nothing, so neither is filed.
std::vector<TrackSegment> index_segments(const DefDesign& design) {
  std::vector<TrackSegment> index;
  for (std::size_t n = 0; n < design.nets.size(); ++n) {
    const std::vector<Segment>& wires = design.nets[n].wires;
    for (std::size_t w = 0; w < wires.size(); ++w) {
      const Segment& s = wires[w];
      if (s.a == s.b || !(s.horizontal() || s.vertical())) continue;
      const bool vertical = s.vertical();
      const std::int64_t a = vertical ? s.a.y : s.a.x;
      const std::int64_t b = vertical ? s.b.y : s.b.x;
      index.push_back({s.layer, vertical, vertical ? s.a.x : s.a.y,
                       std::min(a, b), std::max(a, b),
                       static_cast<std::uint32_t>(n),
                       static_cast<std::uint32_t>(w)});
    }
  }
  std::sort(index.begin(), index.end(),
            [](const TrackSegment& x, const TrackSegment& y) {
              return std::tie(x.layer, x.vertical, x.track, x.lo) <
                     std::tie(y.layer, y.vertical, y.track, y.lo);
            });
  return index;
}

/// The coupling terms of every pair of segments of different nets on one
/// layer and orientation whose tracks are at most `max_sep` apart, sorted
/// by (i, j, a, b): the order the all-pairs scan met them in, net i's
/// wires outermost.  Each candidate passes the same run and separation
/// test as in that scan.
std::vector<CouplingTerm> coupling_terms(const DefDesign& design,
                                         std::int64_t max_sep) {
  const std::vector<TrackSegment> index = index_segments(design);
  // Track t holds index[starts[t], starts[t + 1]).
  std::vector<std::size_t> starts;
  for (std::size_t k = 0; k < index.size(); ++k) {
    const TrackSegment& s = index[k];
    if (k == 0 || std::tie(s.layer, s.vertical, s.track) !=
                      std::tie(index[k - 1].layer, index[k - 1].vertical,
                               index[k - 1].track)) {
      starts.push_back(k);
    }
  }
  starts.push_back(index.size());

  std::vector<CouplingTerm> terms;
  // Same-track segments are at separation 0 and never couple, so each
  // track is paired only with the later tracks in reach.
  for (std::size_t t = 0; t + 1 < starts.size(); ++t) {
    const TrackSegment& head = index[starts[t]];
    for (std::size_t u = t + 1; u + 1 < starts.size(); ++u) {
      const TrackSegment& other = index[starts[u]];
      // other.track > head.track, so the unsigned difference is exact.
      if (other.layer != head.layer || other.vertical != head.vertical ||
          static_cast<std::uint64_t>(other.track) -
                  static_cast<std::uint64_t>(head.track) >
              static_cast<std::uint64_t>(max_sep)) {
        break;
      }
      // Both tracks are sorted by span start, so a segment of track u
      // that ends before one of track t starts ends before every later
      // one of track t starts too.
      std::size_t first = starts[u];
      for (std::size_t k = starts[t]; k < starts[t + 1]; ++k) {
        const TrackSegment& s = index[k];
        while (first < starts[u + 1] && index[first].hi <= s.lo) ++first;
        for (std::size_t m = first; m < starts[u + 1] && index[m].lo < s.hi;
             ++m) {
          if (index[m].hi <= s.lo || index[m].net == s.net) continue;
          const TrackSegment& p = s.net < index[m].net ? s : index[m];
          const TrackSegment& q = s.net < index[m].net ? index[m] : s;
          std::int64_t sep = 0;
          const std::int64_t run =
              parallel_run_length(design.nets[p.net].wires[p.wire],
                                  design.nets[q.net].wires[q.wire], &sep);
          if (run <= 0 || sep == 0 || sep > max_sep) continue;
          terms.push_back({p.net, q.net, p.wire, q.wire, run, sep});
        }
      }
    }
  }
  std::sort(terms.begin(), terms.end(),
            [](const CouplingTerm& x, const CouplingTerm& y) {
              return std::tie(x.i, x.j, x.a, x.b) <
                     std::tie(y.i, y.j, y.a, y.b);
            });
  return terms;
}

}  // namespace

Extraction extract_parasitics(const DefDesign& design, const Netlist& nl,
                              const ExtractOptions& opts) {
  SECFLOW_CHECK(opts.coupling_max_sep_um >= 0.0 &&
                    opts.coupling_max_sep_um <= kMaxCouplingSepUm,
                "coupling_max_sep_um out of range");
  Span span("extract.parasitics", "extract");
  const Process018& pr = opts.process;
  Extraction ex;

  // Wire geometry.  A net whose name repeats shares the first one's entry.
  const std::size_t n_nets = design.nets.size();
  std::vector<NetParasitics*> par(n_nets);
  std::size_t n_segments = 0;
  for (std::size_t i = 0; i < n_nets; ++i) {
    const DefNet& net = design.nets[i];
    NetParasitics p;
    for (const Segment& s : net.wires) {
      const double len_um = dbu_to_um(s.length());
      const double w_um = dbu_to_um(s.width);
      if (len_um <= 0.0) continue;
      p.wire_cap_ff += len_um * w_um * pr.wire_c_area_ff_per_um2;
      p.wire_cap_ff += 2.0 * len_um * pr.wire_c_fringe_ff_per_um;
      p.res_kohm += pr.wire_r_ohm_per_sq * (len_um / w_um) * 1e-3;
    }
    for (std::size_t v = 0; v < net.vias.size(); ++v) {
      p.wire_cap_ff += pr.via_c_ff;
      p.res_kohm += pr.via_r_ohm * 1e-3;
    }
    par[i] = &ex.nets.emplace(net.name, std::move(p)).first->second;
    n_segments += net.wires.size();
  }

  // Lateral coupling between different nets, same layer.  Each net pair
  // sums its terms in (wire of i, wire of j) order, and the pairs merge in
  // (i, j) order, so every sum and every couplings list comes out as the
  // all-pairs scan left them (DESIGN.md section 7).
  SECFLOW_CHECK(n_nets <= UINT32_MAX && n_segments <= UINT32_MAX,
                "layout too large for the coupling index");
  const std::vector<CouplingTerm> terms =
      coupling_terms(design, um_to_dbu(opts.coupling_max_sep_um));
  // Coupling scales with run length and inversely with separation
  // (normalized to the minimum pitch).
  const double pitch_um = pr.wire_pitch_um;
  std::int64_t coupled_pairs = 0;
  for (std::size_t k = 0; k < terms.size();) {
    const std::uint32_t i = terms[k].i, j = terms[k].j;
    double cc = 0.0;
    for (; k < terms.size() && terms[k].i == i && terms[k].j == j; ++k) {
      cc += pr.wire_c_couple_ff_per_um * dbu_to_um(terms[k].run) *
            (pitch_um / dbu_to_um(terms[k].sep));
    }
    if (cc > 0.0) {
      par[i]->coupling_cap_ff += cc;
      par[i]->couplings.emplace_back(design.nets[j].name, cc);
      par[j]->coupling_cap_ff += cc;
      par[j]->couplings.emplace_back(design.nets[i].name, cc);
      ++coupled_pairs;
    }
  }
  span.arg("nets", static_cast<std::uint64_t>(n_nets));
  span.arg("segments", static_cast<std::uint64_t>(n_segments));
  span.arg("coupled_pairs", coupled_pairs);

  // Sink pin capacitance from the netlist.
  for (NetId nid : nl.net_ids()) {
    const Net& net = nl.net(nid);
    const auto it = ex.nets.find(net.name);
    if (it == ex.nets.end()) continue;
    for (const PinRef& p : net.pins) {
      const CellType& type = nl.cell_of(p.inst);
      const PinDef& pin = type.pins[static_cast<std::size_t>(p.pin)];
      if (pin.dir == PinDir::kInput) it->second.pin_cap_ff += pin.cap_ff;
    }
  }

  // Process variation.
  if (opts.variation_sigma > 0.0) {
    Rng rng(opts.seed);
    // Deterministic order: iterate DEF nets, not the hash map.
    for (const DefNet& net : design.nets) {
      NetParasitics& p = ex.nets[net.name];
      const double factor =
          std::max(0.0, 1.0 + opts.variation_sigma * rng.next_gaussian());
      p.wire_cap_ff *= factor;
      p.coupling_cap_ff *= factor;
      for (auto& [other, c] : p.couplings) c *= factor;
    }
  }
  return ex;
}

std::unordered_map<std::string, double> build_cap_table(
    const Netlist& nl, const Extraction& ex, double internal_wire_ff) {
  std::unordered_map<std::string, double> table;
  table.reserve(nl.n_nets());
  for (NetId nid : nl.net_ids()) {
    const Net& net = nl.net(nid);
    if (const NetParasitics* p = ex.find(net.name)) {
      table.emplace(net.name, p->total_cap_ff());
      continue;
    }
    // Compound-internal net: pins + short local wire.
    double c = internal_wire_ff;
    for (const PinRef& pr : net.pins) {
      const CellType& type = nl.cell_of(pr.inst);
      const PinDef& pin = type.pins[static_cast<std::size_t>(pr.pin)];
      if (pin.dir == PinDir::kInput) c += pin.cap_ff;
    }
    table.emplace(net.name, c);
  }
  return table;
}

int balance_rail_caps(std::unordered_map<std::string, double>& caps,
                      double strength) {
  SECFLOW_CHECK(strength >= 0.0 && strength <= 1.0,
                "balance strength out of range");
  int adjusted = 0;
  for (auto& [name, c] : caps) {
    if (name.size() < 2 || name.substr(name.size() - 2) != "_t") continue;
    const auto f = caps.find(name.substr(0, name.size() - 2) + "_f");
    if (f == caps.end()) continue;
    const double target = std::max(c, f->second);
    c += strength * (target - c);
    f->second += strength * (target - f->second);
    ++adjusted;
  }
  return adjusted;
}

std::unordered_map<std::string, double> rail_mismatch_ff(
    const Extraction& ex) {
  std::unordered_map<std::string, double> out;
  for (const auto& [name, p] : ex.nets) {
    if (name.size() < 2 || name.substr(name.size() - 2) != "_t") continue;
    const std::string base = name.substr(0, name.size() - 2);
    const NetParasitics* f = ex.find(base + "_f");
    if (f == nullptr) continue;
    out.emplace(base, std::abs(p.total_cap_ff() - f->total_cap_ff()));
  }
  return out;
}

}  // namespace secflow
