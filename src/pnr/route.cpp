#include "pnr/route.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/error.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace secflow {
namespace {

struct Grid {
  std::int64_t pitch = 0;
  std::int64_t x0 = 0, y0 = 0;
  int nx = 0, ny = 0;
  int layers = 3;

  int nodes() const { return layers * nx * ny; }
  int node(int layer, int xi, int yi) const {
    return (layer * ny + yi) * nx + xi;
  }
  int layer_of(int n) const { return n / (nx * ny); }
  int yi_of(int n) const { return (n / nx) % ny; }
  int xi_of(int n) const { return n % nx; }
  Point pos(int n) const {
    return {x0 + static_cast<std::int64_t>(xi_of(n)) * pitch,
            y0 + static_cast<std::int64_t>(yi_of(n)) * pitch};
  }
  bool horizontal(int layer) const { return layer % 2 == 0; }

  int snap_xi(std::int64_t x) const {
    const std::int64_t xi = (x - x0 + pitch / 2) / pitch;
    return static_cast<int>(std::clamp<std::int64_t>(xi, 0, nx - 1));
  }
  int snap_yi(std::int64_t y) const {
    const std::int64_t yi = (y - y0 + pitch / 2) / pitch;
    return static_cast<int>(std::clamp<std::int64_t>(yi, 0, ny - 1));
  }
};

/// Inclusive rectangle of grid columns/rows (all layers) a net's search
/// may touch.  Both the A* expansion and the committed path stay inside
/// the window.
struct Window {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;
};

struct NetTask {
  std::size_t net_index = 0;       // into DefDesign.nets
  std::vector<int> pin_nodes;      // one node per netlist pin (layer 0)
  std::vector<int> distinct_pins;  // deduplicated; usage-counted once
  std::vector<int> path;           // routed non-pin tree nodes
  int bb_x0 = 0, bb_x1 = 0, bb_y0 = 0, bb_y1 = 0;  // pin bounding box
  int escalations = 0;  // reroutes attempted with a grown window
};

/// What a search reads at one grid node, packed so that relaxing an edge
/// touches one record: the pin owner (-1 = none), the negotiated history
/// cost, and the present usage (every net's distinct pins once, plus
/// every node of every committed path).
struct NodeCost {
  int owner = -1;
  int history = 0;
  int usage = 0;
};

/// True when a node of `nodes` is occupied by more than one net.
bool overused(const std::vector<int>& nodes,
              const std::vector<NodeCost>& cost) {
  for (int n : nodes) {
    if (cost[n].usage > 1) return true;
  }
  return false;
}

/// 4-ary min-heap of packed A* keys `(f << 32) | node`, which order
/// exactly as the (f, node) pairs they encode.  Half the depth of a
/// binary heap, and a slot's four children are adjacent in memory.
class QuadHeap {
 public:
  bool empty() const { return keys_.empty(); }
  void clear() { keys_.clear(); }

  /// Add a key without restoring heap order; heapify() must follow
  /// before the next push or pop.
  void append(std::uint64_t key) { keys_.push_back(key); }
  /// Floyd's bottom-up build: O(n) for everything appended.
  void heapify() {
    if (keys_.size() < 2) return;
    for (std::size_t i = (keys_.size() - 2) / 4 + 1; i-- > 0;) {
      sift_down(i, keys_[i]);
    }
  }

  void push(std::uint64_t key) {
    std::size_t i = keys_.size();
    keys_.push_back(key);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (keys_[parent] <= key) break;
      keys_[i] = keys_[parent];
      i = parent;
    }
    keys_[i] = key;
  }

  std::uint64_t pop() {
    const std::uint64_t top = keys_.front();
    const std::uint64_t last = keys_.back();
    keys_.pop_back();
    if (!keys_.empty()) sift_down(0, last);
    return top;
  }

 private:
  /// Place `key` at slot `i` or below, moving smaller children up.
  void sift_down(std::size_t i, std::uint64_t key) {
    std::uint64_t* const k = keys_.data();
    const std::size_t n = keys_.size();
    for (std::size_t c = 4 * i + 1; c < n; c = 4 * i + 1) {
      std::size_t best = c;
      if (c + 4 <= n) {  // all four children: a branch-free tournament
        const std::size_t lo = k[c + 1] < k[c] ? c + 1 : c;
        const std::size_t hi = k[c + 3] < k[c + 2] ? c + 3 : c + 2;
        best = k[hi] < k[lo] ? hi : lo;
      } else {
        for (std::size_t j = c + 1; j < n; ++j) {
          if (k[j] < k[best]) best = j;
        }
      }
      if (key <= k[best]) break;
      k[i] = k[best];
      i = best;
    }
    k[i] = key;
  }

  std::vector<std::uint64_t> keys_;
};

/// Full-grid search scratch (20 bytes per node), never refilled between
/// searches: a slot is valid only while its generation stamp matches the
/// current epoch, so starting a new search or moving to the next net is
/// O(1) and routing with a warm state allocates nothing.  route_design
/// owns one for the whole call and frees it on return.
class RouterSearchState {
 public:
  /// One node's slot in the current search.
  struct Record {
    std::uint32_t stamp = 0;  // equals the search epoch once visited
    int g = 0;                // best known cost from the tree
    int prev = -1;            // predecessor on that path; -1 = tree seed
  };

  explicit RouterSearchState(int n_nodes)
      : records_(static_cast<std::size_t>(n_nodes)),
        tree_mark_(static_cast<std::size_t>(n_nodes), 0),
        pin_mark_(static_cast<std::size_t>(n_nodes), 0) {}

  /// Start a search; returns the stamp its visited records carry.
  std::uint32_t begin_search() {
    if (++search_epoch_ == 0) {  // wrapped: stale stamps could alias
      for (Record& r : records_) r.stamp = 0;
      search_epoch_ = 1;
    }
    heap_.clear();
    return search_epoch_;
  }
  void begin_net() {
    bump(tree_epoch_, tree_mark_);
    bump(pin_epoch_, pin_mark_);
  }

  Record* records() { return records_.data(); }
  QuadHeap& heap() { return heap_; }

  bool in_tree(int n) const { return tree_mark_[n] == tree_epoch_; }
  void add_tree(int n) { tree_mark_[n] = tree_epoch_; }
  bool is_self_pin(int n) const { return pin_mark_[n] == pin_epoch_; }
  void mark_self_pin(int n) { pin_mark_[n] = pin_epoch_; }

  /// Scratch for the nodes a search adds to the tree, reused across nets.
  std::vector<int>& new_nodes() { return new_nodes_; }

 private:
  static void bump(std::uint32_t& epoch, std::vector<std::uint32_t>& mark) {
    if (++epoch == 0) {  // wrapped: stale stamps could alias — hard reset
      std::fill(mark.begin(), mark.end(), 0u);
      epoch = 1;
    }
  }

  std::vector<Record> records_;
  std::vector<std::uint32_t> tree_mark_;
  std::vector<std::uint32_t> pin_mark_;
  std::uint32_t search_epoch_ = 0, tree_epoch_ = 0, pin_epoch_ = 0;
  QuadHeap heap_;
  std::vector<int> new_nodes_;
};

/// A* from the net's current tree (sources, g = 0) to `target`, expanding
/// only nodes inside `win`.  On success fills st.new_nodes() with the
/// found path's nodes that are not yet in the tree (source-to-target
/// order, target included) and returns true.  Reads the shared cost
/// records only at nodes inside the window.
///
/// Every heap key is unique within a search, because a node is re-pushed
/// only with a strictly smaller g.  The pop sequence is therefore fixed by
/// the keys alone, whatever exact priority queue holds them (DESIGN.md
/// §15).
bool astar_connect(const Grid& g, RouterSearchState& st,
                   const std::vector<int>& tree, int target,
                   const Window& win, int via_cost,
                   const std::vector<NodeCost>& cost, int self,
                   int iteration, std::int64_t& expanded) {
  const std::uint32_t epoch = st.begin_search();
  RouterSearchState::Record* const rec = st.records();
  QuadHeap& heap = st.heap();
  const int nx = g.nx;
  const int plane = g.nx * g.ny;
  const int via_step = via_cost + 1;
  struct Coords {
    int layer, yi, xi;
  };
  const auto coords = [&](int n) {
    const int layer = n / plane;
    const int yi = (n - layer * plane) / nx;
    return Coords{layer, yi, n - layer * plane - yi * nx};
  };
  const Coords t = coords(target);

  // Admissible (and consistent) cost-to-go lower bound on the via-cost
  // grid: every planar step enters a node costing >= 1, reaching the
  // target's layer takes >= |dL| via edges costing >= via_cost + 1 each,
  // and a same-layer detour through another layer (needed when movement
  // in the required direction is impossible on this layer) costs two more
  // via edges.  See DESIGN.md §15 for the admissibility argument.
  const auto h = [&](int layer, int yi, int xi) {
    const int dx = std::abs(xi - t.xi);
    const int dy = std::abs(yi - t.yi);
    int est = dx + dy + std::abs(layer - t.layer) * via_step;
    if (layer == t.layer && (g.horizontal(layer) ? dy > 0 : dx > 0)) {
      est += 2 * via_step;
    }
    return est;
  };
  const auto key = [](int f, int n) {
    return static_cast<std::uint64_t>(f) << 32 | static_cast<std::uint32_t>(n);
  };

  for (const int s : tree) {
    const Coords c = coords(s);
    rec[s] = {epoch, 0, -1};
    heap.append(key(h(c.layer, c.yi, c.xi), s));
  }
  heap.heapify();

  const int congestion_penalty = 8 * iteration + 8;
  std::int64_t pops = 0;
  while (!heap.empty()) {
    const std::uint64_t top = heap.pop();
    const int u = static_cast<int>(top & 0xffffffffu);
    const auto [layer, yi, xi] = coords(u);
    const int d = rec[u].g;
    if (static_cast<int>(top >> 32) != d + h(layer, yi, xi)) continue;  // stale
    ++pops;
    if (u == target) {
      // Walk the prev chain back to the tree, collecting the new nodes.
      auto& fresh = st.new_nodes();
      fresh.clear();
      for (int n = target; n != -1 && !st.in_tree(n); n = rec[n].prev) {
        fresh.push_back(n);
      }
      std::reverse(fresh.begin(), fresh.end());
      expanded += pops;
      return true;
    }
    const auto relax = [&](int v, int v_layer, int v_yi, int v_xi,
                           int extra) {
      // Another net's pin node is a hard obstacle: its owner can never
      // move it, so a conflict there is unresolvable by negotiation.
      // Pins exist only on layer 0 and every layer-0 node has a pin-free
      // via neighbor above, so blocking them cannot trap a net.
      const NodeCost& c = cost[v];
      if (c.owner >= 0 && c.owner != self) return;
      int nd = d + 1 + c.history + extra;
      if (c.usage > 0) {  // only a used node can charge foreign usage
        const int foreign = c.usage - (st.is_self_pin(v) ? 1 : 0);
        if (foreign > 0) nd += foreign * congestion_penalty;
      }
      RouterSearchState::Record& r = rec[v];
      if (r.stamp != epoch || nd < r.g) {
        r = {epoch, nd, u};
        heap.push(key(nd + h(v_layer, v_yi, v_xi), v));
      }
    };
    if (g.horizontal(layer)) {
      if (xi > win.x0) relax(u - 1, layer, yi, xi - 1, 0);
      if (xi < win.x1) relax(u + 1, layer, yi, xi + 1, 0);
    } else {
      if (yi > win.y0) relax(u - nx, layer, yi - 1, xi, 0);
      if (yi < win.y1) relax(u + nx, layer, yi + 1, xi, 0);
    }
    if (layer > 0) relax(u - plane, layer - 1, yi, xi, via_cost);
    if (layer + 1 < g.layers) relax(u + plane, layer + 1, yi, xi, via_cost);
  }
  expanded += pops;
  return false;
}

/// Outcome of routing one net inside its window, committed by the caller
/// (at once in the serial head, after every search in the snapshot tail).
struct PassResult {
  bool ok = false;
  std::vector<int> path;  // new tree nodes beyond the pins
  std::int64_t expanded = 0;
};

/// Route every sink of `t` inside `win` against the current cost records.
/// Pure with respect to shared state: reads only nodes inside the window,
/// writes nothing global.
PassResult route_net_pass(const Grid& g, RouterSearchState& st,
                          const NetTask& t, const Window& win, int via_cost,
                          const std::vector<NodeCost>& cost, int iteration) {
  st.begin_net();
  for (int n : t.distinct_pins) st.mark_self_pin(n);

  PassResult r;
  std::vector<int> tree = {t.pin_nodes.front()};
  st.add_tree(tree.front());
  for (std::size_t pi = 1; pi < t.pin_nodes.size(); ++pi) {
    const int target = t.pin_nodes[pi];
    if (st.in_tree(target)) continue;
    if (!astar_connect(g, st, tree, target, win, via_cost, cost,
                       static_cast<int>(t.net_index), iteration,
                       r.expanded)) {
      return r;  // window too small (cannot happen once it spans the grid)
    }
    for (int n : st.new_nodes()) {
      st.add_tree(n);
      tree.push_back(n);
      // The committed path carries only non-pin nodes: pin nodes are
      // usage-counted once at init and never ripped, so a pin reached or
      // crossed by the search must not be counted a second time.
      if (!st.is_self_pin(n)) r.path.push_back(n);
    }
  }
  r.ok = true;
  return r;
}

/// Convert a net's tree (pins + routed nodes) into merged DEF segments and
/// vias.  Membership is an epoch-stamped flat array instead of a per-net
/// hash set; a planar segment is emitted once per maximal run (at the run
/// start), a via once per stacked pair.
class GeometryEmitter {
 public:
  explicit GeometryEmitter(const Grid& g) : g_(g) {
    mark_.assign(static_cast<std::size_t>(g.nodes()), 0);
  }

  void emit(const NetTask& t, std::int64_t width, DefNet& net) {
    if (++epoch_ == 0) {
      std::fill(mark_.begin(), mark_.end(), 0u);
      epoch_ = 1;
    }
    nodes_.clear();
    const auto add = [&](int n) {
      if (mark_[n] != epoch_) {
        mark_[n] = epoch_;
        nodes_.push_back(n);
      }
    };
    for (int n : t.pin_nodes) add(n);
    for (int n : t.path) add(n);

    const auto in_tree = [&](int n) { return mark_[n] == epoch_; };
    for (const int u : nodes_) {
      const int layer = g_.layer_of(u);
      const int step = g_.horizontal(layer) ? 1 : g_.nx;
      const auto has_planar = [&](int n, int delta) {
        return g_.horizontal(layer)
                   ? (delta > 0 ? g_.xi_of(n) + 1 < g_.nx : g_.xi_of(n) > 0)
                   : (delta > 0 ? g_.yi_of(n) + 1 < g_.ny : g_.yi_of(n) > 0);
      };
      // Emit each maximal planar run once, from its low end.
      if (!(has_planar(u, -1) && in_tree(u - step))) {
        int end = u;
        while (has_planar(end, +1) && in_tree(end + step)) end += step;
        if (end != u) {
          net.wires.push_back(Segment{g_.pos(u), g_.pos(end), layer, width});
        }
      }
      if (layer + 1 < g_.layers && in_tree(u + g_.nx * g_.ny)) {
        net.vias.push_back(DefVia{g_.pos(u), layer, layer + 1});
      }
    }
  }

 private:
  const Grid& g_;
  std::vector<std::uint32_t> mark_;
  std::vector<int> nodes_;
  std::uint32_t epoch_ = 0;
};

/// The deterministic window-escalation schedule: a net rerouted `c` times
/// while still congested searches inside its pin bounding box expanded by
/// margin(c) tracks; margin(0) = window_margin, then x window_escalation
/// per step, saturating at the full grid.
Window window_of(const Grid& g, const NetTask& t, const RouteOptions& opts,
                 bool* full_grid) {
  std::int64_t m = opts.window_margin;
  for (int c = 0; c < t.escalations; ++c) {
    m = std::max<std::int64_t>(m, 1) * opts.window_escalation;
    if (m >= std::max(g.nx, g.ny)) break;  // saturated
  }
  Window w;
  w.x0 = static_cast<int>(std::max<std::int64_t>(0, t.bb_x0 - m));
  w.y0 = static_cast<int>(std::max<std::int64_t>(0, t.bb_y0 - m));
  w.x1 = static_cast<int>(std::min<std::int64_t>(g.nx - 1, t.bb_x1 + m));
  w.y1 = static_cast<int>(std::min<std::int64_t>(g.ny - 1, t.bb_y1 + m));
  if (full_grid != nullptr) {
    *full_grid = w.x0 == 0 && w.y0 == 0 && w.x1 == g.nx - 1 &&
                 w.y1 == g.ny - 1;
  }
  return w;
}

/// Pending nets an incremental iteration routes one at a time, each
/// committed before the next search starts; the nets after them share one
/// snapshot (DESIGN.md §15).
constexpr std::size_t kSerialHead = 32;

/// The message of a run that did not converge: how far negotiation got,
/// the (up to five) nets on the most shared nodes, and the DBU bounding
/// box of the shared nodes.
std::string congestion_report(const Grid& g, const std::vector<NodeCost>& cost,
                              const std::vector<NetTask>& tasks,
                              const DefDesign& placed, int iterations) {
  constexpr std::size_t kMaxNamed = 5;
  int shared = 0;
  Point lo, hi;
  for (int n = 0; n < g.nodes(); ++n) {
    if (cost[n].usage <= 1) continue;
    const Point p = g.pos(n);
    lo = shared == 0 ? p : Point{std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = shared == 0 ? p : Point{std::max(hi.x, p.x), std::max(hi.y, p.y)};
    ++shared;
  }
  std::string msg = "routing failed to converge after " +
                    std::to_string(iterations) + " iteration(s): " +
                    std::to_string(shared) + " nodes still shared";
  if (shared == 0) return msg;

  std::vector<std::pair<int, const NetTask*>> congested;  // (shared, net)
  for (const NetTask& t : tasks) {
    int on_shared = 0;
    for (int n : t.distinct_pins) on_shared += cost[n].usage > 1 ? 1 : 0;
    for (int n : t.path) on_shared += cost[n].usage > 1 ? 1 : 0;
    if (on_shared > 0) congested.emplace_back(on_shared, &t);
  }
  std::stable_sort(congested.begin(), congested.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  msg += "; congested nets: ";
  for (std::size_t i = 0; i < std::min(kMaxNamed, congested.size()); ++i) {
    msg += (i > 0 ? ", " : "") + placed.nets[congested[i].second->net_index].name +
           " (" + std::to_string(congested[i].first) + " shared)";
  }
  if (congested.size() > kMaxNamed) {
    msg += " and " + std::to_string(congested.size() - kMaxNamed) + " more";
  }
  return msg + "; shared nodes within (" + std::to_string(lo.x) + ", " +
         std::to_string(lo.y) + ")-(" + std::to_string(hi.x) + ", " +
         std::to_string(hi.y) + ") DBU";
}

}  // namespace

RouteStats route_design(const Netlist& nl, const LefLibrary& lef,
                        DefDesign& placed, const RouteOptions& opts) {
  Grid g;
  g.pitch = lef.track_pitch_dbu();
  g.x0 = placed.die.lo.x;
  g.y0 = placed.die.lo.y;
  g.nx = static_cast<int>(placed.die.width() / g.pitch) + 1;
  g.ny = static_cast<int>(placed.die.height() / g.pitch) + 1;
  g.layers = static_cast<int>(lef.layers().size());
  const std::int64_t width = lef.wire_width_dbu();

  std::unordered_set<std::string> skip(opts.skip_nets.begin(),
                                       opts.skip_nets.end());

  // Pin landing nodes, with conflict-avoiding spiral search on M1.  The
  // radius escalates deterministically until a free node is found or the
  // whole grid has been scanned.  The owners live on after landing: the
  // search treats foreign-owned pin nodes as hard obstacles.
  std::vector<NodeCost> cost(static_cast<std::size_t>(g.nodes()));
  std::vector<NetTask> tasks;
  std::unordered_map<std::string, std::size_t> net_index;
  for (std::size_t i = 0; i < placed.nets.size(); ++i) {
    net_index.emplace(placed.nets[i].name, i);
    placed.nets[i].wires.clear();
    placed.nets[i].vias.clear();
  }

  for (NetId nid : nl.net_ids()) {
    const Net& net = nl.net(nid);
    if (net.pins.size() < 2) continue;
    if (skip.contains(net.name)) continue;
    NetTask task;
    task.net_index = net_index.at(net.name);
    const int self = static_cast<int>(task.net_index);
    for (const PinRef& p : net.pins) {
      const CellType& type = nl.cell_of(p.inst);
      const Point pos = placed.pin_position(
          lef, nl.instance(p.inst).name,
          type.pins[static_cast<std::size_t>(p.pin)].name);
      const int base_xi = g.snap_xi(pos.x);
      const int base_yi = g.snap_yi(pos.y);
      int found = -1;
      int occupied = 0;
      const int r_max = std::max(g.nx, g.ny);
      for (int r = 0; r <= r_max && found < 0; ++r) {
        for (int dx = -r; dx <= r && found < 0; ++dx) {
          for (int dy = -r; dy <= r && found < 0; ++dy) {
            if (std::max(std::abs(dx), std::abs(dy)) != r) continue;
            const int xi = base_xi + dx, yi = base_yi + dy;
            if (xi < 0 || xi >= g.nx || yi < 0 || yi >= g.ny) continue;
            const int node = g.node(0, xi, yi);
            if (cost[node].owner == -1 || cost[node].owner == self) {
              found = node;
            } else {
              ++occupied;
            }
          }
        }
      }
      SECFLOW_CHECK(
          found >= 0,
          "no free pin landing for net " + net.name + ": every M1 node of "
          "the " + std::to_string(g.nx) + "x" + std::to_string(g.ny) +
          " grid near (" + std::to_string(pos.x) + ", " +
          std::to_string(pos.y) + ") is owned by another net (" +
          std::to_string(occupied) + " occupied nodes scanned)");
      cost[found].owner = self;
      task.pin_nodes.push_back(found);
    }
    task.distinct_pins = task.pin_nodes;
    std::sort(task.distinct_pins.begin(), task.distinct_pins.end());
    task.distinct_pins.erase(
        std::unique(task.distinct_pins.begin(), task.distinct_pins.end()),
        task.distinct_pins.end());
    task.bb_x0 = g.nx - 1;
    task.bb_y0 = g.ny - 1;
    task.bb_x1 = task.bb_y1 = 0;
    for (int n : task.distinct_pins) {
      task.bb_x0 = std::min(task.bb_x0, g.xi_of(n));
      task.bb_x1 = std::max(task.bb_x1, g.xi_of(n));
      task.bb_y0 = std::min(task.bb_y0, g.yi_of(n));
      task.bb_y1 = std::max(task.bb_y1, g.yi_of(n));
    }
    tasks.push_back(std::move(task));
  }

  // Incrementally maintained congestion state: usage counts every net's
  // distinct pin nodes once, plus every node of every committed path.
  for (const NetTask& t : tasks) {
    for (int n : t.distinct_pins) ++cost[n].usage;
  }

  RouterSearchState st(g.nodes());
  RouteStats stats;
  bool converged = tasks.empty();
  // Pending nets for the current iteration (all of them initially; after
  // an iteration only the nets overlapping shared nodes — unless
  // incremental is off, which restores the reroute-everything loop).
  std::vector<std::size_t> pending(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) pending[i] = i;
  std::vector<char> was_pending(tasks.size(), 0);

  for (int iter = 0; iter < opts.max_iterations && !converged; ++iter) {
    Span iter_span("route.iteration", "pnr");
    iter_span.arg("iter", iter);
    iter_span.arg("pending", static_cast<int>(pending.size()));
    stats.iterations = iter + 1;
    if (iter > 0) {
      stats.nets_ripped += static_cast<std::int64_t>(pending.size());
      // Rotate the reroute order so no net permanently wins ties.
      std::rotate(pending.begin(), pending.begin() + 1 + (pending.size() / 3),
                  pending.end());
    }

    // Window per pending net under the escalation schedule.
    std::vector<Window> windows(pending.size());
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const NetTask& t = tasks[pending[i]];
      bool full_grid = false;
      windows[i] = window_of(g, t, opts, &full_grid);
      if (t.escalations > 0) ++stats.window_escalations;
      if (full_grid) ++stats.full_grid_searches;
    }

    const auto rip = [&](NetTask& t) {
      for (int n : t.path) --cost[n].usage;
      t.path.clear();
    };
    const auto commit = [&](PassResult& r, NetTask& t) {
      SECFLOW_CHECK(r.ok, "maze router: unreachable pin on net " +
                              placed.nets[t.net_index].name);
      stats.expanded_nodes += r.expanded;
      for (int n : r.path) ++cost[n].usage;
      t.path = std::move(r.path);
    };
    const auto route_one = [&](std::size_t pi) {
      return route_net_pass(g, st, tasks[pending[pi]], windows[pi],
                            opts.via_cost, cost, iter);
    };
    if (opts.incremental) {
      // Rip every pending net before any search starts, so no pending
      // net's search sees another pending net's old path.  The first
      // kSerialHead pending nets then route one at a time, each committed
      // before the next search; the tail routes against the one snapshot
      // the head leaves and commits after all its searches.  The geometry
      // this converges to is straight and loosely packed, a property the
      // differential decomposition's rail balance depends on (DESIGN.md
      // §15).
      for (std::size_t ti : pending) rip(tasks[ti]);

      const std::size_t head = std::min(kSerialHead, pending.size());
      {
        Span head_span("route.serial_head", "pnr");
        head_span.arg("nets", static_cast<int>(head));
        for (std::size_t pi = 0; pi < head; ++pi) {
          PassResult r = route_one(pi);
          commit(r, tasks[pending[pi]]);
        }
      }
      if (head < pending.size()) {
        // Every tail net routes against the same snapshot (all searches
        // first, commits after), so the tail's order within itself does
        // not change what any of its searches sees.
        Span tail_span("route.serial_tail", "pnr");
        tail_span.arg("nets", static_cast<int>(pending.size() - head));
        std::vector<PassResult> results;
        results.reserve(pending.size() - head);
        for (std::size_t pi = head; pi < pending.size(); ++pi) {
          results.push_back(route_one(pi));
        }
        for (std::size_t pi = head; pi < pending.size(); ++pi) {
          commit(results[pi - head], tasks[pending[pi]]);
        }
      }
    } else {
      // Non-incremental mode reroutes every net each iteration with
      // one-at-a-time negotiation: each net is ripped just before its
      // search and committed right after, so it routes against everyone
      // else's current path.  This is the reference loop the bench
      // compares the incremental router to.
      Span span("route.serial_reroute", "pnr");
      span.arg("nets", static_cast<int>(pending.size()));
      for (std::size_t pi = 0; pi < pending.size(); ++pi) {
        NetTask& t = tasks[pending[pi]];
        rip(t);
        PassResult r = route_one(pi);
        commit(r, t);
      }
    }

    // Sharing check: one linear pass over the usage array (a node is
    // shared when more than one net occupies it; pins are unique per net
    // by construction, so usage > 1 always means a genuine conflict).
    int shared = 0;
    for (NodeCost& c : cost) {
      if (c.usage > 1) {
        ++shared;
        c.history += 1 + iter / 2;
      }
    }
    converged = shared == 0;

    // Next iteration's pending set: the nets touching a shared node (or
    // everyone when incremental is off).  A net that was just rerouted
    // and is still congested escalates its window.
    if (!converged) {
      std::fill(was_pending.begin(), was_pending.end(), 0);
      for (std::size_t ti : pending) was_pending[ti] = 1;
      pending.clear();
      for (std::size_t ti = 0; ti < tasks.size(); ++ti) {
        NetTask& t = tasks[ti];
        const bool congested =
            overused(t.distinct_pins, cost) || overused(t.path, cost);
        if (congested && was_pending[ti]) ++t.escalations;
        if (congested || !opts.incremental) pending.push_back(ti);
      }
    }

    iter_span.arg("shared_nodes", shared);
    Metrics::global().add("pnr.route.iterations");
    Metrics::global().add("pnr.route.shared_nodes",
                          static_cast<std::uint64_t>(shared));
    SECFLOW_LOG_DEBUG("pnr", "route iteration", LogField("iter", iter),
                      LogField("shared_nodes", shared),
                      LogField("pending", static_cast<int>(pending.size())));
  }
  if (!converged) {
    throw Error(congestion_report(g, cost, tasks, placed, stats.iterations));
  }

  // Emit geometry.
  GeometryEmitter emitter(g);
  for (const NetTask& t : tasks) {
    DefNet& net = placed.nets[t.net_index];
    emitter.emit(t, width, net);
    stats.wirelength_dbu += net.total_wirelength();
    stats.vias += static_cast<int>(net.vias.size());
    ++stats.nets_routed;
  }
  Metrics::global().add("pnr.route.nets_routed",
                        static_cast<std::uint64_t>(stats.nets_routed));
  Metrics::global().add("pnr.route.expanded_nodes",
                        static_cast<std::uint64_t>(stats.expanded_nodes));
  Metrics::global().add("pnr.route.window_escalations",
                        static_cast<std::uint64_t>(stats.window_escalations));
  Metrics::global().add("pnr.route.ripped_nets",
                        static_cast<std::uint64_t>(stats.nets_ripped));
  return stats;
}

RouteStats route_design_quick(const Netlist& nl, const LefLibrary& lef,
                              DefDesign& placed) {
  RouteStats stats;
  const std::int64_t width = lef.wire_width_dbu();
  std::unordered_map<std::string, std::size_t> net_index;
  for (std::size_t i = 0; i < placed.nets.size(); ++i) {
    net_index.emplace(placed.nets[i].name, i);
  }
  for (NetId nid : nl.net_ids()) {
    const Net& net = nl.net(nid);
    if (net.pins.size() < 2) continue;
    DefNet& dnet = placed.nets[net_index.at(net.name)];
    Point prev;
    bool first = true;
    for (const PinRef& p : net.pins) {
      const CellType& type = nl.cell_of(p.inst);
      const Point pos = placed.pin_position(
          lef, nl.instance(p.inst).name,
          type.pins[static_cast<std::size_t>(p.pin)].name);
      if (!first && pos != prev) {
        // L-route: horizontal on M1, vertical on M2; vias at both ends of
        // the vertical so consecutive L's (which restart on M1) connect.
        const Point corner{pos.x, prev.y};
        if (corner != prev) {
          dnet.wires.push_back(Segment{prev, corner, 0, width});
        }
        if (corner != pos) {
          dnet.wires.push_back(Segment{corner, pos, 1, width});
          dnet.vias.push_back(DefVia{corner, 0, 1});
          dnet.vias.push_back(DefVia{pos, 0, 1});
        }
      }
      prev = pos;
      first = false;
    }
    stats.wirelength_dbu += dnet.total_wirelength();
    stats.vias += static_cast<int>(dnet.vias.size());
    ++stats.nets_routed;
  }
  stats.iterations = 1;
  return stats;
}

}  // namespace secflow
