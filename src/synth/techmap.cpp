#include "synth/techmap.h"

#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "base/error.h"
#include "netlist/netlist_ops.h"

namespace secflow {
namespace {

/// One way to realize a truth table with a library cell: connect cell input
/// pin j to cut leaf perm[j], complemented when (phase_mask >> j) & 1.
struct CellMatch {
  CellTypeId cell;
  std::vector<int> perm;
  unsigned phase_mask = 0;
};

/// Key for match lookup: (arity, truth table).
using TableKey = std::uint64_t;
TableKey table_key(int arity, std::uint64_t table) {
  return (static_cast<std::uint64_t>(arity) << 58) | table;
}

/// Precomputed boolean-matching tables for the allowed library subset.
class MatchLibrary {
 public:
  MatchLibrary(const CellLibrary& lib, const SynthConstraints& cons) {
    std::unordered_set<std::string> allowed(cons.allowed_cells.begin(),
                                            cons.allowed_cells.end());
    for (CellTypeId id : lib.all()) {
      const CellType& c = lib.cell(id);
      if (c.kind != CellKind::kCombinational) continue;
      if (!allowed.empty() && !allowed.contains(c.name) && c.name != "INV" &&
          c.name != "BUF") {
        continue;
      }
      add_cell(id, c);
      if (c.name == "INV") inv_ = id;
      if (c.name == "BUF") buf_ = id;
    }
    SECFLOW_CHECK(inv_.valid(), "library must provide an INV cell");
  }

  const std::vector<CellMatch>* find(int arity, std::uint64_t table) const {
    const auto it = matches_.find(table_key(arity, table));
    return it == matches_.end() ? nullptr : &it->second;
  }

  CellTypeId inv() const { return inv_; }
  CellTypeId buf() const { return buf_; }

 private:
  void add_cell(CellTypeId id, const CellType& c) {
    const int n = c.n_inputs();
    if (n < 1 || n > LogicFn::kMaxInputs) return;
    std::vector<int> perm(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
    // All input permutations x all input phase assignments.
    std::sort(perm.begin(), perm.end());
    do {
      for (unsigned mask = 0; mask < (1u << n); ++mask) {
        const std::uint64_t t = realized_table(c.function, perm, mask);
        auto& slot = matches_[table_key(n, t)];
        // Keep only the cheapest few realizations per table.
        if (slot.size() < 3) {
          slot.push_back(CellMatch{id, perm, mask});
        }
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
  }

  /// Truth table of f(y) with y_j = x_{perm[j]} ^ mask_j, over leaf vars x.
  static std::uint64_t realized_table(const LogicFn& f,
                                      const std::vector<int>& perm,
                                      unsigned mask) {
    const int n = f.n_inputs();
    const unsigned rows = 1u << n;
    std::uint64_t t = 0;
    for (unsigned r = 0; r < rows; ++r) {
      unsigned row = 0;
      for (int j = 0; j < n; ++j) {
        const unsigned bit =
            ((r >> perm[static_cast<std::size_t>(j)]) & 1u) ^
            ((mask >> j) & 1u);
        row |= bit << j;
      }
      if (f.eval(row)) t |= std::uint64_t{1} << r;
    }
    return t;
  }

  std::unordered_map<TableKey, std::vector<CellMatch>> matches_;
  CellTypeId inv_;
  CellTypeId buf_;
};

using Cut = std::vector<std::uint32_t>;  // sorted leaf node ids

/// Merge two cuts; empty result means the union exceeds `k` leaves.
Cut merge_cuts(const Cut& a, const Cut& b, int k) {
  Cut out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  if (static_cast<int>(out.size()) > k) out.clear();
  return out;
}

class Mapper {
 public:
  Mapper(const AigCircuit& circuit, std::shared_ptr<const CellLibrary> library,
         const SynthConstraints& cons)
      : c_(circuit),
        lib_(std::move(library)),
        cons_(cons),
        matcher_(*lib_, cons),
        nl_(circuit.name, lib_) {
    cons_.max_cut_size = std::min(cons_.max_cut_size, LogicFn::kMaxInputs);
  }

  Netlist run() {
    enumerate_cuts();
    dynamic_programming();
    build_netlist();
    return std::move(nl_);
  }

 private:
  // --- cut enumeration ----------------------------------------------------
  void enumerate_cuts() {
    const std::uint32_t n = c_.aig.n_nodes();
    cuts_.resize(n);
    for (std::uint32_t id = 1; id < n; ++id) {
      if (c_.aig.is_input(id)) {
        cuts_[id] = {Cut{id}};
        continue;
      }
      const std::uint32_t n0 = aig_node(c_.aig.fanin0(id));
      const std::uint32_t n1 = aig_node(c_.aig.fanin1(id));
      std::vector<Cut> out;
      for (const Cut& ca : cuts_for_merge(n0)) {
        for (const Cut& cb : cuts_for_merge(n1)) {
          Cut m = merge_cuts(ca, cb, cons_.max_cut_size);
          if (!m.empty()) out.push_back(std::move(m));
        }
      }
      // Dedupe, keep smallest cuts first, cap the list.
      std::sort(out.begin(), out.end(),
                [](const Cut& a, const Cut& b) {
                  return a.size() != b.size() ? a.size() < b.size() : a < b;
                });
      out.erase(std::unique(out.begin(), out.end()), out.end());
      if (static_cast<int>(out.size()) > cons_.max_cuts_per_node) {
        out.resize(static_cast<std::size_t>(cons_.max_cuts_per_node));
      }
      cuts_[id] = std::move(out);
    }
  }

  /// Cuts usable when merging at a fanout: the node's own cuts plus its
  /// trivial cut (so the fanout can stop at this node).
  std::vector<Cut> cuts_for_merge(std::uint32_t node) const {
    if (node == 0) return {};  // constants are folded; never seen here
    std::vector<Cut> cs = cuts_[node];
    if (c_.aig.is_and(node)) cs.push_back(Cut{node});
    return cs;
  }

  /// Truth table of `node` as a function of the (sorted) cut leaves.
  std::uint64_t cut_table(std::uint32_t node, const Cut& cut) const {
    std::unordered_map<std::uint32_t, std::uint64_t> memo;
    const int k = static_cast<int>(cut.size());
    for (int i = 0; i < k; ++i) {
      // Variable pattern for leaf i over 2^k rows.
      std::uint64_t t = 0;
      for (unsigned r = 0; r < (1u << k); ++r) {
        if ((r >> i) & 1u) t |= std::uint64_t{1} << r;
      }
      memo[cut[static_cast<std::size_t>(i)]] = t;
    }
    const std::uint64_t ones =
        k >= 6 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (1u << k)) - 1);
    return cone_table(node, memo, ones);
  }

  std::uint64_t cone_table(
      std::uint32_t node,
      std::unordered_map<std::uint32_t, std::uint64_t>& memo,
      std::uint64_t ones) const {
    const auto it = memo.find(node);
    if (it != memo.end()) return it->second;
    SECFLOW_CHECK(c_.aig.is_and(node), "cut cone reached a non-leaf input");
    const AigLit l0 = c_.aig.fanin0(node);
    const AigLit l1 = c_.aig.fanin1(node);
    std::uint64_t t0 = cone_table(aig_node(l0), memo, ones);
    std::uint64_t t1 = cone_table(aig_node(l1), memo, ones);
    if (aig_complemented(l0)) t0 = ~t0 & ones;
    if (aig_complemented(l1)) t1 = ~t1 & ones;
    const std::uint64_t t = t0 & t1;
    memo.emplace(node, t);
    return t;
  }

  // --- dynamic programming -------------------------------------------------
  struct Choice {
    enum Kind { kNone, kCell, kInvert } kind = kNone;
    // kCell:
    CellMatch match;
    Cut cut;
  };

  void dynamic_programming() {
    const std::uint32_t n = c_.aig.n_nodes();
    const double kInf = 1e30;
    cost_.assign(n, {kInf, kInf});
    choice_.assign(n, {});
    const double inv_area = lib_->cell(matcher_.inv()).area_um2;

    for (std::uint32_t id = 1; id < n; ++id) {
      if (c_.aig.is_input(id)) {
        cost_[id][0] = 0.0;
        cost_[id][1] = inv_area;
        choice_[id][1].kind = Choice::kInvert;
        continue;
      }
      for (const Cut& cut : cuts_[id]) {
        const std::uint64_t t = cut_table(id, cut);
        const int k = static_cast<int>(cut.size());
        const std::uint64_t ones =
            k >= 6 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (1u << k)) - 1);
        double leaf_cost = 0.0;
        for (std::uint32_t leaf : cut) leaf_cost += cost_[leaf][0];
        try_matches(id, 0, cut, t, leaf_cost);
        try_matches(id, 1, cut, ~t & ones, leaf_cost);
      }
      // Phase bridging with inverters (one relaxation round suffices:
      // an INV chain longer than 1 is never cheaper).
      for (int ph = 0; ph < 2; ++ph) {
        const double via_inv = cost_[id][ph ^ 1] + inv_area;
        if (via_inv < cost_[id][ph]) {
          cost_[id][ph] = via_inv;
          choice_[id][ph] = {};
          choice_[id][ph].kind = Choice::kInvert;
        }
      }
      SECFLOW_CHECK(cost_[id][0] < kInf || cost_[id][1] < kInf,
                    "unmappable AIG node with allowed cell set");
    }
  }

  void try_matches(std::uint32_t id, int phase, const Cut& cut,
                   std::uint64_t table, double leaf_cost) {
    const auto* ms = matcher_.find(static_cast<int>(cut.size()), table);
    if (!ms) return;
    for (const CellMatch& m : *ms) {
      // Phase-corrected leaf costs: a complemented leaf pays its negative
      // phase cost instead.
      double cost = lib_->cell(m.cell).area_um2;
      double adj = leaf_cost;
      for (std::size_t j = 0; j < m.perm.size(); ++j) {
        if ((m.phase_mask >> j) & 1u) {
          const std::uint32_t leaf =
              cut[static_cast<std::size_t>(m.perm[j])];
          adj += cost_[leaf][1] - cost_[leaf][0];
        }
      }
      cost += adj;
      if (cost < cost_[id][phase]) {
        cost_[id][phase] = cost;
        choice_[id][phase].kind = Choice::kCell;
        choice_[id][phase].match = m;
        choice_[id][phase].cut = cut;
      }
    }
  }

  // --- cover extraction ----------------------------------------------------
  void build_netlist() {
    // Port and clock names are taken before any internal net is named, so
    // an internal name never claims an output port's name first.
    for (const CircuitBit& b : c_.inputs) reserved_.insert(b.name);
    for (const CircuitBit& b : c_.outputs) reserved_.insert(b.name);
    if (!c_.regs.empty()) reserved_.insert(c_.clock);
    // Ports.
    for (const CircuitBit& in : c_.inputs) {
      const NetId net = nl_.add_net(in.name);
      nl_.add_port(in.name, PinDir::kInput, net);
      net_of_[key(aig_node(in.lit), 0)] = net;
    }
    NetId clock_net;
    if (!c_.regs.empty()) {
      clock_net = nl_.add_net(c_.clock);
      nl_.add_port(c_.clock, PinDir::kInput, clock_net);
    }
    for (const CircuitReg& r : c_.regs) {
      const NetId q = internal_net(r.name + "_q");
      net_of_[key(aig_node(r.q), 0)] = q;
    }
    // Register D inputs and instances.
    for (const CircuitReg& r : c_.regs) {
      const NetId d = materialize(r.next);
      add_flop(nl_, "DFF", instance_name(r.name + "_reg"), d, clock_net,
               net_of_.at(key(aig_node(r.q), 0)));
    }
    // Output ports: each gets its own net; BUF when the driving literal
    // already has a net (so netlists stay writer-safe with named ports).
    for (const CircuitBit& out : c_.outputs) {
      const NetId src = materialize(out.lit);
      const NetId port_net = nl_.add_net(out.name);
      nl_.add_port(out.name, PinDir::kOutput, port_net);
      SECFLOW_CHECK(matcher_.buf().valid(), "library must provide BUF");
      add_gate(nl_, "BUF", instance_name("obuf_" + out.name), {src}, port_net);
    }
  }

  static std::uint64_t key(std::uint32_t node, int phase) {
    return (static_cast<std::uint64_t>(node) << 1) | static_cast<unsigned>(phase);
  }

  /// Net carrying literal `lit` (creating logic as needed).
  NetId materialize(AigLit lit) {
    const std::uint32_t node = aig_node(lit);
    const int phase = aig_complemented(lit) ? 1 : 0;
    if (node == 0) return const_net(phase != 0);
    return node_net(node, phase);
  }

  NetId const_net(bool one) {
    NetId& net = one ? const1_ : const0_;
    if (!net.valid()) {
      const std::string cell = one ? "TIE1" : "TIE0";
      net = internal_net(one ? "const1" : "const0");
      add_gate(nl_, cell, instance_name(one ? "tie1" : "tie0"), {}, net);
    }
    return net;
  }

  NetId node_net(std::uint32_t node, int phase) {
    const auto it = net_of_.find(key(node, phase));
    if (it != net_of_.end()) return it->second;
    // If the opposite phase is already materialized, share its cone
    // through an inverter rather than duplicating logic.
    if (const auto other = net_of_.find(key(node, phase ^ 1));
        other != net_of_.end()) {
      const NetId net = new_net();
      add_gate(nl_, "INV", new_inst("inv"), {other->second}, net);
      net_of_.emplace(key(node, phase), net);
      return net;
    }
    const Choice& ch = choice_[node][phase];
    NetId net;
    if (ch.kind == Choice::kInvert) {
      const NetId src = node_net(node, phase ^ 1);
      net = new_net();
      add_gate(nl_, "INV", new_inst("inv"), {src}, net);
    } else {
      SECFLOW_CHECK(ch.kind == Choice::kCell, "cover reached unmapped node");
      const CellType& cell = lib_->cell(ch.match.cell);
      std::vector<NetId> ins(ch.match.perm.size());
      for (std::size_t j = 0; j < ch.match.perm.size(); ++j) {
        const std::uint32_t leaf =
            ch.cut[static_cast<std::size_t>(ch.match.perm[j])];
        const int leaf_phase = (ch.match.phase_mask >> j) & 1u;
        ins[j] = node_net(leaf, leaf_phase);
      }
      net = new_net();
      add_gate(nl_, cell.name, new_inst("g"), ins, net);
    }
    net_of_.emplace(key(node, phase), net);
    return net;
  }

  NetId new_net() { return internal_net("n" + std::to_string(net_counter_++)); }
  std::string new_inst(const std::string& prefix) {
    return instance_name(prefix + std::to_string(inst_counter_++));
  }

  /// A new internal net named `base`, or `base` with the first free suffix
  /// when a port, the clock or another net holds that name.
  NetId internal_net(const std::string& base) {
    return nl_.add_net(free_name(base, [&](const std::string& n) {
      return reserved_.contains(n) || nl_.find_net(n).valid();
    }));
  }
  /// `base`, or `base` with the first suffix no instance holds.
  std::string instance_name(const std::string& base) const {
    return free_name(base, [&](const std::string& n) {
      return nl_.find_instance(n).valid();
    });
  }
  /// `base`, or `base` with the first suffix _1, _2, ... that `taken` is
  /// false for.
  static std::string free_name(const std::string& base, const auto& taken) {
    std::string name = base;
    for (int k = 1; taken(name); ++k) name = base + "_" + std::to_string(k);
    return name;
  }

  const AigCircuit& c_;
  std::shared_ptr<const CellLibrary> lib_;
  SynthConstraints cons_;
  MatchLibrary matcher_;
  Netlist nl_;
  std::vector<std::vector<Cut>> cuts_;
  std::vector<std::array<double, 2>> cost_;
  std::vector<std::array<Choice, 2>> choice_;
  std::unordered_map<std::uint64_t, NetId> net_of_;
  std::unordered_set<std::string> reserved_;  ///< port and clock names
  NetId const0_, const1_;
  int net_counter_ = 0;
  int inst_counter_ = 0;
};

}  // namespace

Netlist technology_map(const AigCircuit& circuit,
                       std::shared_ptr<const CellLibrary> library,
                       const SynthConstraints& constraints) {
  SECFLOW_CHECK(library != nullptr, "technology_map needs a library");
  return Mapper(circuit, std::move(library), constraints).run();
}

}  // namespace secflow
