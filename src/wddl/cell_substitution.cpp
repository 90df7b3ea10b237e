#include "wddl/cell_substitution.h"

#include <functional>

#include "base/error.h"
#include "netlist/netlist_ops.h"

namespace secflow {

std::string rail_name(const std::string& net, bool false_rail) {
  return net + (false_rail ? "_f" : "_t");
}

namespace {

/// (root net, accumulated inversion parity) for a net whose driver may be a
/// chain of inverters/buffers.
struct RootRef {
  NetId root;
  bool inverted = false;
};

class Substituter {
 public:
  Substituter(const Netlist& rtl, WddlLibrary& wlib)
      : rtl_(rtl), wlib_(wlib) {}

  SubstitutionResult run() {
    rtl_.validate();
    find_clock();
    resolve_roots();

    Netlist fat(rtl_.name(), wlib_.fat_library());
    fat_ = &fat;

    // Nets: every root net and every output-port net exists in the fat
    // netlist under its original name.
    for (NetId id : rtl_.net_ids()) {
      if (is_root_[id.index()]) fat.add_net(rtl_.net(id).name);
    }

    // Ports.
    for (PortId pid : rtl_.port_ids()) {
      const Port& p = rtl_.port(pid);
      if (p.dir == PinDir::kInput) {
        fat.add_port(p.name, PinDir::kInput, fat.find_net(rtl_.net(p.net).name));
        continue;
      }
      const RootRef r = root_of(p.net);
      NetId pnet = fat.find_net(rtl_.net(p.net).name);
      if (!pnet.valid()) pnet = fat.add_net(rtl_.net(p.net).name);
      if (p.net != r.root || r.inverted) {
        // Materialize the absorbed inversion/buffering at the boundary.
        const WddlCompound& buf = wlib_.comb_compound(
            r.inverted ? LogicFn::inverter() : LogicFn::identity());
        const InstId bi =
            fat.add_instance("pbuf_" + p.name, buf.fat_cell);
        fat.connect(bi, 0, fat.find_net(rtl_.net(r.root).name));
        fat.connect(bi, 1, pnet);
        ++stats_.port_buffers_added;
      }
      fat.add_port(p.name, PinDir::kOutput, pnet);
    }

    // Instances.
    for (InstId iid : rtl_.instance_ids()) {
      const Instance& in = rtl_.instance(iid);
      const CellType& type = rtl_.cell_of(iid);
      switch (type.kind) {
        case CellKind::kCombinational: {
          if (type.function == LogicFn::inverter()) {
            ++stats_.inverters_removed;
            continue;
          }
          if (type.function == LogicFn::identity()) {
            ++stats_.buffers_removed;
            continue;
          }
          substitute_gate(fat, iid, in, type);
          ++stats_.gates_substituted;
          break;
        }
        case CellKind::kFlop: {
          substitute_flop(fat, iid, in, type);
          ++stats_.flops_substituted;
          break;
        }
        case CellKind::kTie: {
          const WddlCompound& c = wlib_.tie_compound(type.function.eval(0));
          const InstId fi = fat.add_instance(in.name, c.fat_cell);
          fat.connect(fi, 0, fat_net(in.conns[0]));
          ++stats_.ties_substituted;
          break;
        }
      }
    }

    fat.validate();
    return SubstitutionResult{std::move(fat), stats_};
  }

 private:
  void find_clock() {
    clock_ = rtl_.clock_net();
    if (clock_.valid()) {
      // The clock must not feed data pins: WDDL keeps it single-ended.
      for (const PinRef& p : rtl_.net(clock_).pins) {
        const CellType& type = rtl_.cell_of(p.inst);
        SECFLOW_CHECK(type.kind == CellKind::kFlop && p.pin == type.ck_pin(),
                      "clock net drives data logic; unsupported in WDDL");
      }
    }
  }

  void resolve_roots() {
    is_root_.assign(rtl_.n_nets(), false);
    roots_.assign(rtl_.n_nets(), RootRef{});
    for (NetId id : rtl_.net_ids()) {
      const auto drv = rtl_.driver(id);
      bool root = true;
      if (drv) {
        const CellType& type = rtl_.cell_of(drv->inst);
        if (type.kind == CellKind::kCombinational &&
            (type.function == LogicFn::inverter() ||
             type.function == LogicFn::identity())) {
          root = false;
        }
      }
      is_root_[id.index()] = root;
    }
  }

  RootRef root_of(NetId id) {
    if (is_root_[id.index()]) return RootRef{id, false};
    if (roots_[id.index()].root.valid()) return roots_[id.index()];
    const auto drv = rtl_.driver(id);
    SECFLOW_CHECK(drv.has_value(), "undriven non-root net");
    const Instance& in = rtl_.instance(drv->inst);
    const CellType& type = rtl_.cell_of(drv->inst);
    const NetId src = in.conns[static_cast<std::size_t>(type.input_pins()[0])];
    RootRef r = root_of(src);
    if (type.function == LogicFn::inverter()) r.inverted = !r.inverted;
    roots_[id.index()] = r;
    return r;
  }

  NetId fat_net(NetId rtl_net) {
    // Valid only for root nets (callers resolve first).
    return fat_net_by_name(rtl_.net(rtl_net).name);
  }

  NetId fat_net_by_name(const std::string& name) {
    const NetId id = fat_->find_net(name);
    SECFLOW_CHECK(id.valid(), "internal: fat net missing: " + name);
    return id;
  }

  void substitute_gate(Netlist& fat, InstId /*iid*/, const Instance& in,
                       const CellType& type) {
    fat_ = &fat;
    unsigned mask = 0;
    std::vector<NetId> fat_inputs;
    int bit = 0;
    for (int pin : type.input_pins()) {
      const RootRef r = root_of(in.conns[static_cast<std::size_t>(pin)]);
      SECFLOW_CHECK(r.root != clock_, "clock reaches a data input");
      if (r.inverted) mask |= 1u << bit;
      fat_inputs.push_back(fat.find_net(rtl_.net(r.root).name));
      ++bit;
    }
    const WddlCompound& c = wlib_.compound_for_cell(type, mask);
    const InstId fi = fat.add_instance(in.name, c.fat_cell);
    const CellType& fat_cell = fat.library().cell(c.fat_cell);
    const auto in_pins = fat_cell.input_pins();
    for (std::size_t i = 0; i < fat_inputs.size(); ++i) {
      fat.connect(fi, in_pins[i], fat_inputs[i]);
    }
    const NetId out =
        in.conns[static_cast<std::size_t>(type.output_pin())];
    if (out.valid()) fat.connect(fi, fat_cell.output_pin(), fat_net(out));
  }

  void substitute_flop(Netlist& fat, InstId /*iid*/, const Instance& in,
                       const CellType& type) {
    fat_ = &fat;
    const RootRef d = root_of(in.conns[static_cast<std::size_t>(type.d_pin())]);
    SECFLOW_CHECK(d.root != clock_, "clock reaches a data input");
    const WddlCompound& c = wlib_.flop_compound(d.inverted);
    const InstId fi = fat.add_instance(in.name, c.fat_cell);
    const CellType& fat_cell = fat.library().cell(c.fat_cell);
    fat.connect(fi, fat_cell.pin_index("D"),
                fat.find_net(rtl_.net(d.root).name));
    fat.connect(fi, fat_cell.pin_index("CK"),
                fat.find_net(rtl_.net(clock_).name));
    const NetId q = in.conns[static_cast<std::size_t>(type.output_pin())];
    if (q.valid()) fat.connect(fi, fat_cell.pin_index("Q"), fat_net(q));
  }

  const Netlist& rtl_;
  WddlLibrary& wlib_;
  Netlist* fat_ = nullptr;
  NetId clock_;
  std::vector<bool> is_root_;
  std::vector<RootRef> roots_;
  SubstitutionStats stats_;
};

// --- differential expansion --------------------------------------------------

class Expander {
 public:
  Expander(const Netlist& fat, const WddlLibrary& wlib)
      : fat_(fat), wlib_(wlib) {}

  Netlist run() {
    Netlist diff(fat_.name() + "_diff", wlib_.base_library());
    diff_ = &diff;
    find_clock();

    // Rails for every data net; the clock stays single.
    for (NetId id : fat_.net_ids()) {
      const std::string& name = fat_.net(id).name;
      if (id == clock_) {
        diff.add_net(name);
      } else {
        diff.add_net(rail_name(name, false));
        diff.add_net(rail_name(name, true));
      }
    }
    const bool needs_clock = clock_.valid() || design_has_ties();
    if (!clock_.valid() && needs_clock) {
      clock_name_ = "clk";
      diff.add_net(clock_name_);
      diff.add_port(clock_name_, PinDir::kInput, diff.find_net(clock_name_));
    }

    // Ports.
    for (PortId pid : fat_.port_ids()) {
      const Port& p = fat_.port(pid);
      if (p.net == clock_) {
        diff.add_port(p.name, p.dir, diff.find_net(fat_.net(p.net).name));
        continue;
      }
      const std::string& net = fat_.net(p.net).name;
      diff.add_port(rail_name(p.name, false), p.dir,
                    diff.find_net(rail_name(net, false)));
      diff.add_port(rail_name(p.name, true), p.dir,
                    diff.find_net(rail_name(net, true)));
    }

    for (InstId iid : fat_.instance_ids()) expand_instance(iid);

    diff.validate();
    return diff;
  }

 private:
  void find_clock() {
    clock_ = fat_.clock_net();
    if (clock_.valid()) clock_name_ = fat_.net(clock_).name;
  }

  bool design_has_ties() const {
    for (InstId iid : fat_.instance_ids()) {
      if (fat_.cell_of(iid).kind == CellKind::kTie) return true;
    }
    return false;
  }

  NetId clock_net() {
    const NetId id = diff_->find_net(clock_name_);
    SECFLOW_CHECK(id.valid(), "internal: no clock in differential netlist");
    return id;
  }

  NetId rail(NetId fat_net, bool false_rail) {
    return diff_->find_net(rail_name(fat_.net(fat_net).name, false_rail));
  }

  void expand_instance(InstId iid) {
    const Instance& in = fat_.instance(iid);
    const WddlCompound& c = wlib_.compound_of(in.cell);
    const CellType& fat_cell = fat_.library().cell(in.cell);
    switch (c.kind) {
      case WddlKind::kComb: {
        std::vector<NetId> t_rails, f_rails;
        for (int pin : fat_cell.input_pins()) {
          const NetId net = in.conns[static_cast<std::size_t>(pin)];
          t_rails.push_back(rail(net, false));
          f_rails.push_back(rail(net, true));
        }
        const NetId out =
            in.conns[static_cast<std::size_t>(fat_cell.output_pin())];
        emit_sop(c.true_sop, t_rails, f_rails, rail(out, false),
                 in.name + "_T");
        emit_sop(c.false_sop, t_rails, f_rails, rail(out, true),
                 in.name + "_F");
        break;
      }
      case WddlKind::kFlop: {
        const NetId d = in.conns[static_cast<std::size_t>(
            fat_cell.pin_index("D"))];
        const NetId q = in.conns[static_cast<std::size_t>(
            fat_cell.pin_index("Q"))];
        const bool swap = c.function == LogicFn::inverter();
        expand_flop_rail(in.name + "_t", rail(d, swap), rail(q, false));
        expand_flop_rail(in.name + "_f", rail(d, !swap), rail(q, true));
        break;
      }
      case WddlKind::kTie: {
        const NetId y = in.conns[static_cast<std::size_t>(
            fat_cell.output_pin())];
        const bool one = c.function.eval(0);
        // Active rail follows the evaluate window (buffered clock); the
        // inactive rail is a hard 0.
        add_gate(*diff_, "BUF", in.name + "_w", {clock_net()}, rail(y, !one));
        add_gate(*diff_, "TIE0", in.name + "_z", {}, rail(y, one));
        break;
      }
    }
  }

  /// master (negedge) -> slave (posedge) -> AND2 with the clock.
  void expand_flop_rail(const std::string& prefix, NetId d, NetId q) {
    const NetId m = diff_->add_net(prefix + "_m");
    const NetId s = diff_->add_net(prefix + "_s");
    add_flop(*diff_, "DFFN", prefix + "_mst", d, clock_net(), m);
    add_flop(*diff_, "DFF", prefix + "_slv", m, clock_net(), s);
    add_gate(*diff_, "AND2", prefix + "_en", {s, clock_net()}, q);
  }

  /// Positive SOP -> AND/OR trees ending exactly on `out`.
  void emit_sop(const std::vector<Cube>& sop, const std::vector<NetId>& t,
                const std::vector<NetId>& f, NetId out,
                const std::string& prefix) {
    SECFLOW_CHECK(!sop.empty(), "empty SOP in comb compound");
    std::vector<NetId> products;
    for (std::size_t ci = 0; ci < sop.size(); ++ci) {
      std::vector<NetId> lits;
      const Cube& cube = sop[ci];
      for (int i = 0; i < static_cast<int>(t.size()); ++i) {
        if (!((cube.mask >> i) & 1u)) continue;
        const bool positive = (cube.value >> i) & 1u;
        lits.push_back(positive ? t[static_cast<std::size_t>(i)]
                                : f[static_cast<std::size_t>(i)]);
      }
      SECFLOW_CHECK(!lits.empty(), "empty cube in comb compound");
      const bool is_final = sop.size() == 1;
      products.push_back(reduce(lits, /*use_and=*/true,
                                prefix + "_p" + std::to_string(ci),
                                is_final ? out : NetId{}));
    }
    if (sop.size() > 1) {
      reduce(products, /*use_and=*/false, prefix + "_s", out);
    }
  }

  /// Tree-reduce `ops` with AND or OR gates.  If `target` is valid the
  /// final gate drives it (a BUF is inserted for a single operand).
  /// Returns the net carrying the result.
  NetId reduce(std::vector<NetId> ops, bool use_and, const std::string& prefix,
               NetId target) {
    int counter = 0;
    if (ops.size() == 1) {
      if (!target.valid()) return ops[0];
      add_gate(*diff_, "BUF", prefix + "_b", {ops[0]}, target);
      return target;
    }
    const std::vector<int> plan = plan_reduction_tree(
        static_cast<int>(ops.size()));
    for (std::size_t step = 0; step < plan.size(); ++step) {
      const int arity = plan[step];
      std::vector<NetId> ins(ops.begin(), ops.begin() + arity);
      ops.erase(ops.begin(), ops.begin() + arity);
      const bool last = step + 1 == plan.size();
      NetId out;
      if (last && target.valid()) {
        out = target;
      } else {
        out = diff_->add_net(prefix + "_n" + std::to_string(counter++));
      }
      const std::string cell =
          (use_and ? "AND" : "OR") + std::to_string(arity);
      add_gate(*diff_, cell, prefix + "_g" + std::to_string(step), ins, out);
      ops.push_back(out);
    }
    SECFLOW_CHECK(ops.size() == 1, "reduction tree did not converge");
    return ops[0];
  }

  const Netlist& fat_;
  const WddlLibrary& wlib_;
  Netlist* diff_ = nullptr;
  NetId clock_;
  std::string clock_name_;
};

}  // namespace

SubstitutionResult substitute_cells(const Netlist& rtl, WddlLibrary& wlib) {
  SECFLOW_CHECK(rtl.library_ptr() == wlib.base_library(),
                "rtl must be mapped onto the WDDL base library");
  return Substituter(rtl, wlib).run();
}

Netlist expand_differential(const Netlist& fat, const WddlLibrary& wlib) {
  SECFLOW_CHECK(fat.library_ptr() == wlib.fat_library(),
                "fat netlist must reference this WddlLibrary's fat library");
  return Expander(fat, wlib).run();
}

}  // namespace secflow
