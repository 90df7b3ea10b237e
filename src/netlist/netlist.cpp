#include "netlist/netlist.h"

#include <algorithm>
#include <deque>

#include "base/error.h"

namespace secflow {

Netlist::Netlist(std::string name, std::shared_ptr<const CellLibrary> library)
    : name_(std::move(name)), library_(std::move(library)) {
  SECFLOW_CHECK(library_ != nullptr, "netlist needs a library");
}

NetId Netlist::add_net(const std::string& name) {
  SECFLOW_CHECK(!net_by_name_.contains(name), "duplicate net: " + name);
  const NetId id(static_cast<std::int32_t>(nets_.size()));
  nets_.push_back(Net{name, {}, {}});
  net_by_name_.emplace(name, id);
  return id;
}

NetId Netlist::get_or_add_net(const std::string& name) {
  const auto it = net_by_name_.find(name);
  return it != net_by_name_.end() ? it->second : add_net(name);
}

PortId Netlist::add_port(const std::string& name, PinDir dir, NetId net) {
  SECFLOW_CHECK(!port_by_name_.contains(name), "duplicate port: " + name);
  SECFLOW_CHECK(net.valid() && net.index() < nets_.size(), "bad net id");
  const PortId id(static_cast<std::int32_t>(ports_.size()));
  ports_.push_back(Port{name, dir, net});
  nets_[net.index()].ports.push_back(id);
  port_by_name_.emplace(name, id);
  return id;
}

InstId Netlist::add_instance(const std::string& name, CellTypeId cell) {
  SECFLOW_CHECK(!inst_by_name_.contains(name), "duplicate instance: " + name);
  const CellType& type = library_->cell(cell);  // validates the id
  const InstId id(static_cast<std::int32_t>(insts_.size()));
  insts_.push_back(Instance{name, cell, std::vector<NetId>(type.pins.size())});
  inst_by_name_.emplace(name, id);
  return id;
}

void Netlist::connect(InstId inst, int pin, NetId net) {
  SECFLOW_CHECK(inst.valid() && inst.index() < insts_.size(), "bad inst id");
  SECFLOW_CHECK(net.valid() && net.index() < nets_.size(), "bad net id");
  Instance& in = insts_[inst.index()];
  SECFLOW_CHECK(pin >= 0 && pin < static_cast<int>(in.conns.size()),
                "bad pin index");
  SECFLOW_CHECK(!in.conns[static_cast<std::size_t>(pin)].valid(),
                "pin already connected: " + in.name);
  in.conns[static_cast<std::size_t>(pin)] = net;
  nets_[net.index()].pins.push_back(PinRef{inst, pin});
}

void Netlist::disconnect(InstId inst, int pin) {
  SECFLOW_CHECK(inst.valid() && inst.index() < insts_.size(), "bad inst id");
  Instance& in = insts_[inst.index()];
  SECFLOW_CHECK(pin >= 0 && pin < static_cast<int>(in.conns.size()),
                "bad pin index");
  const NetId net = in.conns[static_cast<std::size_t>(pin)];
  if (!net.valid()) return;
  in.conns[static_cast<std::size_t>(pin)] = NetId{};
  auto& pins = nets_[net.index()].pins;
  pins.erase(std::remove(pins.begin(), pins.end(), PinRef{inst, pin}),
             pins.end());
}

const Net& Netlist::net(NetId id) const {
  SECFLOW_CHECK(id.valid() && id.index() < nets_.size(), "bad net id");
  return nets_[id.index()];
}

const Instance& Netlist::instance(InstId id) const {
  SECFLOW_CHECK(id.valid() && id.index() < insts_.size(), "bad inst id");
  return insts_[id.index()];
}

const Port& Netlist::port(PortId id) const {
  SECFLOW_CHECK(id.valid() && id.index() < ports_.size(), "bad port id");
  return ports_[id.index()];
}

const CellType& Netlist::cell_of(InstId id) const {
  return library_->cell(instance(id).cell);
}

NetId Netlist::find_net(const std::string& name) const {
  const auto it = net_by_name_.find(name);
  return it == net_by_name_.end() ? NetId{} : it->second;
}

InstId Netlist::find_instance(const std::string& name) const {
  const auto it = inst_by_name_.find(name);
  return it == inst_by_name_.end() ? InstId{} : it->second;
}

PortId Netlist::find_port(const std::string& name) const {
  const auto it = port_by_name_.find(name);
  return it == port_by_name_.end() ? PortId{} : it->second;
}

std::vector<NetId> Netlist::net_ids() const {
  std::vector<NetId> out;
  out.reserve(nets_.size());
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    out.emplace_back(static_cast<std::int32_t>(i));
  }
  return out;
}

std::vector<InstId> Netlist::instance_ids() const {
  std::vector<InstId> out;
  out.reserve(insts_.size());
  for (std::size_t i = 0; i < insts_.size(); ++i) {
    out.emplace_back(static_cast<std::int32_t>(i));
  }
  return out;
}

std::vector<PortId> Netlist::port_ids() const {
  std::vector<PortId> out;
  out.reserve(ports_.size());
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    out.emplace_back(static_cast<std::int32_t>(i));
  }
  return out;
}

std::optional<PinRef> Netlist::driver(NetId id) const {
  for (const PinRef& p : net(id).pins) {
    const CellType& type = cell_of(p.inst);
    if (type.pins[static_cast<std::size_t>(p.pin)].dir == PinDir::kOutput) {
      return p;
    }
  }
  return std::nullopt;
}

std::optional<PortId> Netlist::driving_port(NetId id) const {
  for (PortId pid : net(id).ports) {
    if (port(pid).dir == PinDir::kInput) return pid;
  }
  return std::nullopt;
}

std::vector<PinRef> Netlist::sinks(NetId id) const {
  std::vector<PinRef> out;
  for (const PinRef& p : net(id).pins) {
    const CellType& type = cell_of(p.inst);
    if (type.pins[static_cast<std::size_t>(p.pin)].dir == PinDir::kInput) {
      out.push_back(p);
    }
  }
  return out;
}

int Netlist::fanout(NetId id) const {
  int n = static_cast<int>(sinks(id).size());
  for (PortId pid : net(id).ports) {
    if (port(pid).dir == PinDir::kOutput) ++n;
  }
  return n;
}

std::vector<InstId> Netlist::topological_order() const {
  // Kahn's algorithm over combinational edges.  Flops and ties have no
  // combinational fan-in: their outputs are sequential/constant sources.
  std::vector<int> pending(insts_.size(), 0);
  for (std::size_t i = 0; i < insts_.size(); ++i) {
    const Instance& in = insts_[i];
    const CellType& type = library_->cell(in.cell);
    if (type.kind != CellKind::kCombinational) continue;
    for (int pin : type.input_pins()) {
      const NetId net_id = in.conns[static_cast<std::size_t>(pin)];
      if (!net_id.valid()) continue;
      const auto drv = driver(net_id);
      if (!drv) continue;
      if (library_->cell(insts_[drv->inst.index()].cell).kind ==
          CellKind::kCombinational) {
        ++pending[i];
      }
    }
  }
  std::deque<InstId> ready;
  std::vector<InstId> order;
  order.reserve(insts_.size());
  // Sequential/constant sources (flops, ties) strictly precede every
  // combinational gate, regardless of instance insertion order: consumers
  // walking the order may read a source's output net from any gate.
  for (std::size_t i = 0; i < insts_.size(); ++i) {
    const CellType& type = library_->cell(insts_[i].cell);
    if (type.kind != CellKind::kCombinational) {
      ready.emplace_back(static_cast<std::int32_t>(i));
    }
  }
  for (std::size_t i = 0; i < insts_.size(); ++i) {
    const CellType& type = library_->cell(insts_[i].cell);
    if (type.kind == CellKind::kCombinational && pending[i] == 0) {
      ready.emplace_back(static_cast<std::int32_t>(i));
    }
  }
  while (!ready.empty()) {
    const InstId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    const Instance& in = insts_[id.index()];
    const CellType& type = library_->cell(in.cell);
    const int out_pin = type.output_pin();
    if (out_pin < 0) continue;
    const NetId out_net = in.conns[static_cast<std::size_t>(out_pin)];
    if (!out_net.valid()) continue;
    for (const PinRef& sink : sinks(out_net)) {
      const CellType& sink_type = cell_of(sink.inst);
      if (sink_type.kind != CellKind::kCombinational) continue;
      if (library_->cell(in.cell).kind != CellKind::kCombinational) continue;
      if (--pending[sink.inst.index()] == 0) ready.push_back(sink.inst);
    }
  }
  SECFLOW_CHECK(order.size() == insts_.size(),
                "combinational cycle in netlist " + name_);
  return order;
}

std::vector<int> Netlist::levels() const {
  std::vector<int> level(insts_.size(), 0);
  for (InstId id : topological_order()) {
    const Instance& in = insts_[id.index()];
    const CellType& type = library_->cell(in.cell);
    if (type.kind != CellKind::kCombinational) continue;
    int lvl = 0;
    for (int pin : type.input_pins()) {
      const NetId net_id = in.conns[static_cast<std::size_t>(pin)];
      if (!net_id.valid()) continue;
      const auto drv = driver(net_id);
      if (!drv) continue;
      if (cell_of(drv->inst).kind == CellKind::kCombinational) {
        lvl = std::max(lvl, level[drv->inst.index()] + 1);
      }
    }
    level[id.index()] = lvl;
  }
  return level;
}

double Netlist::total_area_um2() const {
  double a = 0.0;
  for (const Instance& in : insts_) a += library_->cell(in.cell).area_um2;
  return a;
}

int Netlist::count_kind(CellKind kind) const {
  int n = 0;
  for (const Instance& in : insts_) {
    if (library_->cell(in.cell).kind == kind) ++n;
  }
  return n;
}

NetId Netlist::clock_net() const {
  NetId clock;
  for (const Instance& in : insts_) {
    const CellType& type = library_->cell(in.cell);
    if (type.kind != CellKind::kFlop) continue;
    const NetId ck = in.conns[static_cast<std::size_t>(type.ck_pin())];
    if (!ck.valid()) {
      throw Error("netlist " + name_ + ": flop " + in.name + " has no clock");
    }
    if (clock.valid() && ck != clock) {
      throw Error("netlist " + name_ + ": flops on two clock nets, " +
                  nets_[clock.index()].name + " and " + nets_[ck.index()].name);
    }
    clock = ck;
  }
  return clock;
}

void Netlist::validate() const {
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    const NetId id(static_cast<std::int32_t>(i));
    int drivers = 0;
    for (const PinRef& p : nets_[i].pins) {
      const CellType& type = cell_of(p.inst);
      if (type.pins[static_cast<std::size_t>(p.pin)].dir == PinDir::kOutput) {
        ++drivers;
      }
    }
    if (driving_port(id)) ++drivers;
    SECFLOW_CHECK(drivers <= 1, "multiply driven net: " + nets_[i].name);
  }
  for (const Instance& in : insts_) {
    const CellType& type = library_->cell(in.cell);
    for (int pin : type.input_pins()) {
      SECFLOW_CHECK(in.conns[static_cast<std::size_t>(pin)].valid(),
                    "floating input pin " +
                        type.pins[static_cast<std::size_t>(pin)].name +
                        " on instance " + in.name);
    }
  }
}

}  // namespace secflow
