// Gate-level structural netlist.
//
// A Netlist is a flat module: ports, nets, and cell instances referencing a
// CellLibrary.  Storage is id-indexed vectors; names are unique within
// their object class.  The same data structure represents every flow
// artifact: rtl.v, the fat netlist and the differential netlist.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/id.h"
#include "netlist/cell_library.h"

namespace secflow {

struct NetTag {};
struct InstTag {};
struct PortTag {};
using NetId = Id<NetTag>;
using InstId = Id<InstTag>;
using PortId = Id<PortTag>;

/// One instance pin: (instance, pin index within the cell type).
struct PinRef {
  InstId inst;
  int pin = -1;
  friend bool operator==(const PinRef&, const PinRef&) = default;
};

struct Net {
  std::string name;
  std::vector<PinRef> pins;    ///< all instance pins on the net
  std::vector<PortId> ports;   ///< module ports attached to the net
};

struct Instance {
  std::string name;
  CellTypeId cell;
  std::vector<NetId> conns;    ///< indexed by pin index; invalid = open
};

struct Port {
  std::string name;
  PinDir dir = PinDir::kInput;
  NetId net;
};

class Netlist {
 public:
  Netlist(std::string name, std::shared_ptr<const CellLibrary> library);

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }
  const CellLibrary& library() const { return *library_; }
  const std::shared_ptr<const CellLibrary>& library_ptr() const {
    return library_;
  }

  // --- construction -------------------------------------------------------
  NetId add_net(const std::string& name);
  /// Returns the existing net of that name, or creates one.
  NetId get_or_add_net(const std::string& name);
  PortId add_port(const std::string& name, PinDir dir, NetId net);
  InstId add_instance(const std::string& name, CellTypeId cell);
  void connect(InstId inst, int pin, NetId net);
  void disconnect(InstId inst, int pin);

  // --- access -------------------------------------------------------------
  std::size_t n_nets() const { return nets_.size(); }
  std::size_t n_instances() const { return insts_.size(); }
  std::size_t n_ports() const { return ports_.size(); }
  const Net& net(NetId id) const;
  const Instance& instance(InstId id) const;
  const Port& port(PortId id) const;
  const CellType& cell_of(InstId id) const;

  NetId find_net(const std::string& name) const;
  InstId find_instance(const std::string& name) const;
  PortId find_port(const std::string& name) const;

  std::vector<NetId> net_ids() const;
  std::vector<InstId> instance_ids() const;
  std::vector<PortId> port_ids() const;

  /// The unique driving pin of a net (output pin of some instance), or
  /// nullopt if the net is driven by an input port or floating.
  std::optional<PinRef> driver(NetId id) const;
  /// The input port driving this net, if any.
  std::optional<PortId> driving_port(NetId id) const;
  /// All sink pins (input pins of instances) on a net.
  std::vector<PinRef> sinks(NetId id) const;
  /// Number of instance input pins + output ports on the net.
  int fanout(NetId id) const;
  /// The net on every flop's CK pin; invalid when there is no flop.  Throws
  /// Error, naming this netlist, when a flop's CK is unconnected or the
  /// flops sit on two clock nets.
  NetId clock_net() const;

  // --- derived ------------------------------------------------------------
  /// Instances in topological order: combinational gates ordered so every
  /// gate appears after its combinational drivers.  Flops come first (their
  /// outputs are sequential sources).  Throws on a combinational cycle.
  std::vector<InstId> topological_order() const;

  /// Combinational depth (levels) of each instance, flops/ties at level 0.
  std::vector<int> levels() const;

  /// Sum of instance areas [um^2].
  double total_area_um2() const;
  /// Instance count by cell kind.
  int count_kind(CellKind kind) const;

  /// Structural checks: unique single driver per net, no floating instance
  /// input pins, function arity consistency.  Throws Error on violation.
  void validate() const;

 private:
  std::string name_;
  std::shared_ptr<const CellLibrary> library_;
  std::vector<Net> nets_;
  std::vector<Instance> insts_;
  std::vector<Port> ports_;
  std::unordered_map<std::string, NetId> net_by_name_;
  std::unordered_map<std::string, InstId> inst_by_name_;
  std::unordered_map<std::string, PortId> port_by_name_;
};

}  // namespace secflow
