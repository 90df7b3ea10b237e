#include "sta/sta.h"

#include <algorithm>
#include <sstream>

#include "base/error.h"

namespace secflow {
namespace {

double net_load_ff(const Netlist& nl, NetId id, const CapTable& caps) {
  const auto it = caps.find(nl.net(id).name);
  if (it != caps.end()) return it->second;
  double c = 1.0;
  for (const PinRef& p : nl.net(id).pins) {
    const CellType& type = nl.cell_of(p.inst);
    const PinDef& pin = type.pins[static_cast<std::size_t>(p.pin)];
    if (pin.dir == PinDir::kInput) c += pin.cap_ff;
  }
  return c;
}

}  // namespace

TimingReport analyze_timing(const Netlist& nl, const CapTable& caps) {
  TimingReport report;
  const std::size_t n = nl.n_nets();
  report.net_arrival_ps.assign(n, 0.0);
  // Who set each net's arrival (for path reconstruction).
  std::vector<InstId> net_driver(n);
  std::vector<NetId> net_prev(n);

  // Sources: input ports and sequential/constant outputs.
  for (PortId pid : nl.port_ids()) {
    const Port& p = nl.port(pid);
    if (p.dir != PinDir::kInput) continue;
    report.net_arrival_ps[p.net.index()] = kInputDelayPs;
  }
  for (InstId iid : nl.instance_ids()) {
    const CellType& type = nl.cell_of(iid);
    if (type.kind == CellKind::kCombinational) continue;
    const int out_pin = type.output_pin();
    if (out_pin < 0) continue;
    const NetId q =
        nl.instance(iid).conns[static_cast<std::size_t>(out_pin)];
    if (!q.valid()) continue;
    const double t =
        type.kind == CellKind::kFlop ? type.intrinsic_delay_ps : 0.0;
    report.net_arrival_ps[q.index()] =
        std::max(report.net_arrival_ps[q.index()], t);
    net_driver[q.index()] = iid;
  }

  // Forward propagation in topological order.
  for (InstId iid : nl.topological_order()) {
    const Instance& in = nl.instance(iid);
    const CellType& type = nl.cell_of(iid);
    if (type.kind != CellKind::kCombinational) continue;
    const int out_pin = type.output_pin();
    if (out_pin < 0) continue;
    const NetId out = in.conns[static_cast<std::size_t>(out_pin)];
    if (!out.valid()) continue;
    double worst_in = 0.0;
    NetId worst_net;
    for (int pin : type.input_pins()) {
      const NetId net = in.conns[static_cast<std::size_t>(pin)];
      if (!net.valid()) continue;
      if (report.net_arrival_ps[net.index()] >= worst_in) {
        worst_in = report.net_arrival_ps[net.index()];
        worst_net = net;
      }
    }
    const double delay =
        type.intrinsic_delay_ps + type.drive_res_kohm * net_load_ff(nl, out, caps);
    const double arrival = worst_in + delay;
    if (arrival > report.net_arrival_ps[out.index()]) {
      report.net_arrival_ps[out.index()] = arrival;
      net_driver[out.index()] = iid;
      net_prev[out.index()] = worst_net;
    }
  }

  // Endpoints: flop D pins and output ports.
  NetId worst_endpoint;
  auto consider = [&](NetId net, const std::string& name) {
    if (!net.valid()) return;
    if (report.net_arrival_ps[net.index()] > report.critical_delay_ps) {
      report.critical_delay_ps = report.net_arrival_ps[net.index()];
      report.endpoint = name;
      worst_endpoint = net;
    }
  };
  for (InstId iid : nl.instance_ids()) {
    const CellType& type = nl.cell_of(iid);
    if (type.kind != CellKind::kFlop) continue;
    consider(nl.instance(iid).conns[static_cast<std::size_t>(type.d_pin())],
             nl.instance(iid).name + "/D");
  }
  for (PortId pid : nl.port_ids()) {
    const Port& p = nl.port(pid);
    if (p.dir == PinDir::kOutput) consider(p.net, "port " + p.name);
  }

  // Critical path reconstruction.
  for (NetId net = worst_endpoint; net.valid(); net = net_prev[net.index()]) {
    PathNode node;
    node.net = nl.net(net).name;
    node.arrival_ps = report.net_arrival_ps[net.index()];
    if (net_driver[net.index()].valid()) {
      node.instance = nl.instance(net_driver[net.index()]).name;
    } else if (const auto port = nl.driving_port(net)) {
      node.instance = "<" + nl.port(*port).name + ">";
    }
    report.critical_path.push_back(node);
    if (!net_driver[net.index()].valid()) break;
    if (!net_prev[net.index()].valid()) break;
  }
  std::reverse(report.critical_path.begin(), report.critical_path.end());

  report.min_period_ps = report.critical_delay_ps;  // plus setup ~ 0 here
  return report;
}

std::string timing_report_text(const TimingReport& r) {
  std::ostringstream os;
  os << "critical delay: " << r.critical_delay_ps << " ps to " << r.endpoint
     << "\n";
  for (const PathNode& n : r.critical_path) {
    os << "  " << n.arrival_ps << " ps  net " << n.net;
    if (!n.instance.empty()) os << "  (driven by " << n.instance << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace secflow
