#include "ckpt/fingerprint.h"

#include "ckpt/hash.h"

namespace secflow {

std::uint64_t fingerprint(const AigCircuit& circuit) {
  Hasher h;
  h.add(circuit.name).add(circuit.clock);
  const Aig& aig = circuit.aig;
  h.add(static_cast<std::uint64_t>(aig.n_nodes()));
  for (std::uint32_t node = 0; node < aig.n_nodes(); ++node) {
    if (aig.is_input(node)) {
      h.add("i").add(aig.input_name(node));
    } else if (aig.is_and(node)) {
      h.add("a")
          .add(static_cast<std::uint64_t>(aig.fanin0(node)))
          .add(static_cast<std::uint64_t>(aig.fanin1(node)));
    } else {
      h.add("c");
    }
  }
  h.add(static_cast<std::uint64_t>(circuit.inputs.size()));
  for (const CircuitBit& b : circuit.inputs) {
    h.add(b.name).add(static_cast<std::uint64_t>(b.lit));
  }
  h.add(static_cast<std::uint64_t>(circuit.outputs.size()));
  for (const CircuitBit& b : circuit.outputs) {
    h.add(b.name).add(static_cast<std::uint64_t>(b.lit));
  }
  h.add(static_cast<std::uint64_t>(circuit.regs.size()));
  for (const CircuitReg& r : circuit.regs) {
    h.add(r.name)
        .add(static_cast<std::uint64_t>(r.q))
        .add(static_cast<std::uint64_t>(r.next));
  }
  return h.digest();
}

std::uint64_t fingerprint(const CellLibrary& lib) {
  Hasher h;
  h.add(lib.name()).add(static_cast<std::uint64_t>(lib.size()));
  for (const CellTypeId id : lib.all()) {
    const CellType& c = lib.cell(id);
    h.add(c.name)
        .add(static_cast<int>(c.kind))
        .add(c.function.n_inputs())
        .add(c.function.table())
        .add(c.area_um2)
        .add(c.width_um)
        .add(c.height_um)
        .add(c.intrinsic_delay_ps)
        .add(c.drive_res_kohm)
        .add(c.internal_cap_ff)
        .add(c.negedge_clock)
        .add(static_cast<std::uint64_t>(c.pins.size()));
    for (const PinDef& p : c.pins) {
      h.add(p.name).add(static_cast<int>(p.dir)).add(p.cap_ff);
    }
  }
  return h.digest();
}

}  // namespace secflow
