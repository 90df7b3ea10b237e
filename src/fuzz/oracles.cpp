#include "fuzz/oracles.h"

#include <optional>
#include <utility>

#include "base/error.h"
#include "base/rng.h"
#include "campaign/campaign.h"
#include "ckpt/fingerprint.h"
#include "ckpt/hash.h"
#include "flow/flow.h"
#include "fuzz/generator.h"
#include "liberty/builtin_lib.h"
#include "lec/lec.h"
#include "netlist/netlist_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/power_sim.h"
#include "synth/hdl.h"
#include "synth/techmap.h"
#include "wddl/cell_substitution.h"
#include "wddl/wddl_library.h"

namespace secflow {

bool OracleReport::all_ok() const {
  for (const auto& v : verdicts)
    if (!v.ok) return false;
  return true;
}

const OracleVerdict* OracleReport::first_failure() const {
  for (const auto& v : verdicts)
    if (!v.ok) return &v;
  return nullptr;
}

std::uint64_t OracleReport::digest() const {
  Hasher h;
  h.add("secflow.fuzz-battery/1");
  for (const auto& v : verdicts) h.add(v.oracle).add(v.ok).add(v.detail);
  h.add(injected_edit).add(injectable);
  return h.digest();
}

namespace {

std::vector<std::string> blast(const HdlSignal& s) {
  if (s.width == 1) return {s.name};
  std::vector<std::string> out;
  for (int b = 0; b < s.width; ++b)
    out.push_back(s.name + "_" + std::to_string(b));
  return out;
}

std::vector<std::string> input_bits(const HdlModule& p) {
  std::vector<std::string> out;
  for (const auto& s : p.inputs)
    for (auto& n : blast(s)) out.push_back(std::move(n));
  return out;
}

std::vector<std::string> output_bits(const HdlModule& p) {
  std::vector<std::string> out;
  for (const auto& s : p.outputs)
    for (auto& n : blast(s)) out.push_back(std::move(n));
  return out;
}

/// The single-ended artifacts of one program, built the way the secure
/// flow's front half builds them (same synthesis constraints).
struct Built {
  AigCircuit circuit;
  Netlist rtl;
  Netlist fat;
  Netlist diff;
};

Built build_artifacts(const HdlModule& p, WddlLibrary& wlib,
                      FaultKind inject, std::string* edit, bool* injectable) {
  AigCircuit circuit = parse_hdl(emit_hdl(p));
  Netlist rtl =
      technology_map(circuit, wlib.base_library(), wddl_synth_constraints());
  SubstitutionResult sub = substitute_cells(rtl, wlib);
  Netlist fat = std::move(sub.fat);
  if (inject == FaultKind::kSubstitutionPinSwap) {
    *edit = inject_pin_swap(fat);
    if (edit->empty()) *injectable = false;
  }
  Netlist diff = expand_differential(fat, wlib);
  if (inject == FaultKind::kRailSwap) {
    *edit = inject_rail_swap(diff);
    if (edit->empty()) *injectable = false;
  }
  return Built{std::move(circuit), std::move(rtl), std::move(fat),
               std::move(diff)};
}

/// Full digest chain of a circuit: its fingerprint plus both flows' stage
/// key chains under default options.
struct DigestChain {
  std::uint64_t circuit_fp = 0;
  std::array<std::uint64_t, kNumFlowStages> regular{};
  std::array<std::uint64_t, kNumFlowStages> secure{};
  bool operator==(const DigestChain&) const = default;
};

DigestChain digest_chain(const AigCircuit& c, const CellLibrary& lib) {
  DigestChain d;
  d.circuit_fp = fingerprint(c);
  const FlowOptions opts;
  d.regular = compute_stage_keys(FlowKind::kRegular, c, lib, opts);
  d.secure = compute_stage_keys(FlowKind::kSecure, c, lib, opts);
  return d;
}

OracleVerdict digest_neutral_oracle(const std::string& name,
                                    const HdlModule& variant,
                                    const DigestChain& base,
                                    const CellLibrary& lib) {
  OracleVerdict v{name, true, ""};
  try {
    const DigestChain got = digest_chain(parse_hdl(emit_hdl(variant)), lib);
    if (!(got == base)) {
      v.ok = false;
      v.detail = "stage key chain changed (circuit fp " +
                 hash_hex(base.circuit_fp) + " -> " +
                 hash_hex(got.circuit_fp) + ")";
    }
  } catch (const std::exception& e) {
    v.ok = false;
    v.detail = std::string("variant failed to elaborate: ") + e.what();
  }
  return v;
}

std::string lec_detail(const LecResult& r) {
  if (r.equivalent) return "";
  std::string d = "not equivalent (" + std::to_string(r.mismatches.size()) +
                  " mismatches";
  if (!r.mismatches.empty())
    d += "; first: " + r.mismatches.front().what + " @ " +
         r.mismatches.front().counterexample;
  return d + ")";
}

/// Resolve bit-blasted port names on a netlist once, so per-vector loops
/// use the id-based sim API instead of hashing names every cycle.
std::vector<PortId> resolve_ports(const Netlist& nl,
                                  const std::vector<std::string>& names) {
  std::vector<PortId> ids;
  ids.reserve(names.size());
  for (const auto& n : names) {
    const PortId pid = nl.find_port(n);
    SECFLOW_CHECK(pid.valid(), "unknown port: " + n);
    ids.push_back(pid);
  }
  return ids;
}

/// Fat-vs-original lockstep simulation over random vectors (sequential
/// designs advance the clock between vectors, so state diverges too).
OracleVerdict sim_agreement_oracle(const HdlModule& p, const Netlist& rtl,
                                   const Netlist& fat,
                                   const OracleOptions& opts) {
  OracleVerdict v{"cross-sim-fat-rtl", true, ""};
  const auto ins = input_bits(p);
  const auto outs = output_bits(p);
  const auto a_ins = resolve_ports(rtl, ins);
  const auto b_ins = resolve_ports(fat, ins);
  const auto a_outs = resolve_ports(rtl, outs);
  const auto b_outs = resolve_ports(fat, outs);
  FunctionalSim a(rtl);
  FunctionalSim b(fat);
  a.propagate();
  b.propagate();
  Rng rng = Rng::stream(opts.seed, 1);
  const bool seq = !p.regs.empty();
  for (int i = 0; i < opts.n_vectors && v.ok; ++i) {
    for (std::size_t k = 0; k < ins.size(); ++k) {
      const bool bit = rng.next_bool();
      a.set_input(a_ins[k], bit);
      b.set_input(b_ins[k], bit);
    }
    a.propagate();
    b.propagate();
    for (std::size_t k = 0; k < outs.size(); ++k) {
      if (a.output(a_outs[k]) != b.output(b_outs[k])) {
        v.ok = false;
        v.detail = "vector " + std::to_string(i) + ": output " + outs[k] +
                   " rtl=" + std::to_string(a.output(a_outs[k])) +
                   " fat=" + std::to_string(b.output(b_outs[k]));
        break;
      }
    }
    if (seq) {
      a.step_clock();
      b.step_clock();
    }
  }
  return v;
}

/// The first disagreement between a stepping and a booking simulator of
/// `nl`, "" when there is none.  Both settle on the same random inputs and
/// get the same random inputs for `n_cycles` cycles; one steps every cycle
/// (zero-delay whenever it may) and one books it.  Nets, flops and the
/// outputs at the evaluate snapshot must agree after every cycle, and one
/// recorded cycle must then agree bit for bit.
std::string step_run_mismatch(const std::string& label, const Netlist& nl,
                              bool precharge, Rng& rng, int n_cycles) {
  PowerSimOptions o;
  o.precharge_inputs = precharge;
  const CompiledSimModel model(nl, {}, o);
  PowerSimulator stepped(model);
  PowerSimulator booked(model);
  const auto drive = [&] {
    for (const CompiledSimModel::DataInput& in : model.data_inputs()) {
      const bool v = rng.next_bool();
      stepped.set_input(in.port, v);
      booked.set_input(in.port, v);
    }
  };
  const auto differs = [&](const std::string& what, bool step, bool book) {
    return label + " " + what + ": stepped=" + std::to_string(step) +
           " booked=" + std::to_string(book);
  };
  drive();
  stepped.settle();
  booked.settle();
  for (int cycle = 0; cycle < n_cycles; ++cycle) {
    drive();
    stepped.step_cycle();
    booked.run_cycle();
    const std::string at = "cycle " + std::to_string(cycle);
    for (NetId n : nl.net_ids()) {
      if (stepped.net_value(n) != booked.net_value(n))
        return differs(at + " net " + nl.net(n).name, stepped.net_value(n),
                       booked.net_value(n));
    }
    for (PortId p : nl.port_ids()) {
      if (nl.port(p).dir != PinDir::kOutput) continue;
      if (stepped.output_at_eval(p) != booked.output_at_eval(p))
        return differs(at + " eval output " + nl.port(p).name,
                       stepped.output_at_eval(p), booked.output_at_eval(p));
    }
    for (InstId i : nl.instance_ids()) {
      if (nl.cell_of(i).kind != CellKind::kFlop) continue;
      if (stepped.flop_state(i) != booked.flop_state(i))
        return differs(at + " flop " + nl.instance(i).name,
                       stepped.flop_state(i), booked.flop_state(i));
    }
  }
  drive();
  const CycleTrace a = stepped.run_cycle();
  const CycleTrace b = booked.run_cycle();
  if (a.current_ma != b.current_ma || a.energy_pj != b.energy_pj ||
      a.transitions != b.transitions)
    return label + " recorded cycle differs";
  return "";
}

/// Stepped against booked power simulation, on the rtl netlist and on the
/// differential one under the precharge wave.
OracleVerdict step_run_oracle(const Built& built, const OracleOptions& opts) {
  OracleVerdict v{"cross-sim-step-run", true, ""};
  Rng rng = Rng::stream(opts.seed, 3);
  v.detail = step_run_mismatch("rtl", built.rtl, false, rng, opts.n_cycles);
  if (v.detail.empty())
    v.detail = step_run_mismatch("diff", built.diff, true, rng, opts.n_cycles);
  v.ok = v.detail.empty();
  return v;
}

/// The differential-netlist security battery, one simulation shared by
/// three oracles: precharge-zero, rails-one-hot (exactly one switching
/// event per pair per phase) and lockstep agreement with the single-ended
/// reference.
std::vector<OracleVerdict> wddl_sim_oracles(const HdlModule& p,
                                            const Built& built,
                                            const OracleOptions& opts) {
  const Netlist& rtl = built.rtl;
  const Netlist& diff = built.diff;
  OracleVerdict pre{"wddl-precharge-zero", true, ""};
  OracleVerdict hot{"wddl-rails-one-hot", true, ""};
  OracleVerdict agree{"wddl-seq-agreement", true, ""};

  const auto ins = input_bits(p);
  const auto outs = output_bits(p);
  const bool seq = !p.regs.empty();
  const PortId diff_clk = diff.find_port(built.circuit.clock);

  // Resolve every rail/reference port once; the per-cycle lambdas below
  // run on ids only.
  std::vector<PortId> in_t(ins.size()), in_f(ins.size());
  for (std::size_t i = 0; i < ins.size(); ++i) {
    in_t[i] = diff.find_port(ins[i] + "_t");
    in_f[i] = diff.find_port(ins[i] + "_f");
    SECFLOW_CHECK(in_t[i].valid() && in_f[i].valid(),
                  "missing rail ports: " + ins[i]);
  }
  std::vector<PortId> out_t(outs.size()), out_f(outs.size());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    out_t[i] = diff.find_port(outs[i] + "_t");
    out_f[i] = diff.find_port(outs[i] + "_f");
    SECFLOW_CHECK(out_t[i].valid() && out_f[i].valid(),
                  "missing rail ports: " + outs[i]);
  }
  const auto ref_ins = resolve_ports(rtl, ins);
  const auto ref_outs = resolve_ports(rtl, outs);

  // Differential rail pairs, in deterministic net-id order.
  std::vector<std::pair<NetId, NetId>> pairs;
  for (NetId id : diff.net_ids()) {
    const std::string& name = diff.net(id).name;
    if (name.size() < 2 || name.compare(name.size() - 2, 2, "_t") != 0)
      continue;
    const NetId f = diff.find_net(name.substr(0, name.size() - 2) + "_f");
    if (f.valid()) pairs.emplace_back(id, f);
  }

  FunctionalSim ref(rtl);
  ref.propagate();
  FunctionalSim sim(diff);
  if (seq) {
    // WDDL registers power up in the invalid (0,0) rail state; start every
    // false-rail master/slave at 1 = a valid differential 0, matching the
    // reference sim's all-zero reset state.
    for (InstId id : diff.instance_ids()) {
      if (diff.cell_of(id).kind != CellKind::kFlop) continue;
      const std::string& name = diff.instance(id).name;
      if (name.ends_with("_f_mst") || name.ends_with("_f_slv"))
        sim.set_flop_state(id, true);
    }
  }

  auto drive_eval = [&](const std::vector<bool>& v) {
    if (diff_clk.valid()) sim.set_input(diff_clk, true);
    for (std::size_t i = 0; i < ins.size(); ++i) {
      sim.set_input(in_t[i], v[i]);
      sim.set_input(in_f[i], !v[i]);
    }
    sim.propagate();
  };
  auto drive_precharge = [&] {
    if (diff_clk.valid()) sim.set_input(diff_clk, false);
    for (std::size_t i = 0; i < ins.size(); ++i) {
      sim.set_input(in_t[i], false);
      sim.set_input(in_f[i], false);
    }
    sim.propagate();
  };
  auto compare_outputs = [&](int cycle, const std::vector<bool>& v) {
    if (!agree.ok) return;
    for (std::size_t i = 0; i < ins.size(); ++i) ref.set_input(ref_ins[i], v[i]);
    ref.propagate();
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const bool want = ref.output(ref_outs[i]);
      if (sim.output(out_t[i]) != want || sim.output(out_f[i]) != !want) {
        agree.ok = false;
        agree.detail = "cycle " + std::to_string(cycle) + ": output " +
                       outs[i] + " ref=" + std::to_string(want) + " rails=(" +
                       std::to_string(sim.output(out_t[i])) + "," +
                       std::to_string(sim.output(out_f[i])) + ")";
        return;
      }
    }
  };

  Rng rng = Rng::stream(opts.seed, 2);
  // Initial evaluate phase carries the all-zero vector.
  std::vector<bool> v(ins.size(), false);
  drive_eval(v);
  compare_outputs(0, v);
  if (seq) ref.step_clock();

  for (int cycle = 1; cycle <= opts.n_cycles; ++cycle) {
    for (std::size_t i = 0; i < ins.size(); ++i) v[i] = rng.next_bool();
    // Falling edge: masters capture the settled evaluate rails.
    if (seq) sim.step_edge(false);
    drive_precharge();
    if (pre.ok) {
      for (const auto& [t, f] : pairs) {
        if (sim.net_value(t) || sim.net_value(f)) {
          pre.ok = false;
          pre.detail = "cycle " + std::to_string(cycle) + ": pair " +
                       diff.net(t).name + " not precharged (" +
                       std::to_string(sim.net_value(t)) + "," +
                       std::to_string(sim.net_value(f)) + ")";
          break;
        }
      }
    }
    if (seq) sim.step_edge(true);
    drive_eval(v);
    if (hot.ok) {
      // Both rails left precharge at 0, so "exactly one high now" is
      // exactly one switching event this evaluate phase (and the matching
      // single fall next precharge): the 100% switching factor.
      for (const auto& [t, f] : pairs) {
        if (sim.net_value(t) == sim.net_value(f)) {
          hot.ok = false;
          hot.detail = "cycle " + std::to_string(cycle) + ": pair " +
                       diff.net(t).name + " rails both " +
                       std::to_string(sim.net_value(t));
          break;
        }
      }
    }
    compare_outputs(cycle, v);
    if (seq) ref.step_clock();
  }
  return {std::move(pre), std::move(hot), std::move(agree)};
}

/// Deep tier: two full secure-flow runs (the second with tracing and
/// metrics enabled) must produce byte-identical artifacts, and the
/// extracted differential layout must satisfy the §5 matched-load bound.
std::vector<OracleVerdict> deep_flow_oracles(
    const Built& built, const std::shared_ptr<const CellLibrary>& base,
    const OracleOptions& opts, std::string* edit, bool* injectable) {
  std::vector<OracleVerdict> out;
  std::optional<SecureFlowResult> r1;
  try {
    r1.emplace(run_secure_flow(built.circuit, base));
  } catch (const Error& e) {
    const std::string what = e.what();
    if (what.find("does not fit the evaluate half-cycle") !=
        std::string::npos) {
      // Correct rejection of a timing-infeasible design, not a bug.
      out.push_back({"secure-flow", true, "skipped: timing-infeasible"});
      return out;
    }
    out.push_back({"secure-flow", false, what});
    return out;
  }

  {
    OracleVerdict v{"flow-obs-invariance", true, ""};
    try {
      Tracer::global().set_enabled(true);
      Metrics::global().set_enabled(true);
      SecureFlowResult r2 = run_secure_flow(built.circuit, base);
      Tracer::global().set_enabled(false);
      Metrics::global().set_enabled(false);
      const auto d1 = artifact_digests(*r1);
      const auto d2 = artifact_digests(r2);
      if (d1 != d2) {
        v.ok = false;
        for (std::size_t i = 0; i < d1.size() && i < d2.size(); ++i) {
          if (d1[i] != d2[i]) {
            v.detail = "artifact " + d1[i].first + " differs: " +
                       d1[i].second + " vs " + d2[i].second;
            break;
          }
        }
        if (v.detail.empty()) v.detail = "artifact lists differ in length";
      }
    } catch (const std::exception& e) {
      Tracer::global().set_enabled(false);
      Metrics::global().set_enabled(false);
      v.ok = false;
      v.detail = std::string("second run failed: ") + e.what();
    }
    out.push_back(std::move(v));
  }

  {
    OracleVerdict v{"wddl-cap-mismatch", true, ""};
    Extraction ex = r1->extraction;
    if (opts.inject == FaultKind::kCapImbalance) {
      *edit = inject_cap_imbalance(ex);
      if (edit->empty()) *injectable = false;
    }
    const auto mm = rail_mismatch_ff(ex);
    double worst = 0.0, sum = 0.0;
    std::string worst_net;
    for (const auto& [net, m] : mm) {
      sum += m;
      if (m > worst) {
        worst = m;
        worst_net = net;
      }
    }
    const double mean = mm.empty() ? 0.0 : sum / static_cast<double>(mm.size());
    if (worst >= opts.cap_worst_ff || mean >= opts.cap_mean_ff) {
      v.ok = false;
      v.detail = "pair " + worst_net + " worst " + std::to_string(worst) +
                 " fF (bound " + std::to_string(opts.cap_worst_ff) +
                 "), mean " + std::to_string(mean) + " fF (bound " +
                 std::to_string(opts.cap_mean_ff) + ")";
    }
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace

OracleReport run_oracle_battery(const HdlModule& p,
                                const OracleOptions& opts) {
  OracleReport rep;
  auto base = builtin_stdcell018();
  WddlLibrary wlib(base);

  std::optional<Built> built;
  try {
    built.emplace(build_artifacts(p, wlib, opts.inject, &rep.injected_edit,
                                  &rep.injectable));
  } catch (const std::exception& e) {
    rep.verdicts.push_back(
        {"pipeline", false, std::string("exception: ") + e.what()});
    return rep;
  }

  // --- tier 1: metamorphic ---------------------------------------------------
  try {
    const DigestChain chain = digest_chain(built->circuit, *base);
    rep.verdicts.push_back(
        digest_neutral_oracle("metamorphic-rename-digest",
                              rename_wires(p, opts.seed ^ 0x11), chain, *base));
    rep.verdicts.push_back(digest_neutral_oracle(
        "metamorphic-shuffle-digest", shuffle_statements(p, opts.seed ^ 0x22),
        chain, *base));
  } catch (const std::exception& e) {
    rep.verdicts.push_back({"metamorphic-rename-digest", false,
                            std::string("exception: ") + e.what()});
  }
  {
    // Port permutation reorders the netlist boundary, so artifacts may
    // legitimately differ byte-wise; the invariant is logical equivalence
    // under the name-based correspondence.
    OracleVerdict v{"metamorphic-port-permutation", true, ""};
    try {
      const HdlModule variant = permute_ports(p, opts.seed ^ 0x33);
      const Netlist vrtl = technology_map(parse_hdl(emit_hdl(variant)),
                                          base, wddl_synth_constraints());
      v.detail = lec_detail(check_equivalence(vrtl, built->rtl));
      v.ok = v.detail.empty();
    } catch (const std::exception& e) {
      v.ok = false;
      v.detail = std::string("exception: ") + e.what();
    }
    rep.verdicts.push_back(std::move(v));
  }

  // --- tier 3: cross-checks (cheap ones before the simulations) -------------
  {
    OracleVerdict v{"cross-lec-fat-rtl", true, ""};
    try {
      v.detail = lec_detail(check_equivalence(built->fat, built->rtl));
      v.ok = v.detail.empty();
    } catch (const std::exception& e) {
      v.ok = false;
      v.detail = std::string("exception: ") + e.what();
    }
    rep.verdicts.push_back(std::move(v));
  }
  try {
    rep.verdicts.push_back(
        sim_agreement_oracle(p, built->rtl, built->fat, opts));
  } catch (const std::exception& e) {
    rep.verdicts.push_back(
        {"cross-sim-fat-rtl", false, std::string("exception: ") + e.what()});
  }
  try {
    rep.verdicts.push_back(step_run_oracle(*built, opts));
  } catch (const std::exception& e) {
    rep.verdicts.push_back(
        {"cross-sim-step-run", false, std::string("exception: ") + e.what()});
  }

  // --- tier 2: security invariants on the differential netlist --------------
  try {
    for (auto& v : wddl_sim_oracles(p, *built, opts))
      rep.verdicts.push_back(std::move(v));
  } catch (const std::exception& e) {
    rep.verdicts.push_back(
        {"wddl-sim", false, std::string("exception: ") + e.what()});
  }

  // --- deep tier: full flow --------------------------------------------------
  if (opts.deep) {
    try {
      for (auto& v : deep_flow_oracles(*built, base, opts, &rep.injected_edit,
                                       &rep.injectable))
        rep.verdicts.push_back(std::move(v));
    } catch (const std::exception& e) {
      rep.verdicts.push_back(
          {"secure-flow", false, std::string("exception: ") + e.what()});
    }
  }
  return rep;
}

}  // namespace secflow
