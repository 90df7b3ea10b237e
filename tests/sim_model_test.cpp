// The compile-once / simulate-many contract of CompiledSimModel:
//
//   * reset() + reuse is bit-identical to fresh construction, per trace,
//     at any thread count (simulate_traces reuses one simulator per
//     worker chunk);
//   * one immutable model is safely shared by all workers (this suite is
//     named Parallel* so the TSan certification build runs it);
//   * the exp-recurrence charge deposit conserves the total charge and
//     matches the two-exp closed form per sample;
//   * id-based accessors agree with the string API, and the legacy
//     (netlist, caps, opts) constructor behaves like an explicit model.
//
//   cmake -B build-tsan -DSECFLOW_SANITIZE=thread && ctest -R Parallel
#include "sim/sim_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "base/error.h"
#include "base/rng.h"
#include "crypto/des.h"
#include "liberty/builtin_lib.h"
#include "sim/trace_sim.h"
#include "synth/hdl.h"
#include "synth/techmap.h"

namespace secflow {
namespace {

class ParallelSimModel : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    lib_ = builtin_stdcell018();
    rtl_ = new Netlist(technology_map(make_des_dpa_circuit(), lib_));
  }
  static void TearDownTestSuite() {
    delete rtl_;
    rtl_ = nullptr;
    lib_.reset();
  }

  Netlist map_hdl(const std::string& src) {
    return technology_map(parse_hdl(src), lib_);
  }

  static std::shared_ptr<const CellLibrary> lib_;
  static Netlist* rtl_;
};

std::shared_ptr<const CellLibrary> ParallelSimModel::lib_;
Netlist* ParallelSimModel::rtl_ = nullptr;

/// The reduced-DES encryption task, id-resolved against the model once.
TraceTask des_task(const CompiledSimModel& model) {
  const Netlist& nl = model.netlist();
  auto ports = std::make_shared<std::vector<std::vector<PortId>>>();
  auto resolve = [&nl](const std::string& base, int width) {
    std::vector<PortId> ids;
    for (int i = 0; i < width; ++i) {
      ids.push_back(nl.find_port(base + "_" + std::to_string(i)));
    }
    return ids;
  };
  ports->push_back(resolve("k", 6));
  ports->push_back(resolve("pl", 4));
  ports->push_back(resolve("pr", 6));
  ports->push_back(resolve("cl", 4));
  return [ports](PowerSimulator& sim, Rng& rng, std::uint64_t) {
    auto drive = [&sim](const std::vector<PortId>& ids, std::uint32_t v) {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        sim.set_input(ids[i], (v >> i) & 1);
      }
    };
    drive((*ports)[0], 46);
    drive((*ports)[1], static_cast<std::uint32_t>(rng.next_below(16)));
    drive((*ports)[2], static_cast<std::uint32_t>(rng.next_below(64)));
    sim.settle();
    sim.run_cycle();
    drive((*ports)[1], static_cast<std::uint32_t>(rng.next_below(16)));
    drive((*ports)[2], static_cast<std::uint32_t>(rng.next_below(64)));
    sim.run_cycle();
    SimTrace out;
    out.cycle = sim.run_cycle();
    sim.run_cycle();
    for (std::size_t i = 0; i < (*ports)[3].size(); ++i) {
      if (sim.output((*ports)[3][i])) out.observable |= 1u << i;
    }
    return out;
  };
}

void expect_traces_equal(const std::vector<SimTrace>& a,
                         const std::vector<SimTrace>& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].observable, b[i].observable) << what << " trace " << i;
    EXPECT_EQ(a[i].cycle.energy_pj, b[i].cycle.energy_pj)
        << what << " trace " << i;
    EXPECT_EQ(a[i].cycle.transitions, b[i].cycle.transitions)
        << what << " trace " << i;
    ASSERT_EQ(a[i].cycle.current_ma, b[i].cycle.current_ma)
        << what << " trace " << i;
  }
}

TEST_F(ParallelSimModel, ResetReuseBitIdenticalToFreshConstruction) {
  const CompiledSimModel model(*rtl_, {}, PowerSimOptions{});
  const TraceTask task = des_task(model);
  const int n = 16;
  const std::uint64_t seed = 77;

  // Reference: a freshly constructed simulator per trace.
  std::vector<SimTrace> fresh(n);
  for (int i = 0; i < n; ++i) {
    PowerSimulator sim(model);
    Rng rng = Rng::stream(seed, static_cast<std::uint64_t>(i));
    fresh[static_cast<std::size_t>(i)] = task(sim, rng, i);
  }

  // One simulator, reset() between traces.
  {
    PowerSimulator sim(model);
    std::vector<SimTrace> reused(n);
    for (int i = 0; i < n; ++i) {
      if (i != 0) sim.reset();
      Rng rng = Rng::stream(seed, static_cast<std::uint64_t>(i));
      reused[static_cast<std::size_t>(i)] = task(sim, rng, i);
    }
    expect_traces_equal(reused, fresh, "serial reset-reuse");
  }

  // simulate_traces (one simulator per worker chunk) at every thread
  // count, against the same reference.
  for (int threads : {1, 2, 4, 8}) {
    Parallelism par;
    par.n_threads = threads;
    const std::vector<SimTrace> got =
        simulate_traces(model, 0, n, seed, task, par);
    expect_traces_equal(got, fresh,
                        "simulate_traces @" + std::to_string(threads));
  }
}

TEST_F(ParallelSimModel, SharedModelMatchesLegacyPerCallCompilation) {
  // The legacy (netlist, caps, opts) entry point compiles a fresh model;
  // both paths must agree bit-for-bit while 8 workers share one model.
  const CompiledSimModel model(*rtl_, {}, PowerSimOptions{});
  const TraceTask task = des_task(model);
  Parallelism par;
  par.n_threads = 8;
  const std::vector<SimTrace> shared =
      simulate_traces(model, 0, 24, 123, task, par);
  const std::vector<SimTrace> legacy =
      simulate_traces(*rtl_, {}, PowerSimOptions{}, 24, 123, task, par);
  expect_traces_equal(shared, legacy, "shared vs legacy");
}

/// The seed's two-std::exp-per-bin deposit, kept as the reference closed
/// form: charge in [t0, t1) is Q (e^{-(t0-t)/tau} - e^{-(t1-t)/tau}).
std::vector<double> closed_form_deposit(int n_samples, double dt, double t_ps,
                                        double charge_fc, double tau_ps) {
  std::vector<double> trace(static_cast<std::size_t>(n_samples), 0.0);
  int bin = static_cast<int>(t_ps / dt);
  if (bin >= n_samples) return trace;
  if (bin < 0) bin = 0;
  double remaining = charge_fc;
  for (int k = bin; k < n_samples && remaining > 1e-9; ++k) {
    const double t0 = std::max(t_ps, k * dt);
    const double t1 = (k + 1) * dt;
    if (t1 <= t0) continue;
    const double q = charge_fc * (std::exp(-(t0 - t_ps) / tau_ps) -
                                  std::exp(-(t1 - t_ps) / tau_ps));
    trace[static_cast<std::size_t>(k)] += q / dt;
    remaining -= q;
  }
  return trace;
}

TEST_F(ParallelSimModel, RecurrenceDepositMatchesClosedFormAndConservesQ) {
  // One buffer: a 0->1 step makes exactly two rising events — net a
  // (undriven: tau = min_tau) and net y (driven: tau = R_drive * C) — at
  // known times, so the whole cycle trace has an exact closed form.
  const Netlist nl = map_hdl(R"(
    module m (input a, output y);
      assign y = a;
    endmodule)");
  CapTable caps;
  caps["a"] = 12.0;
  caps["y"] = 50.0;
  const PowerSimOptions opts;
  const CompiledSimModel model(nl, caps, opts);
  PowerSimulator sim(model);
  sim.set_input("a", false);
  sim.settle();
  sim.set_input("a", true);
  const CycleTrace t = sim.run_cycle();

  const NetId a = nl.find_net("a");
  const NetId y = nl.find_net("y");
  ASSERT_TRUE(a.valid());
  ASSERT_TRUE(y.valid());
  ASSERT_EQ(model.tau_ps(a.index()), kMinTauPs);
  ASSERT_GT(model.tau_ps(y.index()), kMinTauPs);
  ASSERT_EQ(model.gates().size(), 1u);

  const double dt = model.sample_dt_ps();
  const int n = model.samples_per_cycle();
  ASSERT_EQ(t.current_ma.size(), static_cast<std::size_t>(n));
  // Event times: the input arrives at kInputDelayPs; the buffer output
  // follows after its compiled load-dependent delay.
  const double t_a = kInputDelayPs;
  const double t_y = t_a + model.gates()[0].delay_ps;
  const std::vector<double> exp_a = closed_form_deposit(
      n, dt, t_a, model.charge_fc(a.index()), model.tau_ps(a.index()));
  const std::vector<double> exp_y = closed_form_deposit(
      n, dt, t_y, model.charge_fc(y.index()), model.tau_ps(y.index()));
  for (int k = 0; k < n; ++k) {
    const std::size_t i = static_cast<std::size_t>(k);
    ASSERT_NEAR(t.current_ma[i], exp_a[i] + exp_y[i], 1e-9)
        << "sample " << k;
  }

  // Total sampled charge == the two rising charges (each deposit may
  // leave at most the 1e-9 fC truncation residue behind).
  double sum_fc = 0.0;
  for (double i_ma : t.current_ma) sum_fc += i_ma * dt;
  const double q_fc = model.charge_fc(a.index()) + model.charge_fc(y.index());
  EXPECT_NEAR(sum_fc, q_fc, 2e-9 + q_fc * 1e-12);
}

TEST_F(ParallelSimModel, IdOverloadsAgreeWithStringApi) {
  const Netlist nl = map_hdl(R"(
    module m (input a, input b, output y);
      assign y = a ^ b;
    endmodule)");
  const CompiledSimModel model(nl, {}, PowerSimOptions{});
  const PortId pa = nl.find_port("a");
  const PortId pb = nl.find_port("b");
  const PortId py = nl.find_port("y");
  ASSERT_TRUE(pa.valid() && pb.valid() && py.valid());
  EXPECT_TRUE(model.is_data_input(pa));
  EXPECT_FALSE(model.is_data_input(py));

  PowerSimulator by_id(model);
  PowerSimulator by_name(model);
  for (int vec = 0; vec < 4; ++vec) {
    by_id.set_input(pa, vec & 1);
    by_id.set_input(pb, (vec >> 1) & 1);
    by_name.set_input("a", vec & 1);
    by_name.set_input("b", (vec >> 1) & 1);
    by_id.run_cycle();
    by_name.run_cycle();
    EXPECT_EQ(by_id.output(py), by_name.output("y")) << "vec " << vec;
    EXPECT_EQ(by_id.output_at_eval(py), by_name.output_at_eval("y"));
    EXPECT_EQ(by_id.net_value(nl.port(py).net), by_name.net_value("y"));
  }
  // Driving a non-input by id is rejected like the string API rejects it.
  EXPECT_THROW(by_id.set_input(py, true), Error);
  EXPECT_THROW(by_name.set_input("y", true), Error);
}

TEST_F(ParallelSimModel, LegacyConstructorMatchesExplicitModel) {
  const Netlist nl = map_hdl(R"(
    module m (input a, input b, output y);
      assign y = a & b;
    endmodule)");
  CapTable caps;
  caps["a"] = 3.0;
  caps["y"] = 7.5;
  const CompiledSimModel model(nl, caps, PowerSimOptions{});
  PowerSimulator explicit_sim(model);
  PowerSimulator legacy_sim(nl, caps, PowerSimOptions{});
  auto step = [](PowerSimulator& s, bool a, bool b) {
    s.set_input("a", a);
    s.set_input("b", b);
    return s.run_cycle();
  };
  for (int vec : {0, 3, 1, 2, 3, 0}) {
    const CycleTrace te = step(explicit_sim, vec & 1, (vec >> 1) & 1);
    const CycleTrace tl = step(legacy_sim, vec & 1, (vec >> 1) & 1);
    EXPECT_EQ(te.energy_pj, tl.energy_pj);
    EXPECT_EQ(te.transitions, tl.transitions);
    ASSERT_EQ(te.current_ma, tl.current_ma);
  }
}

}  // namespace
}  // namespace secflow
