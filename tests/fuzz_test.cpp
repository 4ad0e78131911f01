// Differential fuzzing of the simulation substrate: random combinational
// netlists are evaluated by TimingSim (single topological pass) and by an
// independent oracle (iterate-to-fixpoint, order-independent), and the
// batch kernel is checked lane by lane against TimingSim. Any
// divergence in functional values, any sensitized arrival beyond the STA
// bound, or any structural-validation miss is a bug in the engine the whole
// reproduction stands on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "src/aging/stress.hpp"
#include "src/lint/engine.hpp"
#include "src/lint/repair.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/netlist/builder.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/surgeon.hpp"
#include "src/netlist/techlib.hpp"
#include "src/sim/batch_sim.hpp"
#include "src/sim/sta.hpp"
#include "src/sim/timing_sim.hpp"
#include "src/workload/rng.hpp"
#include "tests/stress_oracle.hpp"

namespace agingsim {
namespace {

// Random DAG netlist: gates draw inputs uniformly from all earlier nets.
Netlist random_netlist(Rng& rng, int num_inputs, int num_gates) {
  Netlist nl;
  for (int i = 0; i < num_inputs; ++i) {
    nl.add_input("in" + std::to_string(i));
  }
  constexpr CellKind kKinds[] = {
      CellKind::kBuf,  CellKind::kInv,   CellKind::kAnd2, CellKind::kNand2,
      CellKind::kOr2,  CellKind::kNor2,  CellKind::kXor2, CellKind::kXnor2,
      CellKind::kAnd3, CellKind::kOr3,   CellKind::kMux2, CellKind::kTbuf,
      CellKind::kTie0, CellKind::kTie1};
  for (int g = 0; g < num_gates; ++g) {
    const CellKind kind =
        kKinds[rng.next_below(sizeof(kKinds) / sizeof(kKinds[0]))];
    const int n_in = cell_traits(kind).num_inputs;
    std::vector<NetId> ins;
    for (int k = 0; k < n_in; ++k) {
      ins.push_back(static_cast<NetId>(rng.next_below(nl.num_nets())));
    }
    nl.add_gate(kind, ins);
  }
  // Mark the last few nets as outputs.
  for (int i = 0; i < 4 && i < static_cast<int>(nl.num_nets()); ++i) {
    nl.mark_output(static_cast<NetId>(nl.num_nets() - 1 -
                                      static_cast<std::size_t>(i)),
                   "out" + std::to_string(i));
  }
  return nl;
}

/// Order-independent oracle: re-evaluates every gate until nothing changes.
/// Keeper state (TBUF) is carried across steps in `values`.
void fixpoint_eval(const Netlist& nl, std::span<const Logic> inputs,
                   std::vector<Logic>& values) {
  const auto in_nets = nl.input_nets();
  for (std::size_t i = 0; i < in_nets.size(); ++i) {
    values[in_nets[i]] = inputs[i];
  }
  bool changed = true;
  int rounds = 0;
  while (changed) {
    changed = false;
    ASSERT_LT(++rounds, 1000) << "oracle failed to converge";
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      const Gate& gate = nl.gate(g);
      std::vector<Logic> in_vals;
      for (NetId in : nl.gate_inputs(g)) in_vals.push_back(values[in]);
      const Logic next = eval_cell(gate.kind, in_vals, values[gate.out]);
      if (next != values[gate.out]) {
        values[gate.out] = next;
        changed = true;
      }
    }
  }
}

TEST(FuzzTest, TimingSimMatchesFixpointOracle) {
  Rng rng(0xF022);
  for (int trial = 0; trial < 40; ++trial) {
    const Netlist nl = random_netlist(rng, 6, 60);
    ASSERT_NO_THROW(nl.validate());
    TimingSim sim(nl, default_tech_library());
    std::vector<Logic> oracle(nl.num_nets(), Logic::kX);
    std::vector<Logic> pattern(nl.num_inputs());
    for (int step = 0; step < 30; ++step) {
      for (auto& v : pattern) v = logic_from_bool((rng.next() & 1) != 0);
      sim.step(pattern);
      fixpoint_eval(nl, pattern, oracle);
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        ASSERT_EQ(sim.value(n), oracle[n])
            << "trial " << trial << " step " << step << " net " << n;
      }
    }
  }
}

TEST(FuzzTest, SensitizedArrivalsNeverExceedSta) {
  Rng rng(0xF023);
  for (int trial = 0; trial < 25; ++trial) {
    const Netlist nl = random_netlist(rng, 5, 80);
    const StaResult sta = run_sta(nl, default_tech_library());
    // settle_ps spans *all* nets; random netlists have dead-end logic
    // deeper than any marked output, so bound it by the deepest net, not
    // by the output-only critical path.
    double deepest = 0.0;
    for (double a : sta.arrival_ps) deepest = std::max(deepest, a);
    TimingSim sim(nl, default_tech_library());
    std::vector<Logic> pattern(nl.num_inputs());
    for (int step = 0; step < 20; ++step) {
      for (auto& v : pattern) v = logic_from_bool((rng.next() & 1) != 0);
      const StepResult r = sim.step(pattern);
      EXPECT_LE(r.settle_ps, deepest + 1e-9);
      EXPECT_LE(r.output_settle_ps, sta.critical_path_ps + 1e-9);
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        EXPECT_LE(sim.arrival(n), sta.arrival_ps[n] + 1e-9) << n;
      }
    }
  }
}

TEST(FuzzTest, RepeatedPatternIsAlwaysSilent) {
  // Idempotence: re-applying the same pattern must produce no activity and
  // no delay, whatever the netlist (including tri-state keepers).
  Rng rng(0xF024);
  for (int trial = 0; trial < 25; ++trial) {
    const Netlist nl = random_netlist(rng, 6, 50);
    TimingSim sim(nl, default_tech_library());
    std::vector<Logic> pattern(nl.num_inputs());
    for (int step = 0; step < 10; ++step) {
      for (auto& v : pattern) v = logic_from_bool((rng.next() & 1) != 0);
      sim.step(pattern);
      const StepResult again = sim.step(pattern);
      EXPECT_EQ(again.toggles, 0u);
      EXPECT_DOUBLE_EQ(again.settle_ps, 0.0);
      EXPECT_DOUBLE_EQ(again.switched_cap_ff, 0.0);
    }
  }
}

TEST(FuzzTest, DensityIsFiniteAndNonNegative) {
  Rng rng(0xF025);
  for (int trial = 0; trial < 20; ++trial) {
    const Netlist nl = random_netlist(rng, 6, 70);
    TimingSim sim(nl, default_tech_library());
    std::vector<Logic> pattern(nl.num_inputs());
    for (int step = 0; step < 15; ++step) {
      for (auto& v : pattern) v = logic_from_bool((rng.next() & 1) != 0);
      const StepResult r = sim.step(pattern);
      EXPECT_GE(r.switched_cap_ff, 0.0);
      EXPECT_TRUE(std::isfinite(r.switched_cap_ff));
    }
  }
}

// ---------------------------------------------------------------------------
// Batch kernel vs the dense scalar oracle on random netlists. The generated
// multipliers never exercise several lane-slot corner cases; this netlist
// shape does: gates reading only primary inputs (no arrival slot), some of
// them primary outputs; a primary input marked as an output; inputs drawn
// from far back (long live ranges) and outputs on early nets (live to the
// end of the sweep); nets nobody reads; and tri-states whose enable sits at
// 0 or a tie, so keepers hold their power-up X across words.
// ---------------------------------------------------------------------------

Netlist differential_netlist(Rng& rng, int num_inputs, int num_gates) {
  Netlist nl;
  for (int i = 0; i < num_inputs; ++i) {
    nl.add_input("in" + std::to_string(i));
  }
  constexpr CellKind kKinds[] = {
      CellKind::kBuf,  CellKind::kInv,  CellKind::kAnd2, CellKind::kNand2,
      CellKind::kOr2,  CellKind::kNor2, CellKind::kXor2, CellKind::kXnor2,
      CellKind::kAnd3, CellKind::kOr3,  CellKind::kMux2, CellKind::kTbuf,
      CellKind::kTbuf, CellKind::kTie0, CellKind::kTie1};
  std::vector<NetId> inputs_only;  // outputs of gates reading only inputs
  for (int g = 0; g < num_gates; ++g) {
    const CellKind kind =
        kKinds[rng.next_below(sizeof(kKinds) / sizeof(kKinds[0]))];
    const int n_in = cell_traits(kind).num_inputs;
    // 0: primary inputs only; 1: the oldest quarter of the nets; else any.
    const std::uint64_t source = rng.next_below(4);
    const std::size_t pool =
        source == 0 ? static_cast<std::size_t>(num_inputs)
        : source == 1 ? std::max<std::size_t>(nl.num_nets() / 4, 1)
                      : nl.num_nets();
    std::vector<NetId> ins;
    for (int k = 0; k < n_in; ++k) {
      ins.push_back(static_cast<NetId>(rng.next_below(pool)));
    }
    const NetId out = nl.add_gate(kind, ins);
    if (source == 0) inputs_only.push_back(out);
  }
  std::vector<NetId> outs = {
      static_cast<NetId>(nl.num_nets() - 1),
      static_cast<NetId>(nl.num_nets() - 2),
      static_cast<NetId>(rng.next_below(static_cast<std::uint64_t>(
          num_inputs))),
      static_cast<NetId>(num_inputs + static_cast<int>(rng.next_below(
                                          static_cast<std::uint64_t>(
                                              num_gates / 4))))};
  if (!inputs_only.empty()) {
    outs.push_back(inputs_only[rng.next_below(inputs_only.size())]);
  }
  std::sort(outs.begin(), outs.end());
  outs.erase(std::unique(outs.begin(), outs.end()), outs.end());
  for (std::size_t i = 0; i < outs.size(); ++i) {
    nl.mark_output(outs[i], "out" + std::to_string(i));
  }
  return nl;
}

/// Random overlay with every fault kind; transients land on the next
/// `horizon` steps after `step`.
FaultOverlay random_overlay(Rng& rng, const Netlist& nl, std::int64_t step,
                            std::uint64_t horizon) {
  FaultOverlay overlay(nl.num_gates());
  const auto gate = [&] {
    return static_cast<GateId>(rng.next_below(nl.num_gates()));
  };
  overlay.add({.kind = FaultKind::kStuckAt0, .gate = gate()});
  overlay.add({.kind = FaultKind::kStuckAt1, .gate = gate()});
  overlay.add({.kind = FaultKind::kDelayOutlier,
               .gate = gate(),
               .delay_factor = 1.0 + 3.0 * rng.next_double()});
  for (int t = 0; t < 3; ++t) {
    overlay.add({.kind = FaultKind::kTransient,
                 .gate = gate(),
                 .cycle = step + static_cast<std::int64_t>(
                                     rng.next_below(horizon))});
  }
  return overlay;
}

/// Steps `batch` one word of `lanes` random patterns and `dense` through
/// the same patterns one at a time; every StepResult field and every
/// per-lane net value must match exactly. Returns false on a mismatch.
bool step_both(Rng& rng, BatchTimingSim& batch, TimingSim& dense, int lanes) {
  const Netlist& nl = batch.netlist();
  std::vector<std::uint64_t> words(nl.num_inputs());
  for (auto& w : words) w = rng.next();
  const std::span<const StepResult> res = batch.step_word(words, lanes);
  std::vector<Logic> pattern(nl.num_inputs());
  for (int l = 0; l < lanes; ++l) {
    for (std::size_t i = 0; i < pattern.size(); ++i) {
      pattern[i] = logic_from_bool(((words[i] >> l) & 1u) != 0);
    }
    const StepResult d = dense.step(pattern);
    const StepResult& b = res[static_cast<std::size_t>(l)];
    EXPECT_EQ(d.output_settle_ps, b.output_settle_ps) << "lane " << l;
    EXPECT_EQ(d.settle_ps, b.settle_ps) << "lane " << l;
    EXPECT_EQ(d.toggles, b.toggles) << "lane " << l;
    EXPECT_EQ(d.switched_cap_ff, b.switched_cap_ff) << "lane " << l;
    if (testing::Test::HasFailure()) return false;
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      if (dense.value(n) != batch.lane_value(n, l)) {
        ADD_FAILURE() << "net " << n << " lane " << l;
        return false;
      }
    }
  }
  return true;
}

TEST(FuzzTest, BatchKernelMatchesDenseOnRandomNetlists) {
  Rng rng(0xF02A);
  int keepers_holding_x = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const Netlist nl = differential_netlist(rng, 7, 90);
    BatchTimingSim batch(nl, default_tech_library());
    TimingSim dense(nl, default_tech_library());
    for (int word = 0; word < 4; ++word) {
      // Full words, then a partial last word.
      const int lanes = word < 3 ? kBatchLanes
                                 : 1 + static_cast<int>(rng.next_below(63));
      ASSERT_TRUE(step_both(rng, batch, dense, lanes))
          << "trial " << trial << " word " << word;
    }
    for (GateId g = 0; g < nl.num_gates(); ++g) {
      if (nl.gate(g).kind == CellKind::kTbuf &&
          dense.value(nl.gate(g).out) == Logic::kX) {
        ++keepers_holding_x;
      }
    }
  }
  // The shape this test exists for actually occurred.
  EXPECT_GT(keepers_holding_x, 0);
}

TEST(FuzzTest, BatchKernelMatchesDenseAcrossOverlaySwaps) {
  Rng rng(0xF02B);
  for (int trial = 0; trial < 40; ++trial) {
    const Netlist nl = differential_netlist(rng, 6, 80);
    BatchTimingSim batch(nl, default_tech_library());
    TimingSim dense(nl, default_tech_library());
    std::vector<std::unique_ptr<FaultOverlay>> overlays;
    for (int word = 0; word < 8; ++word) {
      const int lanes = 1 + static_cast<int>(rng.next_below(kBatchLanes));
      switch (rng.next_below(4)) {
        case 0: {  // age the circuit (or make it fresh again)
          std::vector<double> scales;
          if ((rng.next() & 1) != 0) {
            scales.resize(nl.num_gates());
            for (auto& x : scales) x = 1.0 + 0.5 * rng.next_double();
          }
          batch.set_aging(scales);
          dense.set_aging(scales);
          break;
        }
        case 1:  // strikes land in this word and, past it, the next one
          overlays.push_back(std::make_unique<FaultOverlay>(random_overlay(
              rng, nl, dense.steps(), static_cast<std::uint64_t>(lanes) + 8)));
          batch.set_fault_overlay(overlays.back().get());
          dense.set_fault_overlay(overlays.back().get());
          break;
        case 2:
          batch.set_fault_overlay(nullptr);
          dense.set_fault_overlay(nullptr);
          break;
        default:
          break;
      }
      ASSERT_TRUE(step_both(rng, batch, dense, lanes))
          << "trial " << trial << " word " << word;
    }
  }
}

// ---------------------------------------------------------------------------
// Lint fuzzing: mutate valid random netlists the way buggy generators would
// (dropped pins, duplicated drivers, out-of-library kinds, combinational
// back-edges, dangling outputs, severed Razor taps) and require the lint
// engine to (a) never crash and (b) always flag the injected defect.
// ---------------------------------------------------------------------------

std::size_t lint_errors(const Netlist& nl) {
  lint::LintContext ctx;
  ctx.netlist = &nl;
  return lint::LintEngine().run(ctx).errors();
}

TEST(FuzzTest, LintFlagsEveryInjectedStructuralDefect) {
  Rng rng(0xF026);
  int injected = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Netlist nl = random_netlist(rng, 6, 40);
    ASSERT_EQ(lint_errors(nl), 0u) << "baseline must be clean, trial "
                                   << trial;
    NetlistSurgeon surgeon(nl);
    const auto mutation = rng.next_below(5);
    // Mutations needing a gate with at least one pin skip tie-only picks.
    const GateId g = static_cast<GateId>(rng.next_below(nl.num_gates()));
    switch (mutation) {
      case 0: {  // dropped pin (every cell kind has a fixed arity)
        if (nl.gate(g).in_count == 0) continue;
        surgeon.set_gate_pin_count(
            g, static_cast<std::uint16_t>(nl.gate(g).in_count - 1));
        break;
      }
      case 1: {  // duplicated driver: a second net claims gate g
        const NetId victim =
            static_cast<NetId>(rng.next_below(nl.num_nets()));
        if (victim == nl.gate(g).out) continue;
        surgeon.set_driver(victim, static_cast<std::int32_t>(g));
        break;
      }
      case 2:  // out-of-library cell kind
        surgeon.set_gate_kind(g, CellKind::kCount);
        break;
      case 3: {  // combinational back-edge: gate reads its own output
        if (nl.gate(g).in_count == 0) continue;
        surgeon.set_pin(nl.gate(g).in_begin, nl.gate(g).out);
        break;
      }
      default:  // dangling output
        surgeon.set_output_net(0, static_cast<NetId>(nl.num_nets() + 99));
        break;
    }
    ++injected;
    std::size_t errors = 0;
    ASSERT_NO_THROW(errors = lint_errors(nl))
        << "lint crashed on mutation " << mutation << " trial " << trial;
    EXPECT_GE(errors, 1u) << "mutation " << mutation << " undetected, trial "
                          << trial;
  }
  // The skip branches (tie cells, self-aliased victim) must not hollow the
  // test out.
  EXPECT_GE(injected, 40);
}

// The surgeon's *repair* primitives are the dual of its corruption
// primitives: random benign buffer insertions (mid-graph, with full
// renumbering, and at endpoints) must never trip a single lint rule and
// must preserve the logic function exactly — the guarantee the hold-repair
// pass builds on.
TEST(FuzzTest, BenignBufferInsertionsStayLintCleanAndEquivalent) {
  Rng rng(0xF028);
  for (int trial = 0; trial < 30; ++trial) {
    Netlist nl = random_netlist(rng, 6, 40);
    ASSERT_EQ(lint_errors(nl), 0u) << "baseline must be clean, trial "
                                   << trial;
    const Netlist original = nl;
    for (int m = 0; m < 4; ++m) {
      if (rng.next_below(4) == 0) {
        NetlistSurgeon(nl).insert_output_buffer(
            rng.next_below(nl.num_outputs()),
            static_cast<int>(1 + rng.next_below(3)));
        continue;
      }
      const GateId g = static_cast<GateId>(rng.next_below(nl.num_gates()));
      if (nl.gate(g).in_count == 0) continue;
      const NetId in = nl.gate_inputs(g)[rng.next_below(nl.gate(g).in_count)];
      NetlistSurgeon(nl).insert_buffer(in, g,
                                       static_cast<int>(1 + rng.next_below(3)));
    }
    ASSERT_NO_THROW(nl.validate()) << "trial " << trial;
    EXPECT_EQ(lint_errors(nl), 0u) << "benign mutation flagged, trial "
                                   << trial;
    const lint::EquivalenceSummary eq =
        lint::check_logic_equivalence(original, nl, 64, 0xF028u + trial);
    EXPECT_TRUE(eq.ok()) << "logic changed, trial " << trial << " ("
                         << eq.mismatches << " lanes)";
  }
}

/// Output lanes on which `a` and `b` disagree over the vectors
/// check_logic_equivalence draws, stepped one at a time through two scalar
/// simulators.
std::size_t scalar_output_mismatches(const Netlist& a, const Netlist& b,
                                     std::size_t vectors, std::uint64_t seed) {
  TimingSim sim_a(a, default_tech_library());
  TimingSim sim_b(b, default_tech_library());
  Rng rng(seed);
  std::vector<std::uint64_t> words(a.num_inputs());
  std::vector<Logic> pattern(a.num_inputs());
  std::size_t mismatches = 0;
  for (std::size_t v = 0; v < vectors; ++v) {
    const int lane = static_cast<int>(v % 64);
    if (lane == 0) {
      for (std::uint64_t& w : words) w = rng.next() | (v == 0 ? 1u : 0u);
    }
    for (std::size_t i = 0; i < words.size(); ++i) {
      pattern[i] = logic_from_bool(((words[i] >> lane) & 1u) != 0);
    }
    sim_a.step(pattern);
    sim_b.step(pattern);
    for (std::size_t o = 0; o < a.num_outputs(); ++o) {
      if (sim_a.value(a.output_nets()[o]) != sim_b.value(b.output_nets()[o])) {
        ++mismatches;
      }
    }
  }
  return mismatches;
}

// The values-only sweep behind check_logic_equivalence must still see a
// changed function: one gate swapped for another of the same arity is
// reported on exactly the lanes the scalar simulator disagrees on.
TEST(FuzzTest, EquivalenceCheckCountsAlteredLogicExactly) {
  MultiplierNetlist mult = build_column_bypass_multiplier(8);
  const Netlist original = mult.netlist;
  // p[0] = a0 AND b0; as an OR it differs whenever exactly one is odd.
  const auto driver = mult.netlist.driver_of(mult.netlist.output_nets()[0]);
  ASSERT_GE(driver, 0);
  NetlistSurgeon(mult.netlist)
      .set_gate_kind(static_cast<GateId>(driver), CellKind::kOr2);
  const lint::EquivalenceSummary eq =
      lint::check_logic_equivalence(original, mult.netlist, 200, 0xE9u);
  EXPECT_FALSE(eq.ok());
  EXPECT_GT(eq.mismatches, 0u);
  EXPECT_EQ(eq.mismatches,
            scalar_output_mismatches(original, mult.netlist, 200, 0xE9u));

  // An output stuck at X (a tri-state never enabled) differs from a
  // constant 0 only in the unknown plane: every lane mismatches.
  NetlistBuilder floating;
  {
    const NetId a = floating.input("a");
    const NetId b = floating.input("b");
    floating.netlist().mark_output(
        floating.tbuf(a, floating.and2(b, floating.inv(b))), "y");
  }
  NetlistBuilder grounded;
  {
    const NetId a = grounded.input("a");
    grounded.input("b");
    grounded.netlist().mark_output(grounded.and2(a, grounded.inv(a)), "y");
  }
  EXPECT_EQ(lint::check_logic_equivalence(floating.netlist(),
                                          grounded.netlist(), 100, 3)
                .mismatches,
            100u);

  constexpr CellKind kTwoInput[] = {CellKind::kAnd2, CellKind::kNand2,
                                    CellKind::kOr2,  CellKind::kNor2,
                                    CellKind::kXor2, CellKind::kXnor2};
  Rng rng(0xF02A);
  int altered = 0;
  for (int trial = 0; trial < 60; ++trial) {
    Netlist nl = random_netlist(rng, 6, 40);
    const Netlist before = nl;
    const GateId g = static_cast<GateId>(rng.next_below(nl.num_gates()));
    if (cell_traits(nl.gate(g).kind).num_inputs != 2 ||
        nl.gate(g).kind == CellKind::kTbuf) {
      continue;
    }
    CellKind kind = nl.gate(g).kind;
    while (kind == nl.gate(g).kind) kind = kTwoInput[rng.next_below(6)];
    NetlistSurgeon(nl).set_gate_kind(g, kind);
    ++altered;
    const std::uint64_t seed = rng.next();
    EXPECT_EQ(lint::check_logic_equivalence(before, nl, 130, seed).mismatches,
              scalar_output_mismatches(before, nl, 130, seed))
        << "trial " << trial;
  }
  EXPECT_GT(altered, 10);
}

// estimate_stress against the pattern-at-a-time scalar oracle on random
// netlists: tri-states fed by power-up X or rarely enabled, muxes with X
// data and ties, over pattern counts whose last word is partial and whose
// keeper state crosses word edges.
TEST(FuzzTest, StressWordSweepMatchesScalarOracle) {
  Rng rng(0xF029);
  for (int trial = 0; trial < 300; ++trial) {
    const Netlist nl = random_netlist(rng, 6, 60);
    for (const std::size_t n : {1, 37, 64, 65, 130, 200}) {
      const std::uint64_t seed = rng.next();
      ASSERT_TRUE(testing_oracle::identical_profiles(
          estimate_stress(nl, seed, n),
          testing_oracle::scalar_stress(nl, seed, n)))
          << "trial " << trial << " patterns " << n;
    }
  }
}

TEST(FuzzTest, LintEngineNeverCrashesOnRandomMutants) {
  Rng rng(0xF027);
  for (int trial = 0; trial < 40; ++trial) {
    Netlist nl = random_netlist(rng, 5, 30);
    NetlistSurgeon surgeon(nl);
    for (int m = 0; m < 3; ++m) {
      const GateId g = static_cast<GateId>(rng.next_below(nl.num_gates()));
      const NetId anywhere =
          static_cast<NetId>(rng.next_below(nl.num_nets() + 20));
      switch (rng.next_below(7)) {
        case 0:
          surgeon.set_gate_kind(g, static_cast<CellKind>(rng.next_below(20)));
          break;
        case 1:
          surgeon.set_gate_pin_count(
              g, static_cast<std::uint16_t>(rng.next_below(6)));
          break;
        case 2:
          surgeon.set_gate_pin_begin(
              g, static_cast<std::uint32_t>(rng.next_below(nl.num_pins() + 30)));
          break;
        case 3:
          if (nl.num_pins() != 0) {
            surgeon.set_pin(rng.next_below(nl.num_pins()), anywhere);
          }
          break;
        case 4:
          surgeon.set_driver(
              static_cast<NetId>(rng.next_below(nl.num_nets())),
              static_cast<std::int32_t>(rng.next_below(nl.num_gates() + 3)) -
                  2);
          break;
        case 5:
          surgeon.set_gate_out(g, anywhere);
          break;
        default:
          surgeon.set_output_net(rng.next_below(nl.num_outputs()), anywhere);
          break;
      }
    }
    lint::LintReport report;
    ASSERT_NO_THROW(report = lint::LintEngine().run(
                        lint::LintContext{.netlist = &nl}))
        << "trial " << trial;
    // Whatever happened, the report must be internally consistent.
    EXPECT_EQ(report.errors() + report.warnings() + report.infos(),
              report.diagnostics.size());
  }
}

TEST(FuzzTest, LintFlagsSeveredRazorTapOnRandomNetlists) {
  Rng rng(0xF028);
  const TechLibrary& tech = default_tech_library();
  int effective = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Netlist nl = random_netlist(rng, 6, 60);
    const StaResult sta = run_sta(nl, tech);
    // Victim: the output with the deepest arrival (must be late enough that
    // halving its arrival still leaves it past the period).
    std::size_t victim = 0;
    double worst = 0.0;
    for (std::size_t i = 0; i < nl.num_outputs(); ++i) {
      const double a = sta.arrival_ps[nl.output_nets()[i]];
      if (a > worst) {
        worst = a;
        victim = i;
      }
    }
    if (worst <= 0.0) continue;  // all outputs are tie cells; nothing late
    ++effective;
    lint::TimingContext timing;
    timing.tech = &tech;
    timing.period_ps = worst / 2.0;
    timing.razor_protected.assign(nl.num_outputs(), 1);
    timing.razor_protected[victim] = 0;
    lint::LintContext ctx;
    ctx.netlist = &nl;
    ctx.timing = &timing;
    lint::LintReport report;
    ASSERT_NO_THROW(report = lint::LintEngine().run(ctx)) << trial;
    bool flagged = false;
    for (const auto& d : report.diagnostics) {
      if (d.rule == "timing.razor-coverage" &&
          d.severity == lint::Severity::kError &&
          d.net == nl.output_nets()[victim]) {
        flagged = true;
      }
    }
    EXPECT_TRUE(flagged) << "severed tap on output " << victim
                         << " undetected, trial " << trial;
  }
  EXPECT_GE(effective, 15);
}

}  // namespace
}  // namespace agingsim
