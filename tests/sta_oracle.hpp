#pragma once

// Scalar reference for StaEngine. The forward planes come from one
// ascending-gate-id sweep per corner (best / worst input arrival plus the
// scaled cell delay); the downstream bounds are pulled net by net, in
// descending net order, from each net's consumer gates. The engine must
// agree with both exactly (operator==): min and max are exact and every sum
// has the same two operands, so visiting order cannot change a bit.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/netlist/techlib.hpp"

namespace agingsim::testing_oracle {

inline constexpr double kRefInf = std::numeric_limits<double>::infinity();

inline double scaled_delay(const Netlist& nl, const TechLibrary& tech,
                           std::span<const double> scale, GateId g) {
  double d = tech.delay(nl.gate(g).kind);
  if (!scale.empty()) d *= scale[g];
  return d;
}

struct ReferenceTiming {
  std::vector<double> min_arrival_ps;
  std::vector<double> max_arrival_ps;
  double critical_path_ps = 0.0;
  double earliest_output_ps = kRefInf;
};

/// Min/max arrivals of every net; primary inputs and undriven nets sit at 0,
/// and a tie cell (no fanin) launches at 0 in both planes.
inline ReferenceTiming reference_sta(const Netlist& nl,
                                     const TechLibrary& tech,
                                     std::span<const double> scale) {
  ReferenceTiming r;
  r.min_arrival_ps.assign(nl.num_nets(), 0.0);
  r.max_arrival_ps.assign(nl.num_nets(), 0.0);
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    const std::span<const NetId> ins = nl.gate_inputs(g);
    double best = ins.empty() ? 0.0 : kRefInf;
    double worst = 0.0;
    for (const NetId in : ins) {
      best = std::min(best, r.min_arrival_ps[in]);
      worst = std::max(worst, r.max_arrival_ps[in]);
    }
    const double d = scaled_delay(nl, tech, scale, g);
    r.min_arrival_ps[nl.gate(g).out] = best + d;
    r.max_arrival_ps[nl.gate(g).out] = worst + d;
  }
  for (const NetId o : nl.output_nets()) {
    r.critical_path_ps = std::max(r.critical_path_ps, r.max_arrival_ps[o]);
    r.earliest_output_ps = std::min(r.earliest_output_ps, r.min_arrival_ps[o]);
  }
  return r;
}

struct ReferenceDownstream {
  std::vector<double> min_ps;
  std::vector<double> max_ps;
};

/// Shortest / longest delay from each net to any flagged endpoint net:
/// 0 at an endpoint (the max side also sees endpoints further down),
/// +inf / -inf where no endpoint is reachable.
inline ReferenceDownstream reference_downstream(
    const Netlist& nl, const TechLibrary& tech, std::span<const double> scale,
    std::span<const std::uint8_t> endpoint_net) {
  std::vector<std::vector<GateId>> readers(nl.num_nets());
  for (GateId g = 0; g < nl.num_gates(); ++g) {
    for (const NetId in : nl.gate_inputs(g)) readers[in].push_back(g);
  }
  ReferenceDownstream d;
  d.min_ps.assign(nl.num_nets(), kRefInf);
  d.max_ps.assign(nl.num_nets(), -kRefInf);
  for (NetId n = static_cast<NetId>(nl.num_nets()); n-- > 0;) {
    if (endpoint_net[n] != 0) {
      d.min_ps[n] = 0.0;
      d.max_ps[n] = 0.0;
    }
    for (const GateId g : readers[n]) {
      const NetId out = nl.gate(g).out;
      const double delay = scaled_delay(nl, tech, scale, g);
      d.min_ps[n] = std::min(d.min_ps[n], delay + d.min_ps[out]);
      d.max_ps[n] = std::max(d.max_ps[n], delay + d.max_ps[out]);
    }
  }
  return d;
}

}  // namespace agingsim::testing_oracle
