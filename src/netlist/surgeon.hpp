#pragma once

#include "src/netlist/netlist.hpp"

namespace agingsim {

/// Structural surgery on a Netlist.
///
/// `Netlist`'s public construction API makes invalid structures
/// unrepresentable (pin counts checked, nets must exist before use, drivers
/// assigned exactly once) but is append-only. The surgeon reaches through
/// the encapsulation for the two cases that need more:
///
///  - **Corruption primitives** (`set_*`): deliberately break the raw
///    tables — mirroring real generator-bug classes like dropped pins,
///    duplicated drivers and dangling outputs — so tests and the lint
///    fuzzers can prove every rule fires and nothing crashes. A netlist
///    mutated this way violates the invariants every simulator relies on;
///    test-only.
///  - **Repair primitives** (`insert_buffer`, `insert_output_buffer`):
///    structure-preserving edits with a structural-lint-clean guarantee —
///    applied to a valid netlist they yield a valid netlist with identical
///    logic function. The hold-repair pass (src/lint/repair.hpp) uses them
///    to pad short paths with delay buffers; the lint fuzzers use them as
///    benign mutations that must never trip a rule.
class NetlistSurgeon {
 public:
  explicit NetlistSurgeon(Netlist& netlist) : nl_(netlist) {}

  /// Overwrites a gate's cell kind without touching its pins (kind/arity
  /// mismatch, or an out-of-library kind such as CellKind::kCount).
  void set_gate_kind(GateId gate, CellKind kind);

  /// Shrinks or grows a gate's pin window ("dropped pin" when shrunk).
  void set_gate_pin_count(GateId gate, std::uint16_t count);

  /// Repoints a gate's pin window start.
  void set_gate_pin_begin(GateId gate, std::uint32_t begin);

  /// Rewires one entry of the flat pin array (forward references, aliased
  /// bypass pins, nonexistent nets).
  void set_pin(std::size_t pin_index, NetId net);

  /// Overwrites a net's driver entry ("duplicated driver" when pointed at
  /// a gate that drives another net; orphaned net when set to -1).
  void set_driver(NetId net, std::int32_t driver);

  /// Overwrites which net a gate claims to drive.
  void set_gate_out(GateId gate, NetId net);

  /// Repoints a registered primary output at an arbitrary (possibly
  /// nonexistent) net, bypassing mark_output's existence check.
  void set_output_net(std::size_t output_index, NetId net);

  /// Inserts a chain of `count` kBuf cells between `net` and gate `sink`:
  /// every pin of `sink` that reads `net` is rewired to the chain's output,
  /// all other consumers of `net` are untouched. The chain is spliced *in
  /// place* — the buffer gates take ids `sink .. sink+count-1` and their
  /// output nets take ids `gate(sink).out .. +count-1`, with every later
  /// gate and net renumbered — so the edited netlist still satisfies the
  /// topological-order invariant (gate ids and net ids both remain
  /// topological orders) and passes the full structural rule family.
  /// Callers holding per-gate or per-net side tables (aging overlays,
  /// arrival arrays) must splice them identically.
  ///
  /// Returns the net id now feeding `sink` (the last buffer's output).
  /// Throws std::invalid_argument when `sink` does not read `net`, either id
  /// is out of range, the sink's pin window is corrupt, or count < 1.
  NetId insert_buffer(NetId net, GateId sink, int count = 1);

  /// Inserts a chain of `count` kBuf cells between primary output
  /// `output_index` and its driving net, repointing only that output entry.
  /// Append-only: existing gate and net ids are unchanged (per-gate side
  /// tables extend with `count` trailing entries). Returns the new output
  /// net. Throws std::invalid_argument on a bad index, an output net out of
  /// range (dangling-output corruption), or count < 1.
  NetId insert_output_buffer(std::size_t output_index, int count = 1);

 private:
  Netlist& nl_;
};

}  // namespace agingsim
