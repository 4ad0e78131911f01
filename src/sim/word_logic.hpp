#pragma once

// Four-valued cell logic over 64 lanes at once — the one copy of the word
// logic shared by the batch timing sweep (batch_sweep.inl) and the
// values-only sweep (value_sweep.cpp).
//
// Bit-plane encoding: lane l of p0/p1 carries the two bits of the Logic
// code (kZero=00, kOne=01, kX=10, kZ=11; p0 = low bit). So:
//   known(v) = ~p1,  one(v) = p0 & ~p1,  zero(v) = ~p0 & ~p1.

#include <cstdint>

#include "src/netlist/cell.hpp"
#include "src/netlist/logic.hpp"

namespace agingsim {

/// Lanes per word. The SWAR baseline packs 64 patterns per uint64_t; the
/// batch kernel's AVX2 backend (runtime-dispatched, see batch_sim.cpp)
/// vectorizes the per-lane density/arrival recurrences over the same
/// 64-lane words.
inline constexpr int kBatchLanes = 64;

/// kBatchLanes lane-packed Logic values.
struct LogicWord {
  std::uint64_t p0 = 0;  ///< low bit of each lane's Logic code
  std::uint64_t p1 = 0;  ///< high bit of each lane's Logic code
};

namespace detail {
// Internal linkage on purpose: this header is also compiled into the -mavx2
// sweep TU, and an inline function with external linkage could hand the
// linker that AVX2 copy for baseline callers too.
namespace {

/// Exact eval_cell of `kind` in every lane. `ip0`/`ip1` hold the input
/// planes in pin order; `keeper` is the value a tri-state output held
/// before lane 0 (ignored by every other kind). Lanes past the caller's
/// word are unspecified: callers mask the result.
inline LogicWord eval_cell_word(CellKind kind, const std::uint64_t* ip0,
                                const std::uint64_t* ip1,
                                Logic keeper) noexcept {
  std::uint64_t o0 = 0, o1 = 0;
  switch (kind) {
    case CellKind::kBuf:  // known passes; X/Z -> X
      o0 = ip0[0] & ~ip1[0];
      o1 = ip1[0];
      break;
    case CellKind::kInv:
      o0 = ~ip0[0] & ~ip1[0];
      o1 = ip1[0];
      break;
    case CellKind::kAnd2: {
      const std::uint64_t z = (~ip0[0] & ~ip1[0]) | (~ip0[1] & ~ip1[1]);
      const std::uint64_t one = (ip0[0] & ~ip1[0]) & (ip0[1] & ~ip1[1]);
      o0 = one;
      o1 = ~(z | one);
      break;
    }
    case CellKind::kNand2: {
      const std::uint64_t z = (~ip0[0] & ~ip1[0]) | (~ip0[1] & ~ip1[1]);
      const std::uint64_t one = (ip0[0] & ~ip1[0]) & (ip0[1] & ~ip1[1]);
      o0 = z;
      o1 = ~(z | one);
      break;
    }
    case CellKind::kOr2: {
      const std::uint64_t one = (ip0[0] & ~ip1[0]) | (ip0[1] & ~ip1[1]);
      const std::uint64_t z = (~ip0[0] & ~ip1[0]) & (~ip0[1] & ~ip1[1]);
      o0 = one;
      o1 = ~(one | z);
      break;
    }
    case CellKind::kNor2: {
      const std::uint64_t one = (ip0[0] & ~ip1[0]) | (ip0[1] & ~ip1[1]);
      const std::uint64_t z = (~ip0[0] & ~ip1[0]) & (~ip0[1] & ~ip1[1]);
      o0 = z;
      o1 = ~(one | z);
      break;
    }
    case CellKind::kXor2: {
      const std::uint64_t kk = ~ip1[0] & ~ip1[1];
      o0 = kk & (ip0[0] ^ ip0[1]);
      o1 = ~kk;
      break;
    }
    case CellKind::kXnor2: {
      const std::uint64_t kk = ~ip1[0] & ~ip1[1];
      o0 = kk & ~(ip0[0] ^ ip0[1]);
      o1 = ~kk;
      break;
    }
    case CellKind::kAnd3: {
      const std::uint64_t z = (~ip0[0] & ~ip1[0]) | (~ip0[1] & ~ip1[1]) |
                              (~ip0[2] & ~ip1[2]);
      const std::uint64_t one =
          (ip0[0] & ~ip1[0]) & (ip0[1] & ~ip1[1]) & (ip0[2] & ~ip1[2]);
      o0 = one;
      o1 = ~(z | one);
      break;
    }
    case CellKind::kOr3: {
      const std::uint64_t one =
          (ip0[0] & ~ip1[0]) | (ip0[1] & ~ip1[1]) | (ip0[2] & ~ip1[2]);
      const std::uint64_t z = (~ip0[0] & ~ip1[0]) & (~ip0[1] & ~ip1[1]) &
                              (~ip0[2] & ~ip1[2]);
      o0 = one;
      o1 = ~(one | z);
      break;
    }
    case CellKind::kMux2: {
      const std::uint64_t sz = ~ip0[2] & ~ip1[2];
      const std::uint64_t so = ip0[2] & ~ip1[2];
      const std::uint64_t su = ~(sz | so);
      const std::uint64_t b00 = ip0[0] & ~ip1[0];  // buf(d0)
      const std::uint64_t b10 = ip0[1] & ~ip1[1];  // buf(d1)
      // Unknown select resolves only when d0 is known and equals d1.
      const std::uint64_t agree =
          ~ip1[0] & ~((ip0[0] ^ ip0[1]) | (ip1[0] ^ ip1[1]));
      o0 = (sz & b00) | (so & b10) | (su & agree & ip0[0]);
      o1 = (sz & ip1[0]) | (so & ip1[1]) | (su & ~agree);
      break;
    }
    case CellKind::kTbuf: {
      // enable = 1 drives buf(d), enable = X/Z drives X, enable = 0 keeps
      // the previous lane's value (lane -1 = `keeper`). Each kept lane
      // copies the nearest driven lane below it: a forward fill in
      // log2(64) doubling steps, where after the step of shift s a lane
      // is filled iff a driven lane lies fewer than 2s lanes at or below
      // it.
      const std::uint64_t en_one = ip0[1] & ~ip1[1];
      std::uint64_t filled = ip0[1] | ip1[1];  // enable != 0
      o0 = en_one & ip0[0] & ~ip1[0];
      o1 = (en_one & ip1[0]) | ip1[1];
      for (int s = 1; s < kBatchLanes; s <<= 1) {
        const std::uint64_t take = ~filled & (filled << s);
        o0 |= (o0 << s) & take;
        o1 |= (o1 << s) & take;
        filled |= take;
      }
      // No driven lane at or below: the keeper value survives.
      const auto k = static_cast<std::uint64_t>(keeper);
      if ((k & 1u) != 0) o0 |= ~filled;
      if ((k >> 1) != 0) o1 |= ~filled;
      break;
    }
    case CellKind::kTie0:
      break;  // constant 00
    case CellKind::kTie1:
      o0 = ~std::uint64_t{0};
      break;
    case CellKind::kCount:
      break;
  }
  return {o0, o1};
}

}  // namespace
}  // namespace detail
}  // namespace agingsim
