#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/lint/rule.hpp"
#include "src/multiplier/multiplier.hpp"
#include "src/netlist/netlist.hpp"
#include "src/sim/value_sweep.hpp"
#include "src/workload/patterns.hpp"
#include "src/workload/rng.hpp"

namespace agingsim::lint {
namespace {

// ---------------------------------------------------------------------------
// consistency.functional — the generated netlist must compute a*b. Running
// the functional reference check as a lint rule puts generator bugs in the
// same report as structural and timing findings, so `aginglint` is a single
// gate for "this netlist is safe to ship".
// ---------------------------------------------------------------------------
class FunctionalConsistencyRule final : public Rule {
 public:
  std::string_view id() const noexcept override {
    return "consistency.functional";
  }
  RuleCategory category() const noexcept override {
    return RuleCategory::kConsistency;
  }
  std::string_view description() const noexcept override {
    return "the netlist matches the golden multiply on corner and seeded "
           "random vectors";
  }
  void run(const LintContext& ctx, std::vector<Diagnostic>& out) const override {
    if (ctx.multiplier == nullptr) {
      out.push_back(Diagnostic{Severity::kInfo, std::string(id()),
                               "skipped: no multiplier metadata (arch/width/"
                               "operand layout unknown)",
                               kNoGate, kInvalidNet});
      return;
    }
    const MultiplierNetlist& mult = *ctx.multiplier;
    const std::uint64_t max_operand =
        mult.width >= 64 ? ~0ULL : ((1ULL << mult.width) - 1);

    // Corner vectors first: all-ones flushes the power-up X state through
    // every bypass keeper, then the zero/one corners exercise full bypass.
    std::vector<OperandPattern> vectors{
        {max_operand, max_operand}, {0, 0},           {0, max_operand},
        {max_operand, 0},           {1, 1},           {1, max_operand},
        {max_operand, 1},           {max_operand, max_operand}};
    Rng rng(ctx.consistency.seed);
    const auto random_vectors =
        uniform_patterns(rng, mult.width, ctx.consistency.vectors);
    vectors.insert(vectors.end(), random_vectors.begin(),
                   random_vectors.end());

    // Functional equivalence does not depend on delays: a values-only
    // sweep settles 64 vectors per word, in order, keepers carried along.
    const Netlist& nl = mult.netlist;
    const auto outs = nl.output_nets();
    if (outs.size() > 64) {
      throw std::logic_error("TimingSim::output_bits: more than 64 outputs");
    }
    ValueSweep sweep(nl);
    std::vector<std::uint64_t> words(nl.num_inputs());
    constexpr std::size_t kMaxReported = 5;
    std::size_t mismatches = 0;
    for (std::size_t first = 0; first < vectors.size();
         first += static_cast<std::size_t>(kBatchLanes)) {
      const int lanes = static_cast<int>(std::min<std::size_t>(
          static_cast<std::size_t>(kBatchLanes), vectors.size() - first));
      std::fill(words.begin(), words.end(), 0);
      for (int l = 0; l < lanes; ++l) {
        const OperandPattern& v = vectors[first + static_cast<std::size_t>(l)];
        for (int i = 0; i < mult.width; ++i) {
          words[static_cast<std::size_t>(mult.a_first_input + i)] |=
              ((v.a >> i) & 1u) << l;
          words[static_cast<std::size_t>(mult.b_first_input + i)] |=
              ((v.b >> i) & 1u) << l;
        }
      }
      sweep.step_word(words, lanes);
      for (int l = 0; l < lanes; ++l) {
        const OperandPattern& v = vectors[first + static_cast<std::size_t>(l)];
        std::uint64_t got = 0;
        for (std::size_t i = 0; i < outs.size(); ++i) {
          const LogicWord w = sweep.word(outs[i]);
          if (((w.p1 >> l) & 1u) != 0) {
            // TimingSim::output_bits' wording: the report does not
            // depend on which simulator settles the vectors.
            throw std::logic_error("TimingSim::output_bits: output " +
                                   nl.output_name(i) + " is unknown");
          }
          got |= ((w.p0 >> l) & 1u) << i;
        }
        const std::uint64_t want = reference_multiply(v.a, v.b, mult.width);
        if (got == want) continue;
        ++mismatches;
        if (mismatches <= kMaxReported) {
          out.push_back(Diagnostic{
              Severity::kError, std::string(id()),
              std::string(arch_name(mult.arch)) +
                  std::to_string(mult.width) + " computes " +
                  std::to_string(v.a) + " * " + std::to_string(v.b) + " = " +
                  std::to_string(got) + ", golden reference says " +
                  std::to_string(want),
              kNoGate, kInvalidNet});
        }
      }
    }
    if (mismatches > kMaxReported) {
      out.push_back(Diagnostic{
          Severity::kError, std::string(id()),
          "... and " + std::to_string(mismatches - kMaxReported) +
              " further mismatching vectors (" + std::to_string(mismatches) +
              " of " + std::to_string(vectors.size()) + " total)",
          kNoGate, kInvalidNet});
    }
    if (mismatches == 0) {
      out.push_back(Diagnostic{
          Severity::kInfo, std::string(id()),
          "proved: " + std::to_string(vectors.size()) +
              " vectors (8 corners + " +
              std::to_string(random_vectors.size()) +
              " seeded random) match the golden multiply",
          kNoGate, kInvalidNet});
    }
  }
};

}  // namespace

void register_consistency_rules(RuleRegistry& registry) {
  registry.add(std::make_unique<FunctionalConsistencyRule>());
}

}  // namespace agingsim::lint
