// Dynamic access oracle + comparator for the differential-testing harness.
//
// One generated program flows through the full pipeline twice:
//   static  — driver::Compiler::compile + analyze(), yielding AccessRecords
//   dynamic — interp::Interpreter, yielding the exact touched-element sets
// and the comparator checks the paper's soundness contract between the two:
// every dynamically touched element must lie inside some static region of
// the same (array, mode) — with MAY semantics, a non-constant (symbolic,
// messy or unprojected) bound covers its whole dimension — and the static
// reference count must be at least the number of distinct syntactic sites
// observed executing. On the all-constant ("affine") subset the comparator
// additionally measures tightness: the over-approximation ratio of static
// covered elements to observed elements, and whether the match is exact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "difftest/generator.hpp"
#include "interp/interp.hpp"
#include "ipa/analyzer.hpp"
#include "ir/program.hpp"
#include "obs/provenance.hpp"

namespace ara::difftest {

/// One soundness failure. `kind` is one of "compile", "runtime",
/// "containment" (a touched element no static region covers), "refcount"
/// (static References below the observed distinct-site count) or
/// "provenance" (a Messy/Unprojected dimension no cause record explains).
struct Violation {
  std::string kind;
  std::string array;  // source name; empty for compile/runtime failures
  std::string mode;   // "USE" / "DEF"
  std::string detail;
};

struct DiffReport {
  bool ran = false;    // compiled and interpreted successfully
  std::string error;   // compile/runtime failure text (also mirrored as a Violation)
  std::vector<Violation> violations;

  // Coverage + tightness metrics (affine subset only for the ratio).
  std::size_t entries_checked = 0;  // (array, mode) pairs with dynamic accesses
  std::size_t points_checked = 0;   // individual touched elements verified
  std::size_t entries_affine = 0;   // entries whose static regions were all-constant
  std::size_t entries_exact = 0;    // affine entries where static == observed exactly
  double max_over_approx = 0.0;     // max static/observed element-count ratio
  double sum_over_approx = 0.0;     // sum of ratios (mean = sum / entries_affine)

  // Provenance oracle: cause records captured while the static analysis
  // ran, plus the imprecise-dimension census they must explain (every
  // Messy/Unprojected dimension needs >= 1 matching record).
  std::vector<obs::ProvRecord> provenance;
  std::size_t dims_total = 0;        // dimensions across all published records
  std::size_t dims_messy = 0;        // dimensions with a Messy lb/ub
  std::size_t dims_unprojected = 0;  // dimensions with an Unprojected lb/ub

  [[nodiscard]] bool sound() const { return ran && violations.empty(); }
  [[nodiscard]] double mean_over_approx() const {
    return entries_affine == 0 ? 0.0 : sum_over_approx / static_cast<double>(entries_affine);
  }
};

/// Static-vs-dynamic comparison only (callers that already compiled/ran).
[[nodiscard]] DiffReport compare(const ir::Program& program, const ipa::AnalysisResult& result,
                                 const interp::DynamicSummary& dyn);

/// Full pipeline: compile `prog`, run the static analysis, interpret
/// `prog.entry` with dynamic recording, and compare.
[[nodiscard]] DiffReport run_difftest(const GeneratedProgram& prog,
                                      const interp::InterpOptions& iopts = {});

}  // namespace ara::difftest
