// Seeded scale corpus: a generated multi-unit project large enough for the
// batch engine's parallelism and the daemon's incremental re-analysis to
// matter. Nothing is committed; the same (seed, shape) always produces the
// same bytes, which the benchmark checks on every set-up.
//
// Shape: a layered call DAG. Layer 0 holds units nobody calls; each unit in
// layer k calls `fan_in` procedures in layer k+1 on average, so editing a
// layer-0 unit invalidates only itself while editing a deep unit invalidates
// its whole reverse closure. Fortran units share COMMON blocks and pass
// COMMON arrays to array-formal kernels; a share of the units are C, which
// own file-scope arrays and read their siblings' arrays without declaring
// them (cross-unit global import). Loop nests mix affine, strided,
// triangular and coupled-subscript shapes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/engine.hpp"

namespace ara::e2e {

struct CorpusShape {
  std::uint64_t seed = 1;
  int units = 200;
  int depth = 5;      // call-DAG layers
  int fan_in = 3;     // callees per calling unit (mean callers per called unit)
};

struct CorpusUnit {
  serve::SourceBuffer source;  // original text
  std::string edited_text;     // same unit with one loop bound changed
  int layer = 0;
  std::vector<int> callees;    // unit indices this unit calls
};

struct Corpus {
  CorpusShape shape;
  std::vector<CorpusUnit> units;
  std::size_t lines = 0;
  std::size_t procedures = 0;
  double mean_fan_in = 0;  // callers per called unit, measured
  std::uint64_t digest = 0;  // FNV-1a over every unit's name and both texts

  /// Sources in unit order; `edited[i]` selects the variant text.
  [[nodiscard]] std::vector<serve::SourceBuffer> sources(
      const std::vector<char>& edited = {}) const;
  /// Size of the reverse-dependency closure of unit `i` (itself included).
  [[nodiscard]] std::size_t closure_size(int i) const;
  /// Every global array: the COMMON block arrays and each C unit's own.
  [[nodiscard]] std::vector<std::string> array_names() const;
  /// One-line summary: units, lines, procedures, depth, fan-in, digest.
  [[nodiscard]] std::string describe() const;
};

[[nodiscard]] Corpus generate_corpus(const CorpusShape& shape);

}  // namespace ara::e2e
