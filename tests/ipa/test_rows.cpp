// Row-assembly tests: the end-to-end .rgn rows, checked against the paper's
// published values (Fig 9's aarr rows and the access-density formula).
#include "ipa/analyzer.hpp"

#include <gtest/gtest.h>

#include "frontend/compile.hpp"
#include "serve/link.hpp"
#include "support/string_utils.hpp"

namespace ara::ipa {
namespace {

struct Analyzed {
  ir::Program program;
  DiagnosticEngine diags{nullptr};
  AnalysisResult result;
};

std::unique_ptr<Analyzed> analyze(const std::string& text, Language lang,
                                  const serve::LinkOptions& opts = {}) {
  auto out = std::make_unique<Analyzed>();
  out->program.sources.add(lang == Language::C ? "matrix.c" : "t.f", text, lang);
  EXPECT_TRUE(fe::compile_program(out->program, out->diags)) << out->diags.render();
  out->result = serve::analyze_program(out->program, opts);
  return out;
}

const char* kMatrixC = R"(
int aarr[20];
int barr[20];
void main(void) {
  int i;
  for (i = 0; i < 8; i++) { aarr[i] = i; }
  for (i = 0; i < 8; i++) { aarr[i + 1] = aarr[i]; }
  for (i = 0; i < 8; i++) { barr[i] = aarr[i]; }
  for (i = 2; i < 8; i += 2) { barr[i] = aarr[i]; }
}
)";

std::vector<const rgn::RegionRow*> rows_of(const AnalysisResult& r, const std::string& array,
                                           const std::string& mode) {
  std::vector<const rgn::RegionRow*> out;
  for (const rgn::RegionRow& row : r.rows) {
    if (iequals(row.array, array) && row.mode == mode) out.push_back(&row);
  }
  return out;
}

TEST(Rows, Fig9AarrDefRows) {
  auto a = analyze(kMatrixC, Language::C);
  const auto defs = rows_of(a->result, "aarr", "DEF");
  ASSERT_EQ(defs.size(), 2u);
  // Row 1: [0:7:1]; row 2: [1:8:1]; References = 2 on both (the group total).
  EXPECT_EQ(defs[0]->lb, "0");
  EXPECT_EQ(defs[0]->ub, "7");
  EXPECT_EQ(defs[1]->lb, "1");
  EXPECT_EQ(defs[1]->ub, "8");
  for (const auto* row : defs) {
    EXPECT_EQ(row->references, 2u);
    EXPECT_EQ(row->stride, "1");
    EXPECT_EQ(row->element_size, 4);
    EXPECT_EQ(row->data_type, "int");
    EXPECT_EQ(row->dim_size, "20");
    EXPECT_EQ(row->tot_size, 20);
    EXPECT_EQ(row->size_bytes, 80);
    EXPECT_EQ(row->acc_density, 2);  // floor(100*2/80)
    EXPECT_EQ(row->scope, "@");
    EXPECT_EQ(row->file, "matrix.o");
  }
}

TEST(Rows, Fig9AarrUseRows) {
  auto a = analyze(kMatrixC, Language::C);
  const auto uses = rows_of(a->result, "aarr", "USE");
  ASSERT_EQ(uses.size(), 3u);
  EXPECT_EQ(uses[0]->ub, "7");
  EXPECT_EQ(uses[1]->ub, "7");
  EXPECT_EQ(uses[2]->lb, "2");
  EXPECT_EQ(uses[2]->ub, "6");
  EXPECT_EQ(uses[2]->stride, "2");
  for (const auto* row : uses) {
    EXPECT_EQ(row->references, 3u);
    EXPECT_EQ(row->acc_density, 3);  // floor(100*3/80)
  }
}

TEST(Rows, SharedMemLocForSameArray) {
  auto a = analyze(kMatrixC, Language::C);
  const auto defs = rows_of(a->result, "aarr", "DEF");
  const auto uses = rows_of(a->result, "aarr", "USE");
  ASSERT_FALSE(defs.empty());
  ASSERT_FALSE(uses.empty());
  EXPECT_EQ(defs[0]->mem_loc, uses[0]->mem_loc);
  const auto barr = rows_of(a->result, "barr", "DEF");
  ASSERT_FALSE(barr.empty());
  EXPECT_NE(barr[0]->mem_loc, defs[0]->mem_loc);
}

TEST(Rows, DensityTruncatesLikeThePaper) {
  // XCR: 4 refs / 40 bytes -> 10; FORMAL 1 ref -> floor(2.5) = 2 (Table II).
  EXPECT_EQ(rgn::access_density_pct(4, 40), 10);
  EXPECT_EQ(rgn::access_density_pct(1, 40), 2);
  EXPECT_EQ(rgn::access_density_pct(9, 1), 900);   // the CLASS row
  EXPECT_EQ(rgn::access_density_pct(110, 10816000), 0);  // the U row
  EXPECT_EQ(rgn::access_density_pct(5, 0), 0);     // variable-length arrays
}

TEST(Rows, RowsAreSortedByScopeArrayAndMode) {
  auto a = analyze(kMatrixC, Language::C);
  for (std::size_t i = 1; i < a->result.rows.size(); ++i) {
    const auto& prev = a->result.rows[i - 1];
    const auto& cur = a->result.rows[i];
    EXPECT_LE(prev.scope, cur.scope);
    if (prev.scope == cur.scope) {
      EXPECT_LE(to_lower(prev.array), to_lower(cur.array));
    }
  }
}

TEST(Rows, NonInterprocOptionSkipsIRows) {
  const char* text =
      "subroutine callee(v)\n"
      "  double precision :: v(5)\n"
      "  v(1) = 0.0\n"
      "end subroutine callee\n"
      "subroutine caller\n"
      "  double precision :: x(5)\n"
      "  call callee(x)\n"
      "end subroutine caller\n";
  serve::LinkOptions opts;
  opts.interprocedural = false;
  auto a = analyze(text, Language::Fortran, opts);
  for (const rgn::RegionRow& row : a->result.rows) {
    EXPECT_NE(row.mode, "IDEF");
    EXPECT_NE(row.mode, "IUSE");
  }
  // PASSED rows are local information and still appear.
  EXPECT_FALSE(rows_of(a->result, "x", "PASSED").empty());
}

TEST(Rows, VariableLengthArrayDisplaysZeroSizes) {
  const char* text =
      "subroutine s(a, n)\n"
      "  integer :: n, i\n"
      "  double precision :: a(n)\n"
      "  do i = 1, n\n"
      "    a(i) = 0.0\n"
      "  end do\n"
      "end subroutine s\n";
  auto a = analyze(text, Language::Fortran);
  const auto defs = rows_of(a->result, "a", "DEF");
  ASSERT_FALSE(defs.empty());
  EXPECT_EQ(defs[0]->tot_size, 0);
  EXPECT_EQ(defs[0]->size_bytes, 0);
  EXPECT_EQ(defs[0]->acc_density, 0);
}

TEST(Rows, RgnRoundTripPreservesRows) {
  auto a = analyze(kMatrixC, Language::C);
  const std::string text = rgn::write_rgn(a->result.rows);
  std::vector<rgn::RegionRow> parsed;
  std::string error;
  ASSERT_TRUE(rgn::parse_rgn(text, parsed, &error)) << error;
  EXPECT_EQ(parsed, a->result.rows);
}

TEST(Rows, EffectsOfLookupByName) {
  const char* text =
      "subroutine s\n"
      "  integer :: v(10), i\n"
      "  do i = 1, 10\n"
      "    v(i) = 0\n"
      "  end do\n"
      "end subroutine s\n";
  auto a = analyze(text, Language::Fortran);
  EXPECT_NE(a->result.effects_of("s", a->program), nullptr);
  EXPECT_EQ(a->result.effects_of("nosuch", a->program), nullptr);
}

}  // namespace
}  // namespace ara::ipa
