// M-WHIRL lowering tests: the paper's design argument made executable. At
// H-WHIRL "the form of array subscripting is preserved via ARRAY operator";
// after lowering to explicit address arithmetic, the region analysis — which
// keys on OPR_ARRAY — recovers nothing. "Arrays lose their structures" (§II).
#include "ir/mlower.hpp"

#include <gtest/gtest.h>

#include "frontend/compile.hpp"
#include "ipa/analyzer.hpp"
#include "ir/printer.hpp"
#include "serve/link.hpp"

namespace ara::ir {
namespace {

struct Compiled {
  Program program;
  DiagnosticEngine diags{nullptr};
};

std::unique_ptr<Compiled> compile(const std::string& text, Language lang = Language::Fortran) {
  auto out = std::make_unique<Compiled>();
  out->program.sources.add(lang == Language::C ? "t.c" : "t.f", text, lang);
  EXPECT_TRUE(fe::compile_program(out->program, out->diags)) << out->diags.render();
  return out;
}

const char* kStencil =
    "subroutine s\n"
    "  double precision :: u(5, 65), t\n"
    "  integer :: i, m\n"
    "  do i = 2, 64\n"
    "    do m = 1, 5\n"
    "      t = t + u(m, i - 1) + u(m, i + 1)\n"
    "    end do\n"
    "  end do\n"
    "end subroutine s\n";

TEST(CloneTree, IsDeepAndExact) {
  auto c = compile(kStencil);
  const WN& original = *c->program.procedures[0].tree;
  const WNPtr copy = clone_tree(original);
  EXPECT_EQ(copy->tree_size(), original.tree_size());
  EXPECT_EQ(dump_tree(*copy, c->program.symtab), dump_tree(original, c->program.symtab));
  EXPECT_NE(copy.get(), &original);
}

TEST(MLower, RemovesEveryArrayNode) {
  auto c = compile(kStencil);
  const WN& h_tree = *c->program.procedures[0].tree;
  ASSERT_GT(count_array_nodes(h_tree), 0u);
  const WNPtr m_tree = lower_tree_to_m(h_tree);
  EXPECT_EQ(count_array_nodes(*m_tree), 0u);
}

TEST(MLower, AddressArithmeticIsExplicit) {
  // u(m, i) in a Fortran u(5, 65): row-major dims (65, 5), so the M form
  // multiplies the i index by 5. Look for the MPY-by-extent shape.
  auto c = compile(kStencil);
  const WNPtr m_tree = lower_tree_to_m(*c->program.procedures[0].tree);
  bool saw_scale_by_extent = false;
  m_tree->walk([&](const WN& wn) {
    if (wn.opr() == Opr::Mpy && wn.kid_count() == 2 &&
        wn.kid(1)->opr() == Opr::Intconst && wn.kid(1)->const_val() == 5) {
      saw_scale_by_extent = true;
    }
    return true;
  });
  EXPECT_TRUE(saw_scale_by_extent);
  // And the element-size scaling (8 bytes) appears.
  bool saw_esize = false;
  m_tree->walk([&](const WN& wn) {
    if (wn.opr() == Opr::Mpy && wn.kid(0)->opr() == Opr::Intconst &&
        wn.kid(0)->const_val() == 8) {
      saw_esize = true;
    }
    return true;
  });
  EXPECT_TRUE(saw_esize);
}

TEST(MLower, RegionAnalysisGoesBlindAtMLevel) {
  // The headline ablation: identical program, H vs M WHIRL.
  auto c = compile(kStencil);
  const auto h_result = serve::analyze_program(c->program);
  std::size_t h_array_rows = 0;
  for (const auto& row : h_result.rows) {
    if (row.dims > 0 && row.tot_size > 1) ++h_array_rows;
  }
  ASSERT_GT(h_array_rows, 0u);

  const Program m_program = lower_program_to_m(c->program);
  const auto m_result = serve::analyze_program(m_program);
  std::size_t m_array_rows = 0;
  for (const auto& row : m_result.rows) {
    if (row.mode == "USE" || row.mode == "DEF") {
      if (row.tot_size > 1) ++m_array_rows;
    }
  }
  EXPECT_EQ(m_array_rows, 0u);  // arrays lost their structure
}

TEST(MLower, LoweredProgramSharesSymbolsAndSources) {
  auto c = compile(kStencil);
  const Program m = lower_program_to_m(c->program);
  EXPECT_EQ(m.symtab.st_count(), c->program.symtab.st_count());
  EXPECT_EQ(m.sources.file_count(), c->program.sources.file_count());
  EXPECT_EQ(m.procedures.size(), c->program.procedures.size());
}

TEST(MLower, TreeGrowsWhenStructureIsFlattened) {
  // Explicit address arithmetic is bulkier than the n-ary ARRAY form —
  // one reason the compiler keeps the high level around for analysis.
  auto c = compile(kStencil);
  const WN& h_tree = *c->program.procedures[0].tree;
  const WNPtr m_tree = lower_tree_to_m(h_tree);
  EXPECT_GT(m_tree->tree_size(), h_tree.tree_size());
}

TEST(MLower, CoindexFoldsIntoAddressForm) {
  auto c = compile(
      "subroutine s(me)\n"
      "  integer :: me\n"
      "  double precision :: u(8) [*]\n"
      "  common /f/ u\n"
      "  u(1) = u(2) [me + 1]\n"
      "end subroutine s\n");
  const WNPtr m_tree = lower_tree_to_m(*c->program.procedures[0].tree);
  std::size_t coindex = 0;
  m_tree->walk([&](const WN& wn) {
    if (wn.opr() == Opr::Coindex) ++coindex;
    return true;
  });
  EXPECT_EQ(coindex, 0u);
}

}  // namespace
}  // namespace ara::ir
