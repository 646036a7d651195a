// Interpreter tests: execution semantics, dynamic access recording (§VI
// future work), per-virtual-thread attribution, and the key cross-check —
// the static region analysis is a sound over-approximation of every element
// the program actually touches.
#include "interp/interp.hpp"

#include <gtest/gtest.h>

#include "frontend/compile.hpp"
#include "ipa/analyzer.hpp"
#include "regions/convex_region.hpp"
#include "serve/link.hpp"
#include "support/string_utils.hpp"

namespace ara::interp {
namespace {

struct Runner {
  ir::Program program;
  DiagnosticEngine diags{nullptr};
  std::unique_ptr<Interpreter> interp;
  DynamicSummary summary;
  InterpResult result;
};

std::unique_ptr<Runner> run(const std::string& text, const std::string& entry,
                            Language lang = Language::Fortran, InterpOptions opts = {}) {
  auto out = std::make_unique<Runner>();
  out->program.sources.add(lang == Language::C ? "t.c" : "t.f", text, lang);
  EXPECT_TRUE(fe::compile_program(out->program, out->diags)) << out->diags.render();
  out->interp = std::make_unique<Interpreter>(out->program, opts);
  out->result = out->interp->run(entry, &out->summary);
  return out;
}

ir::StIdx find_array(const ir::Program& p, std::string_view name) {
  for (ir::StIdx idx : p.symtab.all_sts()) {
    const ir::St& st = p.symtab.st(idx);
    if (st.sclass != ir::StClass::Proc && iequals(st.name, name)) return idx;
  }
  return ir::kInvalidSt;
}

TEST(Interp, ScalarArithmeticAndLoops) {
  auto r = run(
      "subroutine s\n"
      "  integer :: i, total\n"
      "  total = 0\n"
      "  do i = 1, 10\n"
      "    total = total + i\n"
      "  end do\n"
      "end subroutine s\n",
      "s");
  ASSERT_TRUE(r->result.ok) << r->result.error;
  EXPECT_EQ(r->interp->scalar_value("total"), 55.0);
}

TEST(Interp, ArrayStoreAndLoad) {
  auto r = run(
      "subroutine s\n"
      "  integer :: v(10), i, total\n"
      "  do i = 1, 10\n"
      "    v(i) = i * i\n"
      "  end do\n"
      "  total = 0\n"
      "  do i = 1, 10\n"
      "    total = total + v(i)\n"
      "  end do\n"
      "end subroutine s\n",
      "s");
  ASSERT_TRUE(r->result.ok) << r->result.error;
  EXPECT_EQ(r->interp->scalar_value("total"), 385.0);
  EXPECT_EQ(r->interp->array_element("v", {3}), 9.0);
}

TEST(Interp, MultiDimFortranLayout) {
  auto r = run(
      "subroutine s\n"
      "  integer :: a(3, 4), i, j\n"
      "  do i = 1, 3\n"
      "    do j = 1, 4\n"
      "      a(i, j) = 10 * i + j\n"
      "    end do\n"
      "  end do\n"
      "end subroutine s\n",
      "s");
  ASSERT_TRUE(r->result.ok) << r->result.error;
  EXPECT_EQ(r->interp->array_element("a", {2, 3}), 23.0);
  EXPECT_EQ(r->interp->array_element("a", {3, 1}), 31.0);
}

TEST(Interp, CZeroBasedLayout) {
  auto r = run(
      "int a[4][5];\n"
      "void main(void) {\n"
      "  int i, j;\n"
      "  for (i = 0; i < 4; i++) { for (j = 0; j < 5; j++) { a[i][j] = 10 * i + j; } }\n"
      "}",
      "main", Language::C);
  ASSERT_TRUE(r->result.ok) << r->result.error;
  EXPECT_EQ(r->interp->array_element("a", {1, 2}), 12.0);
  EXPECT_EQ(r->interp->array_element("a", {3, 4}), 34.0);
}

TEST(Interp, IfAndIntrinsics) {
  auto r = run(
      "subroutine s\n"
      "  double precision :: x, y\n"
      "  x = 9.0\n"
      "  y = sqrt(x)\n"
      "  if (y .gt. 2.5) then\n"
      "    x = max(y, 10.0)\n"
      "  else\n"
      "    x = -1.0\n"
      "  end if\n"
      "end subroutine s\n",
      "s");
  ASSERT_TRUE(r->result.ok) << r->result.error;
  EXPECT_EQ(r->interp->scalar_value("x"), 10.0);
}

TEST(Interp, CallsBindArraysByReference) {
  auto r = run(
      "subroutine fill(v, n)\n"
      "  integer :: n, i\n"
      "  double precision :: v(10)\n"
      "  do i = 1, n\n"
      "    v(i) = dble(i)\n"
      "  end do\n"
      "end subroutine fill\n"
      "subroutine main0\n"
      "  double precision :: x(10)\n"
      "  call fill(x, 4)\n"
      "end subroutine main0\n",
      "main0");
  ASSERT_TRUE(r->result.ok) << r->result.error;
  EXPECT_EQ(r->interp->array_element("x", {4}), 4.0);
  EXPECT_EQ(r->interp->array_element("x", {5}), 0.0);  // untouched
}

TEST(Interp, ScalarsPassByReference) {
  auto r = run(
      "subroutine bump(k)\n"
      "  integer :: k\n"
      "  k = k + 1\n"
      "end subroutine bump\n"
      "subroutine main0\n"
      "  integer :: n\n"
      "  n = 41\n"
      "  call bump(n)\n"
      "end subroutine main0\n",
      "main0");
  ASSERT_TRUE(r->result.ok) << r->result.error;
  EXPECT_EQ(r->interp->scalar_value("n"), 42.0);
}

TEST(Interp, RecursionTerminates) {
  auto r = run(
      "subroutine fact(n, acc)\n"
      "  integer :: n, acc\n"
      "  if (n .gt. 1) then\n"
      "    acc = acc * n\n"
      "    call fact(n - 1, acc)\n"
      "  end if\n"
      "end subroutine fact\n"
      "subroutine main0\n"
      "  integer :: r, n\n"
      "  r = 1\n"
      "  n = 5\n"
      "  call fact(n, r)\n"
      "end subroutine main0\n",
      "main0");
  ASSERT_TRUE(r->result.ok) << r->result.error;
  EXPECT_EQ(r->interp->scalar_value("r"), 120.0);
  EXPECT_EQ(r->interp->scalar_value("n"), 5.0);  // n-1 was a copy-in temp
}

TEST(Interp, OutOfBoundsIsCaught) {
  auto r = run(
      "subroutine s\n"
      "  integer :: v(5), i\n"
      "  do i = 1, 6\n"
      "    v(i) = i\n"
      "  end do\n"
      "end subroutine s\n",
      "s");
  EXPECT_FALSE(r->result.ok);
  EXPECT_NE(r->result.error.find("out of range"), std::string::npos);
}

TEST(Interp, StepBudgetStopsRunaway) {
  InterpOptions opts;
  opts.max_steps = 1000;
  auto r = run(
      "subroutine s\n"
      "  integer :: i, j, t\n"
      "  do i = 1, 1000000\n"
      "    do j = 1, 1000000\n"
      "      t = t + 1\n"
      "    end do\n"
      "  end do\n"
      "end subroutine s\n",
      "s", Language::Fortran, opts);
  EXPECT_FALSE(r->result.ok);
  EXPECT_NE(r->result.error.find("budget"), std::string::npos);
}

TEST(Interp, NegativeStepLoops) {
  auto r = run(
      "subroutine s\n"
      "  integer :: v(10), i\n"
      "  do i = 10, 1, -2\n"
      "    v(i) = i\n"
      "  end do\n"
      "end subroutine s\n",
      "s");
  ASSERT_TRUE(r->result.ok) << r->result.error;
  EXPECT_EQ(r->interp->array_element("v", {10}), 10.0);
  EXPECT_EQ(r->interp->array_element("v", {9}), 0.0);
  EXPECT_EQ(r->interp->array_element("v", {2}), 2.0);
}

// ---- dynamic recording -----------------------------------------------------

TEST(InterpDynamic, CountsElementTouches) {
  auto r = run(
      "subroutine s\n"
      "  integer :: v(10), i, t\n"
      "  do i = 1, 10\n"
      "    v(i) = i\n"
      "  end do\n"
      "  do i = 1, 5\n"
      "    t = t + v(i)\n"
      "  end do\n"
      "end subroutine s\n",
      "s");
  ASSERT_TRUE(r->result.ok) << r->result.error;
  const ir::StIdx v = find_array(r->program, "v");
  const DynEntry* defs = r->summary.entry(v, regions::AccessMode::Def);
  const DynEntry* uses = r->summary.entry(v, regions::AccessMode::Use);
  ASSERT_NE(defs, nullptr);
  ASSERT_NE(uses, nullptr);
  EXPECT_EQ(defs->refs, 10u);
  EXPECT_EQ(uses->refs, 5u);
  // Touched sections carry the actual runtime regions.
  EXPECT_TRUE(defs->touched.may_access(regions::AccessMode::Def, {10}));
  EXPECT_TRUE(uses->touched.may_access(regions::AccessMode::Use, {5}));
  EXPECT_FALSE(uses->touched.may_access(regions::AccessMode::Use, {6}));
}

TEST(InterpDynamic, DynamicDensityMatchesHandComputation) {
  auto r = run(
      "subroutine s\n"
      "  double precision :: v(5)\n"
      "  common /c/ v\n"
      "  integer :: i\n"
      "  do i = 1, 5\n"
      "    v(i) = 1.0\n"
      "  end do\n"
      "end subroutine s\n",
      "s");
  ASSERT_TRUE(r->result.ok) << r->result.error;
  const ir::StIdx v = find_array(r->program, "v");
  // 5 touches over 40 bytes -> floor(12.5) = 12.
  EXPECT_EQ(r->summary.dynamic_density_pct(v, regions::AccessMode::Def, r->program), 12);
}

TEST(InterpDynamic, StaticRegionsCoverDynamicTouches) {
  // The soundness cross-check: every dynamically touched element must lie in
  // some static region of the same (array, mode) in the same procedure.
  const char* text =
      "subroutine s\n"
      "  integer :: v(100), w(100), i, t\n"
      "  do i = 2, 40, 3\n"
      "    v(2 * i) = i\n"
      "  end do\n"
      "  do i = 10, 1, -1\n"
      "    t = t + w(i + 5)\n"
      "  end do\n"
      "end subroutine s\n";
  auto r = run(text, "s");
  ASSERT_TRUE(r->result.ok) << r->result.error;

  const auto analysis = serve::analyze_program(r->program);
  for (const auto& [key, entry] : r->summary.entries()) {
    const auto& [array_st, mode] = key;
    // Collect the static regions for this array+mode.
    std::vector<regions::ConvexRegion> static_regions;
    for (const auto& rec : analysis.records) {
      if (rec.array == array_st && rec.mode == mode) {
        static_regions.push_back(regions::ConvexRegion::from_region(rec.region));
      }
    }
    ASSERT_FALSE(static_regions.empty());
    const auto& section = entry.touched.section(mode);
    ASSERT_TRUE(section.has_value());
    // Check every dynamically touched point against the static union.
    const regions::DimAccess& d = section->dim(0);
    for (std::int64_t x = *d.lb.const_value(); x <= *d.ub.const_value(); x += d.stride) {
      if (!entry.exact.may_access(mode, {x})) continue;
      bool covered = false;
      for (const auto& cr : static_regions) {
        regions::Region point({regions::DimAccess::exact(x)});
        covered |= !regions::ConvexRegion::certainly_disjoint(
            cr, regions::ConvexRegion::from_region(point));
      }
      EXPECT_TRUE(covered) << "element " << x << " escaped the static regions";
    }
  }
}

TEST(InterpDynamic, VirtualThreadsSplitTheIterationSpace) {
  InterpOptions opts;
  opts.virtual_threads = 2;
  auto r = run(
      "subroutine s\n"
      "  integer :: v(8), i\n"
      "  do i = 1, 8\n"
      "    v(i) = i\n"
      "  end do\n"
      "end subroutine s\n",
      "s", Language::Fortran, opts);
  ASSERT_TRUE(r->result.ok) << r->result.error;
  const ir::StIdx v = find_array(r->program, "v");
  const DynEntry* defs = r->summary.entry(v, regions::AccessMode::Def);
  ASSERT_NE(defs, nullptr);
  ASSERT_EQ(defs->per_thread.size(), 2u);
  EXPECT_EQ(defs->refs_per_thread.at(0), 4u);
  EXPECT_EQ(defs->refs_per_thread.at(1), 4u);
  // Round-robin over a stride-1 loop interleaves odd/even: per-thread
  // sections are the odd and even lattices, provably disjoint.
  EXPECT_TRUE(r->summary.threads_disjoint(v, regions::AccessMode::Def));
}

TEST(InterpDynamic, BlockedLoopsGiveDisjointThreadRegions) {
  // A blocked outer loop (the privatization-friendly shape): each thread
  // owns a contiguous slab.
  InterpOptions opts;
  opts.virtual_threads = 2;
  auto r = run(
      "subroutine s\n"
      "  integer :: v(8, 4), b, i\n"
      "  do b = 1, 2\n"
      "    do i = 1, 4\n"
      "      v(i + 4 * (b - 1), 1) = b\n"
      "    end do\n"
      "  end do\n"
      "end subroutine s\n",
      "s", Language::Fortran, opts);
  ASSERT_TRUE(r->result.ok) << r->result.error;
  const ir::StIdx v = find_array(r->program, "v");
  EXPECT_TRUE(r->summary.threads_disjoint(v, regions::AccessMode::Def));
}

TEST(InterpDynamic, SharedAccessIsNotDisjoint) {
  InterpOptions opts;
  opts.virtual_threads = 2;
  auto r = run(
      "subroutine s\n"
      "  integer :: v(8), i, t\n"
      "  do i = 1, 8\n"
      "    t = t + v(1)\n"
      "  end do\n"
      "end subroutine s\n",
      "s", Language::Fortran, opts);
  ASSERT_TRUE(r->result.ok) << r->result.error;
  const ir::StIdx v = find_array(r->program, "v");
  EXPECT_FALSE(r->summary.threads_disjoint(v, regions::AccessMode::Use));
}

TEST(InterpDynamic, Fig10DynamicCountsDifferFromStaticRefs) {
  // Static References counts syntactic references (2 DEF); the dynamic view
  // counts element touches (8 + 8 = 16 DEF stores of aarr) — the distinction
  // §VI draws between static and "actual array access patterns".
  auto r = run(
      "int aarr[20];\nint barr[20];\n"
      "void main(void) {\n"
      "  int i;\n"
      "  for (i = 0; i < 8; i++) { aarr[i] = i; }\n"
      "  for (i = 0; i < 8; i++) { aarr[i + 1] = aarr[i]; }\n"
      "}",
      "main", Language::C);
  ASSERT_TRUE(r->result.ok) << r->result.error;
  const ir::StIdx aarr = find_array(r->program, "aarr");
  const DynEntry* defs = r->summary.entry(aarr, regions::AccessMode::Def);
  ASSERT_NE(defs, nullptr);
  EXPECT_EQ(defs->refs, 16u);
  EXPECT_TRUE(defs->touched.may_access(regions::AccessMode::Def, {8}));
  EXPECT_FALSE(defs->touched.may_access(regions::AccessMode::Def, {9}));
}

}  // namespace
}  // namespace ara::interp
