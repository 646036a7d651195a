#include "whirl2src/whirl2src.hpp"

#include <gtest/gtest.h>

#include "frontend/compile.hpp"
#include "ipa/analyzer.hpp"
#include "serve/link.hpp"

namespace ara::whirl2src {
namespace {

struct Compiled {
  ir::Program program;
  DiagnosticEngine diags{nullptr};
};

std::unique_ptr<Compiled> compile(const std::string& text, Language lang) {
  auto out = std::make_unique<Compiled>();
  out->program.sources.add(lang == Language::C ? "t.c" : "t.f", text, lang);
  EXPECT_TRUE(fe::compile_program(out->program, out->diags)) << out->diags.render();
  return out;
}

TEST(Whirl2f, FortranArraySubscriptsRestored) {
  // Lowering reversed dims and zero-based the indices; whirl2f must print
  // the original source form back ("minor loss of semantics" aside, §IV-A).
  auto c = compile(
      "subroutine s\n"
      "  integer :: a(10, 20), i, j\n"
      "  do i = 1, 10\n"
      "    do j = 1, 20\n"
      "      a(i, j) = i + j\n"
      "    end do\n"
      "  end do\n"
      "end subroutine s\n",
      Language::Fortran);
  const std::string out = whirl2f(c->program.procedures[0], c->program);
  EXPECT_NE(out.find("subroutine s"), std::string::npos);
  EXPECT_NE(out.find("a(i, j)"), std::string::npos);
  EXPECT_NE(out.find("do i = 1, 10"), std::string::npos);
  EXPECT_NE(out.find("end do"), std::string::npos);
}

TEST(Whirl2f, NonUnitLowerBoundRestored) {
  auto c = compile(
      "subroutine s\n"
      "  integer :: a(0:7), i\n"
      "  do i = 0, 7\n"
      "    a(i) = i\n"
      "  end do\n"
      "end subroutine s\n",
      Language::Fortran);
  const std::string out = whirl2f(c->program.procedures[0], c->program);
  EXPECT_NE(out.find("a(i)"), std::string::npos);
  EXPECT_NE(out.find("0:7"), std::string::npos);  // the declaration
}

TEST(Whirl2f, DotOperatorsAndIf) {
  auto c = compile(
      "subroutine s(n)\n"
      "  integer :: n\n"
      "  if (n .lt. 0) then\n"
      "    n = 0\n"
      "  else\n"
      "    n = 1\n"
      "  end if\n"
      "end subroutine s\n",
      Language::Fortran);
  const std::string out = whirl2f(c->program.procedures[0], c->program);
  EXPECT_NE(out.find(".lt."), std::string::npos);
  EXPECT_NE(out.find("else"), std::string::npos);
  EXPECT_NE(out.find("end if"), std::string::npos);
}

TEST(Whirl2f, CallsWithArrayActuals) {
  auto c = compile(
      "subroutine callee(v)\n"
      "  double precision :: v(5)\n"
      "end subroutine callee\n"
      "subroutine caller\n"
      "  double precision :: x(5)\n"
      "  call callee(x)\n"
      "end subroutine caller\n",
      Language::Fortran);
  const std::string out = whirl2f(c->program.procedures[1], c->program);
  EXPECT_NE(out.find("call callee(x)"), std::string::npos);
}

TEST(Whirl2c, CArraysAndForLoops) {
  auto c = compile("int a[8];\nvoid main(void) { int i; for (i = 0; i < 8; i++) a[i] = i; }",
                   Language::C);
  const std::string out = whirl2c(c->program.procedures[0], c->program);
  EXPECT_NE(out.find("void main"), std::string::npos);
  EXPECT_NE(out.find("a[i] = i;"), std::string::npos);
  EXPECT_NE(out.find("for (i = 0; i <= "), std::string::npos);  // limit is inclusive in IR
}

TEST(Whirl2c, FormalArrayParameter) {
  auto c = compile("void f(double v[5], int n) { v[0] = n; }", Language::C);
  const std::string out = whirl2c(c->program.procedures[0], c->program);
  EXPECT_NE(out.find("double v[5]"), std::string::npos);
  EXPECT_NE(out.find("v[0] ="), std::string::npos);
}

TEST(EmitProgram, CEmitsGlobalsFirst) {
  auto c = compile("int g[4];\nvoid main(void) { g[0] = 1; }", Language::C);
  const std::string out = emit_program(c->program, Language::C);
  const std::size_t global_pos = out.find("int g[4];");
  const std::size_t main_pos = out.find("void main");
  ASSERT_NE(global_pos, std::string::npos);
  ASSERT_NE(main_pos, std::string::npos);
  EXPECT_LT(global_pos, main_pos);
}

TEST(EmitProgram, RecompilesToTheSameAnalysis) {
  // Round-trip property: source -> WHIRL -> whirl2f -> WHIRL' must produce
  // identical region rows (modulo the file name column and line numbers).
  const char* text =
      "subroutine s\n"
      "  integer :: v(100), i\n"
      "  do i = 2, 99, 3\n"
      "    v(i) = v(i - 1) + 1\n"
      "  end do\n"
      "end subroutine s\n";
  auto c1 = compile(text, Language::Fortran);
  const std::string emitted = emit_program(c1->program, Language::Fortran);
  auto c2 = compile(emitted, Language::Fortran);

  const auto r1 = serve::analyze_program(c1->program);
  const auto r2 = serve::analyze_program(c2->program);
  ASSERT_EQ(r1.rows.size(), r2.rows.size()) << emitted;
  for (std::size_t i = 0; i < r1.rows.size(); ++i) {
    EXPECT_EQ(r1.rows[i].array, r2.rows[i].array);
    EXPECT_EQ(r1.rows[i].mode, r2.rows[i].mode);
    EXPECT_EQ(r1.rows[i].lb, r2.rows[i].lb);
    EXPECT_EQ(r1.rows[i].ub, r2.rows[i].ub);
    EXPECT_EQ(r1.rows[i].stride, r2.rows[i].stride);
    EXPECT_EQ(r1.rows[i].size_bytes, r2.rows[i].size_bytes);
  }
}


TEST(Whirl2f, CoindexedAccessesPrintTheImage) {
  auto c = compile(
      "subroutine s(me)\n"
      "  integer :: me\n"
      "  double precision :: u(8) [*]\n"
      "  common /f/ u\n"
      "  u(1) = u(2) [me + 1]\n"
      "end subroutine s\n",
      Language::Fortran);
  const std::string out = whirl2f(c->program.procedures[0], c->program);
  EXPECT_NE(out.find("u(2)[(me + 1)]"), std::string::npos);
  EXPECT_NE(out.find("u(1) ="), std::string::npos);
}

TEST(Whirl2f, NegativeStrideLoopRoundTrips) {
  const char* text =
      "subroutine s\n"
      "  integer :: v(10), i\n"
      "  do i = 10, 1, -2\n"
      "    v(i) = i\n"
      "  end do\n"
      "end subroutine s\n";
  auto c1 = compile(text, Language::Fortran);
  const std::string emitted = emit_program(c1->program, Language::Fortran);
  EXPECT_NE(emitted.find("do i = 10, 1, "), std::string::npos);
  auto c2 = compile(emitted, Language::Fortran);
  const auto r1 = serve::analyze_program(c1->program);
  const auto r2 = serve::analyze_program(c2->program);
  ASSERT_EQ(r1.rows.size(), r2.rows.size());
  for (std::size_t i = 0; i < r1.rows.size(); ++i) {
    EXPECT_EQ(r1.rows[i].lb, r2.rows[i].lb);
    EXPECT_EQ(r1.rows[i].ub, r2.rows[i].ub);
    EXPECT_EQ(r1.rows[i].stride, r2.rows[i].stride);
  }
}

}  // namespace
}  // namespace ara::whirl2src
