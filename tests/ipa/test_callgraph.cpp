#include "ipa/callgraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "frontend/compile.hpp"

namespace ara::ipa {
namespace {

struct Compiled {
  ir::Program program;
  DiagnosticEngine diags{nullptr};
};

std::unique_ptr<Compiled> compile(const std::string& text) {
  auto out = std::make_unique<Compiled>();
  out->program.sources.add("t.f", text, Language::Fortran);
  EXPECT_TRUE(fe::compile_program(out->program, out->diags)) << out->diags.render();
  return out;
}

const char* kDiamond =
    "program main\n  call a\n  call b\nend program main\n"
    "subroutine a\n  call c\nend subroutine a\n"
    "subroutine b\n  call c\nend subroutine b\n"
    "subroutine c\nend subroutine c\n";

TEST(CallGraph, NodesAndEdges) {
  auto c = compile(kDiamond);
  const CallGraph cg = CallGraph::build(c->program);
  EXPECT_EQ(cg.size(), 4u);
  EXPECT_EQ(cg.edge_count(), 4u);
  const auto main_idx = cg.find("main", c->program);
  ASSERT_TRUE(main_idx.has_value());
  EXPECT_TRUE(cg.node(*main_idx).is_root);
  EXPECT_EQ(cg.node(*main_idx).callsites.size(), 2u);
  const auto c_idx = cg.find("c", c->program);
  ASSERT_TRUE(c_idx.has_value());
  EXPECT_EQ(cg.node(*c_idx).callers.size(), 2u);
  EXPECT_FALSE(cg.node(*c_idx).is_root);
}

TEST(CallGraph, CallSitesKeepSourceLines) {
  auto c = compile(kDiamond);
  const CallGraph cg = CallGraph::build(c->program);
  const auto main_idx = cg.find("main", c->program);
  ASSERT_TRUE(main_idx.has_value());
  EXPECT_EQ(cg.node(*main_idx).callsites[0].line, 2u);
  EXPECT_EQ(cg.node(*main_idx).callsites[1].line, 3u);
}

TEST(CallGraph, PreorderStartsAtRoots) {
  auto c = compile(kDiamond);
  const CallGraph cg = CallGraph::build(c->program);
  const auto order = cg.preorder();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], *cg.find("main", c->program));
}

TEST(CallGraph, BottomUpPlacesCalleesFirst) {
  auto c = compile(kDiamond);
  const CallGraph cg = CallGraph::build(c->program);
  const auto order = cg.bottom_up();
  auto pos = [&](const char* name) {
    const auto idx = cg.find(name, c->program);
    return std::find(order.begin(), order.end(), *idx) - order.begin();
  };
  EXPECT_LT(pos("c"), pos("a"));
  EXPECT_LT(pos("c"), pos("b"));
  EXPECT_LT(pos("a"), pos("main"));
}

TEST(CallGraph, AcyclicGraphReportsNoCycle) {
  auto c = compile(kDiamond);
  EXPECT_FALSE(CallGraph::build(c->program).has_cycle());
}

TEST(CallGraph, DirectRecursionIsACycle) {
  auto c = compile("subroutine r\n  call r\nend subroutine r\n");
  const CallGraph cg = CallGraph::build(c->program);
  EXPECT_TRUE(cg.has_cycle());
  // Recursive-only procedures have callers, so nothing is a root; traversal
  // must still reach every node.
  EXPECT_EQ(cg.preorder().size(), 1u);
  EXPECT_EQ(cg.bottom_up().size(), 1u);
}

TEST(CallGraph, MutualRecursionIsACycle) {
  auto c = compile(
      "subroutine x\n  call y\nend subroutine x\n"
      "subroutine y\n  call x\nend subroutine y\n");
  EXPECT_TRUE(CallGraph::build(c->program).has_cycle());
}

TEST(CallGraph, UnreachableProceduresStillAppear) {
  auto c = compile("subroutine lonely\nend subroutine lonely\n" + std::string(kDiamond));
  const CallGraph cg = CallGraph::build(c->program);
  EXPECT_EQ(cg.size(), 5u);
  EXPECT_EQ(cg.preorder().size(), 5u);
}

TEST(CallGraph, MultipleCallSitesToSameCallee) {
  auto c = compile(
      "subroutine s\n  call t\n  call t\n  call t\nend subroutine s\n"
      "subroutine t\nend subroutine t\n");
  const CallGraph cg = CallGraph::build(c->program);
  const auto s = cg.find("s", c->program);
  EXPECT_EQ(cg.node(*s).callsites.size(), 3u);
  const auto t = cg.find("t", c->program);
  EXPECT_EQ(cg.node(*t).callers.size(), 1u);  // deduplicated
}

}  // namespace
}  // namespace ara::ipa
