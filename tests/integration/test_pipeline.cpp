// End-to-end pipeline tests on the paper's Fig 10 example: compile -> IPA ->
// rows -> export -> Dragon load, checked against the published Fig 9 values.
#include <gtest/gtest.h>

#include <filesystem>

#include "cfg/cfg.hpp"
#include "dragon/session.hpp"
#include "dragon/table.hpp"
#include "driver/compiler.hpp"
#include "serve/engine.hpp"
#include "support/string_utils.hpp"

namespace ara {
namespace {

namespace fs = std::filesystem;

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const fs::path src = fs::path(ARA_WORKLOADS_DIR) / "fig10_matrix.c";
    const auto buf = serve::read_source(src, nullptr);
    ASSERT_TRUE(buf.has_value()) << src;
    cc_.add_source(buf->name, buf->text, buf->lang);
    ASSERT_TRUE(cc_.compile()) << cc_.diagnostics().render();
    result_ = cc_.analyze();
  }

  std::vector<const rgn::RegionRow*> rows(const std::string& array, const std::string& mode) {
    std::vector<const rgn::RegionRow*> out;
    for (const rgn::RegionRow& row : result_.rows) {
      if (iequals(row.array, array) && row.mode == mode) out.push_back(&row);
    }
    return out;
  }

  driver::Compiler cc_;
  ipa::AnalysisResult result_;
};

TEST_F(PipelineTest, Fig9RowsReproduceExactly) {
  // "aarr has been defined twice and used three times" with the Fig 9 rows:
  //   DEF 2 refs: [0:7:1], [1:8:1]; USE 3 refs: [0:7:1], [0:7:1], [2:6:2];
  //   esize 4, int, dim 20, tot 20, 80 bytes, density 2 / 3.
  const auto defs = rows("aarr", "DEF");
  const auto uses = rows("aarr", "USE");
  ASSERT_EQ(defs.size(), 2u);
  ASSERT_EQ(uses.size(), 3u);
  EXPECT_EQ(defs[0]->lb + ":" + defs[0]->ub + ":" + defs[0]->stride, "0:7:1");
  EXPECT_EQ(defs[1]->lb + ":" + defs[1]->ub + ":" + defs[1]->stride, "1:8:1");
  EXPECT_EQ(uses[2]->lb + ":" + uses[2]->ub + ":" + uses[2]->stride, "2:6:2");
  for (const auto* r : defs) {
    EXPECT_EQ(r->references, 2u);
    EXPECT_EQ(r->acc_density, 2);
  }
  for (const auto* r : uses) {
    EXPECT_EQ(r->references, 3u);
    EXPECT_EQ(r->acc_density, 3);
    EXPECT_EQ(r->element_size, 4);
    EXPECT_EQ(r->data_type, "int");
    EXPECT_EQ(r->tot_size, 20);
    EXPECT_EQ(r->size_bytes, 80);
  }
}

TEST_F(PipelineTest, GlobalScopeShowsBothArrays) {
  dragon::ArrayTable table(result_.rows);
  const auto arrays = table.arrays_in_scope("@");
  ASSERT_EQ(arrays.size(), 2u);
  EXPECT_TRUE(iequals(arrays[0], "aarr"));
  EXPECT_TRUE(iequals(arrays[1], "barr"));
}

TEST_F(PipelineTest, ExportLoadRoundTrip) {
  const fs::path dir = fs::temp_directory_path() / "ara_pipeline_test";
  fs::remove_all(dir);
  std::string error;
  ASSERT_TRUE(driver::export_dragon_files(cc_.program(), result_, dir, "matrix", &error))
      << error;
  const auto session = dragon::Session::load(dir / "matrix.dgn", &error);
  ASSERT_TRUE(session.has_value()) << error;
  EXPECT_EQ(session->table().rows().size(), result_.rows.size());
  EXPECT_EQ(session->table().find("aarr").size(), 5u);  // 2 DEF + 3 USE
  fs::remove_all(dir);
}

TEST_F(PipelineTest, CfgCoversTheFourLoops) {
  const auto cfgs = cfg::build_all(cc_.program());
  ASSERT_EQ(cfgs.size(), 1u);
  std::size_t loop_heads = 0;
  for (const auto& b : cfgs[0].blocks()) {
    loop_heads += b.kind == cfg::BlockKind::LoopHead ? 1 : 0;
  }
  EXPECT_EQ(loop_heads, 4u);
}

TEST_F(PipelineTest, MixedLanguageProgramsAnalyzeTogether) {
  // The paper's tool accepts Fortran and C in one application (§I); globals
  // do not unify across languages here, but calls do.
  driver::Compiler cc;
  cc.add_source("work.f",
                "subroutine fwork(v)\n"
                "  double precision :: v(8)\n"
                "  integer :: i\n"
                "  do i = 1, 8\n"
                "    v(i) = 1.0\n"
                "  end do\n"
                "end subroutine fwork\n",
                Language::Fortran);
  cc.add_source("main.c",
                "double buf[8];\n"
                "void main(void) { fwork(buf); }",
                Language::C);
  ASSERT_TRUE(cc.compile()) << cc.diagnostics().render();
  const auto result = cc.analyze();
  EXPECT_EQ(result.callgraph.size(), 2u);
  EXPECT_EQ(result.callgraph.edge_count(), 1u);
  // fwork's DEF propagates onto buf as an IDEF row in main.
  bool idef = false;
  for (const rgn::RegionRow& row : result.rows) {
    idef |= row.mode == "IDEF" && iequals(row.array, "buf");
  }
  EXPECT_TRUE(idef);
}

}  // namespace
}  // namespace ara
