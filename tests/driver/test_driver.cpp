#include "driver/compiler.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "serve/engine.hpp"

namespace ara::driver {
namespace {

namespace fs = std::filesystem;

/// Loads `path` through the one extension-to-language map and registers it.
serve::SourceBuffer read_into(Compiler* cc, const fs::path& path, std::string* warning) {
  std::optional<serve::SourceBuffer> src = serve::read_source(path, warning);
  EXPECT_TRUE(src.has_value()) << path;
  if (!src.has_value()) return {};
  cc->add_source(src->name, src->text, src->lang);
  return *src;
}

TEST(Driver, ReadSourceSelectsLanguageByExtension) {
  const fs::path dir = fs::temp_directory_path() / "ara_driver_test";
  fs::create_directories(dir);
  std::ofstream(dir / "x.c") << "int g[4];\nvoid main(void) { g[0] = 1; }\n";
  std::ofstream(dir / "y.f") << "subroutine s\n  integer :: i\n  i = 1\nend\n";

  Compiler cc;
  std::string warning;
  EXPECT_EQ(read_into(&cc, dir / "x.c", &warning).lang, Language::C);
  EXPECT_EQ(read_into(&cc, dir / "y.f", &warning).lang, Language::Fortran);
  EXPECT_EQ(warning, "");
  EXPECT_EQ(cc.program().sources.language(1), Language::C);
  EXPECT_EQ(cc.program().sources.language(2), Language::Fortran);
  EXPECT_EQ(cc.program().sources.name(1), "x.c");
  EXPECT_TRUE(cc.compile()) << cc.diagnostics().render();
  fs::remove_all(dir);
}

TEST(Driver, ReadSourceRecognizesFortranFreeFormExtensions) {
  const fs::path dir = fs::temp_directory_path() / "ara_driver_f90_test";
  fs::create_directories(dir);
  const char* src = "subroutine s\n  integer :: i\n  i = 1\nend\n";
  std::ofstream(dir / "a.f90") << src;
  std::ofstream(dir / "b.for") << src;
  std::ofstream(dir / "c.F") << src;  // case-insensitive

  Compiler cc;
  std::string warning;
  for (const char* name : {"a.f90", "b.for", "c.F"}) {
    EXPECT_EQ(read_into(&cc, dir / name, &warning).lang, Language::Fortran) << name;
  }
  // Recognized extensions produce no fallback warning.
  EXPECT_EQ(warning, "");
  fs::remove_all(dir);
}

TEST(Driver, ReadSourceWarnsOnUnknownExtensionFallback) {
  const fs::path dir = fs::temp_directory_path() / "ara_driver_ext_test";
  fs::create_directories(dir);
  std::ofstream(dir / "prog.ftn") << "subroutine s\n  integer :: i\n  i = 1\nend\n";

  Compiler cc;
  std::string warning;
  EXPECT_EQ(read_into(&cc, dir / "prog.ftn", &warning).lang, Language::Fortran);
  EXPECT_NE(warning.find("unrecognized extension"), std::string::npos) << warning;
  EXPECT_NE(warning.find(".ftn"), std::string::npos) << warning;
  EXPECT_NE(warning.find("assuming Fortran"), std::string::npos) << warning;
  EXPECT_TRUE(cc.compile()) << cc.diagnostics().render();
  fs::remove_all(dir);
}

TEST(Driver, ReadSourceFailsOnMissingPath) {
  std::string warning;
  EXPECT_FALSE(serve::read_source("/nonexistent/nope.f", &warning).has_value());
}

TEST(Driver, CompileReportsParseErrors) {
  Compiler cc;
  cc.add_source("bad.f", "subroutine s\n  do i = \nend\n", Language::Fortran);
  EXPECT_FALSE(cc.compile());
  EXPECT_TRUE(cc.diagnostics().has_errors());
  EXPECT_NE(cc.diagnostics().render().find("bad.f"), std::string::npos);
}

TEST(Driver, LayoutOptionsAreApplied) {
  CompilerOptions opts;
  opts.layout.global_base = 0x55590000;
  Compiler cc(opts);
  cc.add_source("t.c", "int g[4];\nvoid main(void) { g[0] = 1; }\n", Language::C);
  ASSERT_TRUE(cc.compile()) << cc.diagnostics().render();
  bool found = false;
  for (ir::StIdx idx : cc.program().symtab.all_sts()) {
    const ir::St& st = cc.program().symtab.st(idx);
    if (st.name == "g") {
      EXPECT_EQ(st.addr, 0x55590000u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Driver, ExportFailsGracefullyOnBadDirectory) {
  Compiler cc;
  cc.add_source("t.c", "int g[4];\nvoid main(void) { g[0] = 1; }\n", Language::C);
  ASSERT_TRUE(cc.compile());
  const auto result = cc.analyze();
  std::string error;
  EXPECT_FALSE(export_dragon_files(cc.program(), result, "/proc/definitely/not/writable",
                                   "p", &error));
  EXPECT_FALSE(error.empty());
}

TEST(Driver, DgnProjectNamesEntryProcedures) {
  Compiler cc;
  cc.add_source("t.f",
                "program main\n  call s\nend program main\n"
                "subroutine s\nend subroutine s\n",
                Language::Fortran);
  ASSERT_TRUE(cc.compile()) << cc.diagnostics().render();
  const auto result = cc.analyze();
  const rgn::DgnProject project = ipa::build_dgn_project(cc.program(), result, "p");
  const rgn::DgnProc* main_proc = project.find_proc("main");
  const rgn::DgnProc* s_proc = project.find_proc("s");
  ASSERT_NE(main_proc, nullptr);
  ASSERT_NE(s_proc, nullptr);
  EXPECT_TRUE(main_proc->is_entry);
  EXPECT_FALSE(s_proc->is_entry);
  ASSERT_EQ(project.edges.size(), 1u);
  EXPECT_EQ(project.edges[0].caller, "main");
  EXPECT_EQ(project.edges[0].callee, "s");
}

}  // namespace
}  // namespace ara::driver
