// Compiler driver: the user-facing facade that mirrors the paper's workflow
// (§V-B): compile the application with `-IPA:array_section:array_summary
// -dragon`, producing `.dgn`, `.cfg` and `.rgn` files, then load the project
// in Dragon. compile() is the one front-end pass; analyze() summarizes that
// compile per file and links the summaries (serve::analyze_program), the
// same link the batch engine runs, so the program's WHIRL stays available
// to the interpreter, lno and the Dragon advisors.
//
//   ara::driver::Compiler cc;
//   cc.add_source("matrix.c", text, Language::C);
//   if (!cc.compile()) { ... cc.diagnostics().render() ... }
//   ipa::AnalysisResult result = cc.analyze();
//   driver::export_dragon_files(cc.program(), result, "out/", "matrix");
#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "ipa/analyzer.hpp"
#include "ir/layout.hpp"
#include "ir/program.hpp"
#include "rgn/dgn.hpp"
#include "rgn/region_row.hpp"
#include "serve/link.hpp"
#include "support/diagnostics.hpp"

namespace ara::driver {

struct CompilerOptions {
  ir::LayoutOptions layout;  // see ir/layout.hpp
};

class Compiler {
 public:
  Compiler();
  explicit Compiler(CompilerOptions opts);

  /// Registers an in-memory source buffer (serve::read_source loads one
  /// from disk, choosing the language by extension).
  void add_source(std::string name, std::string text, Language lang);

  /// Parse + sema + lowering + layout. False on any error diagnostic.
  bool compile();

  /// Runs Algorithm 1 on the compiled program (requires a successful
  /// compile()). The layout always follows CompilerOptions::layout.
  [[nodiscard]] ipa::AnalysisResult analyze(serve::LinkOptions opts = {}) const;

  [[nodiscard]] ir::Program& program() { return *program_; }
  [[nodiscard]] const ir::Program& program() const { return *program_; }
  [[nodiscard]] const DiagnosticEngine& diagnostics() const { return diags_; }

 private:
  CompilerOptions opts_;
  std::unique_ptr<ir::Program> program_;  // stable address for diags_
  DiagnosticEngine diags_;
  bool compiled_ = false;
};

/// Writes <name>.rgn, <name>.dgn and <name>.cfg into `dir` (created if
/// absent), as `-dragon` does — plus <name>.stats.json when telemetry is
/// enabled (obs::set_enabled). Returns false (with `error` set) on I/O
/// failure.
bool export_dragon_files(const ir::Program& program, const ipa::AnalysisResult& result,
                         const std::filesystem::path& dir, const std::string& name,
                         std::string* error = nullptr);

/// Artifact-level overload shared with the serve engine: writes pre-built
/// rows, project and .cfg text without needing an ipa::AnalysisResult.
bool export_dragon_files(const std::vector<rgn::RegionRow>& rows, const rgn::DgnProject& project,
                         const std::string& cfg_text, const std::filesystem::path& dir,
                         const std::string& name, std::string* error = nullptr);

}  // namespace ara::driver
