#include "driver/compiler.hpp"

#include <algorithm>
#include <fstream>

#include "cfg/cfg.hpp"
#include "frontend/compile.hpp"
#include "obs/stats.hpp"
#include "obs/timeline.hpp"
#include "rgn/dgn.hpp"
#include "support/faultinject.hpp"
#include "support/retry.hpp"

namespace ara::driver {

ARA_STATISTIC(stat_files_added, "driver.files_added", "Source files registered with the driver");
ARA_STATISTIC(stat_exports, "driver.exports", "Dragon export file sets written");
ARA_STATISTIC(stat_export_retries, "driver.export_retries",
              "Transient artifact-write faults absorbed by retrying");

Compiler::Compiler() : Compiler(CompilerOptions{}) {}

Compiler::Compiler(CompilerOptions opts)
    : opts_(opts), program_(std::make_unique<ir::Program>()), diags_(&program_->sources) {}

void Compiler::add_source(std::string name, std::string text, Language lang) {
  stat_files_added.bump();
  program_->sources.add(std::move(name), std::move(text), lang);
}

bool Compiler::compile() {
  ARA_SPAN("compile", "driver");
  compiled_ = fe::compile_program(*program_, diags_);
  if (compiled_) {
    // Re-run layout with the configured bases (compile_program used defaults).
    ir::assign_layout(*program_, opts_.layout);
  }
  return compiled_;
}

ipa::AnalysisResult Compiler::analyze(serve::LinkOptions opts) const {
  ARA_SPAN("analyze", "driver");
  opts.layout = opts_.layout;
  return serve::analyze_program(*program_, opts);
}

bool export_dragon_files(const ir::Program& program, const ipa::AnalysisResult& result,
                         const std::filesystem::path& dir, const std::string& name,
                         std::string* error) {
  return export_dragon_files(result.rows, ipa::build_dgn_project(program, result, name),
                             cfg::write_cfg(cfg::build_all(program)), dir, name, error);
}

bool export_dragon_files(const std::vector<rgn::RegionRow>& rows, const rgn::DgnProject& project,
                         const std::string& cfg_text, const std::filesystem::path& dir,
                         const std::string& name, std::string* error) {
  ARA_SPAN("export", "driver");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot create " + dir.string() + ": " + ec.message();
    return false;
  }
  // Artifact writes retry transient faults just like cache I/O does: a
  // flaky disk should cost milliseconds, not the whole analysis run.
  auto write = [&](const std::filesystem::path& path, const std::string& text) {
    const bool ok = support::retry_io(
        support::RetryPolicy{},
        [&] {
          const std::size_t keep = fi::check_io("export.write", path.filename().string());
          std::ofstream out(path);
          out << text.substr(0, std::min(text.size(), keep));
          if (!out) throw fi::IoFault("write failed: " + path.string());
          if (keep < text.size()) throw fi::IoFault("short write: " + path.string());
          return true;
        },
        [](int) { stat_export_retries.bump(); });
    if (!ok && error != nullptr) *error = "cannot write " + path.string();
    return ok;
  };
  if (!write(dir / (name + ".rgn"), rgn::write_rgn(rows))) return false;
  if (!write(dir / (name + ".dgn"), rgn::write_dgn(project))) return false;
  if (!write(dir / (name + ".cfg"), cfg_text)) return false;
  // Telemetry rides along with the Dragon files so the counters that
  // produced an export are inspectable next to it.
  if (obs::enabled() &&
      !write(dir / (name + ".stats.json"), obs::write_stats_json(name))) {
    return false;
  }
  stat_exports.bump();
  return true;
}

}  // namespace ara::driver
