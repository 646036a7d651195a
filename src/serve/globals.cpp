#include "serve/globals.hpp"

#include <optional>
#include <set>
#include <sstream>

#include "frontend/parser_c.hpp"
#include "ipa/summary_io.hpp"
#include "obs/stats.hpp"
#include "support/string_utils.hpp"

namespace ara::serve {

ARA_STATISTIC(stat_index_globals, "serve.index_globals",
              "File-scope declarations collected into the cross-unit global index");

namespace {

/// Constant-folds a dimension bound expression — must mirror Sema::fold so
/// the imported shape equals the shape the whole-program front end would give
/// the reference.
std::optional<std::int64_t> fold(const fe::Expr* e) {
  if (e == nullptr) return std::nullopt;
  switch (e->kind) {
    case fe::ExprKind::IntLit:
      return e->int_val;
    case fe::ExprKind::Unary: {
      const auto v = fold(e->args[0].get());
      if (!v) return std::nullopt;
      return e->name == "-" ? std::optional(-*v) : std::nullopt;
    }
    case fe::ExprKind::Binary: {
      const auto a = fold(e->args[0].get());
      const auto b = fold(e->args[1].get());
      if (!a || !b) return std::nullopt;
      switch (e->op) {
        case fe::BinOp::Add:
          return *a + *b;
        case fe::BinOp::Sub:
          return *a - *b;
        case fe::BinOp::Mul:
          return *a * *b;
        case fe::BinOp::Div:
          return *b == 0 ? std::nullopt : std::optional(*a / *b);
        default:
          return std::nullopt;
      }
    }
    default:
      return std::nullopt;
  }
}

/// VarDecl -> ImportDecl, mirroring the C branch of Sema::make_ty (lower
/// bound defaults to 0; a symbolic C extent parsed as `name - 1` cannot be
/// carried exactly and stays unknown).
fe::ImportDecl to_import(const fe::VarDecl& decl) {
  fe::ImportDecl out;
  out.name = decl.name;
  out.mtype = decl.mtype;
  out.is_array = !decl.dims.empty();
  out.row_major = true;
  for (const fe::DimSpec& d : decl.dims) {
    ir::ArrayDim dim;
    if (d.lb) {
      if (const auto v = fold(d.lb.get())) {
        dim.lb = *v;
      } else if (d.lb->kind == fe::ExprKind::VarRef) {
        dim.lb_sym = to_lower(d.lb->name);
      }
    } else {
      dim.lb = 0;
    }
    if (d.ub) {
      if (const auto v = fold(d.ub.get())) {
        dim.ub = *v;
      } else if (d.ub->kind == fe::ExprKind::VarRef) {
        dim.ub_sym = to_lower(d.ub->name);
      }
    }
    out.dims.push_back(std::move(dim));
  }
  return out;
}

}  // namespace

fe::GlobalImportTable build_global_index(const std::vector<SourceBuffer>& sources) {
  fe::GlobalImportTable index;
  if (sources.size() < 2) return index;
  bool any_c = false;
  for (const SourceBuffer& src : sources) any_c = any_c || src.lang == Language::C;
  if (!any_c) return index;

  // First declaration wins in unit order, like Sema::declare_globals:
  // file-scope declarations first, then COMMON-style proc declarations
  // (which the C subset does not produce, but the sweep mirrors sema's).
  auto declare = [&](const fe::VarDecl& decl) {
    const std::string key = to_lower(decl.name);
    if (index.count(key) != 0) return;
    stat_index_globals.bump();
    index.emplace(key, to_import(decl));
  };
  for (const SourceBuffer& src : sources) {
    if (src.lang != Language::C) continue;
    try {
      ir::Program scratch;
      scratch.sources.add(src.name, src.text, src.lang);
      DiagnosticEngine diags(&scratch.sources);
      const fe::ModuleAst mod = fe::parse_c(scratch.sources, 1, diags);
      if (diags.has_errors()) continue;  // the unit will fail under its own barrier
      for (const fe::VarDecl& g : mod.globals) declare(g);
      for (const fe::ProcDecl& proc : mod.procs) {
        for (const fe::VarDecl& d : proc.decls) {
          if (d.is_global) declare(d);
        }
      }
    } catch (...) {
      // Best-effort: a unit hostile enough to throw in the parser is dealt
      // with by the per-unit error barrier, not the index scan.
    }
  }
  return index;
}

std::string import_signature(const fe::ImportDecl& decl) {
  std::ostringstream os;
  os << ipa::io::enc(decl.name) << ':' << ir::mtype_name(decl.mtype) << ':'
     << (decl.is_array ? 'A' : 'S') << (decl.row_major ? '1' : '0');
  for (const ir::ArrayDim& d : decl.dims) {
    os << ':' << (d.lb ? std::to_string(*d.lb) : "?") << ';'
       << (d.ub ? std::to_string(*d.ub) : "?") << ';' << ipa::io::enc(d.lb_sym) << ';'
       << ipa::io::enc(d.ub_sym);
  }
  return os.str();
}

std::string import_flags(const std::vector<std::string>& names,
                         const fe::GlobalImportTable& index) {
  if (names.empty()) return {};
  std::set<std::string> sorted(names.begin(), names.end());
  std::string out = ";imports=";
  for (const std::string& name : sorted) {
    const auto it = index.find(name);
    out += ipa::io::enc(name);
    out += '=';
    out += it != index.end() ? import_signature(it->second) : std::string("!");
    out += ',';
  }
  return out;
}

}  // namespace ara::serve
