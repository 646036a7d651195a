#include "serve/summary.hpp"

#include <map>
#include <set>
#include <sstream>

#include "ipa/callgraph.hpp"
#include "ipa/local.hpp"
#include "ipa/summary_io.hpp"
#include "obs/timeline.hpp"
#include "support/string_utils.hpp"

namespace ara::serve {

namespace io = ipa::io;

namespace {

constexpr std::string_view kMagic = "ARA-UNIT 4";  // v4: Import symbol kind

char kind_tag(SymInfo::Kind k) {
  switch (k) {
    case SymInfo::Kind::Proc:
      return 'P';
    case SymInfo::Kind::Extern:
      return 'X';
    case SymInfo::Kind::Global:
      return 'G';
    case SymInfo::Kind::Formal:
      return 'F';
    case SymInfo::Kind::Local:
      return 'L';
    case SymInfo::Kind::Import:
      return 'I';
  }
  return '?';
}

std::optional<SymInfo::Kind> kind_from_tag(char c) {
  switch (c) {
    case 'P':
      return SymInfo::Kind::Proc;
    case 'X':
      return SymInfo::Kind::Extern;
    case 'G':
      return SymInfo::Kind::Global;
    case 'F':
      return SymInfo::Kind::Formal;
    case 'L':
      return SymInfo::Kind::Local;
    case 'I':
      return SymInfo::Kind::Import;
    default:
      return std::nullopt;
  }
}

std::optional<ir::Mtype> mtype_from_name(std::string_view name) {
  using ir::Mtype;
  static constexpr std::pair<std::string_view, Mtype> kTable[] = {
      {"V", Mtype::Void},  // ir::mtype_name spelling
      {"I1", Mtype::I1},  {"I2", Mtype::I2}, {"I4", Mtype::I4},
      {"I8", Mtype::I8},  {"U4", Mtype::U4}, {"U8", Mtype::U8},
      {"F4", Mtype::F4},  {"F8", Mtype::F8},
  };
  for (const auto& [n, m] : kTable) {
    if (n == name) return m;
  }
  return std::nullopt;
}

std::string write_dims(const std::vector<ir::ArrayDim>& dims) {
  if (dims.empty()) return "-";
  std::ostringstream os;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    const ir::ArrayDim& d = dims[i];
    if (i != 0) os << '|';
    os << (d.lb ? std::to_string(*d.lb) : "?") << ';'
       << (d.ub ? std::to_string(*d.ub) : "?") << ';' << io::enc(d.lb_sym) << ';'
       << io::enc(d.ub_sym);
  }
  return os.str();
}

std::optional<std::vector<ir::ArrayDim>> read_dims(std::string_view tok) {
  std::vector<ir::ArrayDim> out;
  if (tok == "-") return out;
  while (!tok.empty()) {
    const std::size_t bar = tok.find('|');
    std::string_view one = tok.substr(0, bar);
    tok = bar == std::string_view::npos ? std::string_view{} : tok.substr(bar + 1);
    ir::ArrayDim d;
    std::string_view fields[4];
    for (int f = 0; f < 4; ++f) {
      const std::size_t semi = one.find(';');
      if (f < 3 && semi == std::string_view::npos) return std::nullopt;
      fields[f] = one.substr(0, semi);
      one = semi == std::string_view::npos ? std::string_view{} : one.substr(semi + 1);
    }
    if (fields[0] != "?") {
      const auto v = io::read_i64(fields[0]);
      if (!v) return std::nullopt;
      d.lb = *v;
    }
    if (fields[1] != "?") {
      const auto v = io::read_i64(fields[1]);
      if (!v) return std::nullopt;
      d.ub = *v;
    }
    const auto lbs = io::dec(fields[2]);
    const auto ubs = io::dec(fields[3]);
    if (!lbs || !ubs) return std::nullopt;
    d.lb_sym = *lbs;
    d.ub_sym = *ubs;
    out.push_back(std::move(d));
  }
  return out;
}

std::string write_actual(const ipa::Actual& a) {
  if (a.array != ir::kInvalidSt) return "a:" + std::to_string(a.array - 1);
  if (a.affine) return "e:" + io::write_linexpr(*a.affine);
  return "u";
}

std::optional<ipa::Actual> read_actual(std::string_view tok, std::size_t nsyms) {
  ipa::Actual a;
  if (tok == "u") return a;
  if (tok.size() >= 2 && tok[1] == ':') {
    if (tok[0] == 'a') {
      const auto v = io::read_u64(tok.substr(2));
      if (!v || *v >= nsyms) return std::nullopt;
      a.array = static_cast<ir::StIdx>(*v + 1);
      return a;
    }
    if (tok[0] == 'e') {
      auto e = io::read_linexpr(tok.substr(2));
      if (!e) return std::nullopt;
      a.affine = std::move(*e);
      return a;
    }
  }
  return std::nullopt;
}

/// Splits a line into whitespace-separated tokens.
std::vector<std::string_view> split_ws(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

/// Sequential line reader over the serialized text; also hands out raw byte
/// runs (for the embedded CFG blob).
struct LineReader {
  std::string_view text;
  std::size_t pos = 0;

  std::optional<std::string_view> line() {
    if (pos >= text.size()) return std::nullopt;
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) return std::nullopt;  // must end in '\n'
    std::string_view out = text.substr(pos, nl - pos);
    pos = nl + 1;
    return out;
  }

  std::optional<std::string_view> raw(std::size_t n) {
    if (text.size() - pos < n) return std::nullopt;
    std::string_view out = text.substr(pos, n);
    pos += n;
    return out;
  }
};

template <typename T>
bool read_count(std::string_view tok, T* out) {
  const auto v = io::read_u64(tok);
  // Cap collection counts well below anything a real unit produces, so a
  // corrupted count cannot trigger a giant allocation before the payload
  // mismatch is detected.
  if (!v || *v > 100000000ULL) return false;
  *out = static_cast<T>(*v);
  return true;
}

bool read_u32_tok(std::string_view tok, std::uint32_t* out) {
  const auto v = io::read_u64(tok);
  if (!v || *v > 0xffffffffULL) return false;
  *out = static_cast<std::uint32_t>(*v);
  return true;
}

bool read_bool_tok(std::string_view tok, bool* out) {
  if (tok == "0") {
    *out = false;
    return true;
  }
  if (tok == "1") {
    *out = true;
    return true;
  }
  return false;
}

}  // namespace

std::vector<UnitSummary> summarize(const ir::Program& program,
                                   const std::vector<fe::ExternRef>& externs,
                                   const std::vector<std::string>& imported_globals) {
  const ir::SymbolTable& symtab = program.symtab;
  std::vector<UnitSummary> units(program.sources.file_count());
  for (FileId f = 1; f <= units.size(); ++f) {
    units[f - 1].source_name = program.sources.name(f);
    units[f - 1].language = program.sources.language(f);
  }
  const ipa::CallGraph cg = ipa::CallGraph::build(program);
  std::vector<char> defined(symtab.st_count() + 1, 0);
  for (const ipa::CGNode& node : cg.nodes()) defined[node.proc_st] = 1;
  const std::set<std::string> imported(imported_globals.begin(), imported_globals.end());

  auto sym_info = [&](ir::StIdx idx, SymInfo::Kind kind) {
    const ir::St& st = symtab.st(idx);
    const ir::Ty& ty = symtab.ty(st.ty);
    SymInfo info;
    info.kind = kind;
    info.name = st.name;
    if (st.owner_proc != ir::kInvalidSt) info.owner = to_lower(symtab.st(st.owner_proc).name);
    info.formal_pos = st.formal_pos;
    info.line = st.loc.line;
    info.col = st.loc.col;
    info.is_array = ty.is_array();
    info.mtype = ty.mtype;
    info.row_major = ty.row_major;
    info.noncontiguous = ty.noncontiguous;
    info.coarray = ty.coarray;
    info.dims = ty.dims;
    return info;
  };

  // Each file lists the symbols it declares, in creation order; `own` is
  // every symbol's unit StIdx within its declaring file.
  std::vector<ir::StIdx> own(symtab.st_count() + 1, ir::kInvalidSt);
  for (ir::StIdx idx : symtab.all_sts()) {
    const ir::St& st = symtab.st(idx);
    SymInfo::Kind kind = SymInfo::Kind::Local;
    if (st.sclass == ir::StClass::Proc) {
      kind = defined[idx] != 0 ? SymInfo::Kind::Proc : SymInfo::Kind::Extern;
    } else if (st.storage == ir::StStorage::Global) {
      kind = imported.count(to_lower(st.name)) != 0 ? SymInfo::Kind::Import
                                                    : SymInfo::Kind::Global;
    } else if (st.storage == ir::StStorage::Formal) {
      kind = SymInfo::Kind::Formal;
    }
    std::vector<SymInfo>& symbols = units[st.file - 1].symbols;
    symbols.push_back(sym_info(idx, kind));
    own[idx] = static_cast<ir::StIdx>(symbols.size());
  }

  // A symbol one file uses but another declared is a global declared there
  // first: an Import entry of the using file, added on first use.
  std::vector<std::map<ir::StIdx, ir::StIdx>> imports(units.size());
  auto renumber = [&](FileId file, ir::StIdx idx) {
    if (symtab.st(idx).file == file) return own[idx];
    const auto [it, fresh] = imports[file - 1].emplace(idx, ir::kInvalidSt);
    if (fresh) {
      std::vector<SymInfo>& symbols = units[file - 1].symbols;
      symbols.push_back(sym_info(idx, SymInfo::Kind::Import));
      it->second = static_cast<ir::StIdx>(symbols.size());
    }
    return it->second;
  };

  // IPL local analysis of every procedure, in call-graph order. Calls are
  // kept by name so the link resolves them across units.
  const ipa::LocalAnalyzer local(program);
  {
    ARA_SPAN("local-ARA", "ipa");
    for (const ipa::CGNode& node : cg.nodes()) {
      ipa::LocalSummary ls = local.analyze(node);
      ProcSummary proc;
      proc.sym = own[node.proc_st] - 1;
      proc.records = std::move(ls.records);
      for (ipa::AccessRecord& rec : proc.records) {
        rec.array = renumber(node.file, rec.array);
        rec.scope_proc = ir::kInvalidSt;
        rec.file = kInvalidFileId;
      }
      for (auto& [key, mr] : ls.side_effects.effects) {
        proc.effects.effects.emplace(std::pair(renumber(node.file, key.first), key.second),
                                     std::move(mr));
      }
      for (ipa::CallSite cs : node.callsites) {
        if (cs.callee != ipa::kNoNode) {
          cs.unresolved = to_lower(symtab.st(cg.node(cs.callee).proc_st).name);
          cs.callee = ipa::kNoNode;
        }
        for (ipa::Actual& a : cs.actuals) {
          if (a.array != ir::kInvalidSt) a.array = renumber(node.file, a.array);
        }
        proc.callsites.push_back(std::move(cs));
      }
      units[node.file - 1].procs.push_back(std::move(proc));
    }
  }

  for (const fe::ExternRef& ext : externs) {
    units[ext.loc.file - 1].externs.push_back(ExternSummary{ext.name, ext.loc.line});
  }
  return units;
}

std::string write_unit_summary(const UnitSummary& unit) {
  std::ostringstream os;
  os << kMagic << '\n';
  os << "unit " << io::enc(unit.source_name) << ' '
     << (unit.language == Language::C ? 'C' : 'F') << '\n';

  os << "syms " << unit.symbols.size() << '\n';
  for (const SymInfo& s : unit.symbols) {
    os << "sym " << kind_tag(s.kind) << ' ' << io::enc(s.name) << ' ' << io::enc(s.owner)
       << ' ' << s.formal_pos << ' ' << s.line << ' ' << s.col << ' '
       << (s.is_array ? 'A' : 'S') << ' ' << ir::mtype_name(s.mtype) << ' '
       << (s.row_major ? 1 : 0) << ' ' << (s.noncontiguous ? 1 : 0) << ' '
       << (s.coarray ? 1 : 0) << ' ' << write_dims(s.dims) << '\n';
  }

  os << "procs " << unit.procs.size() << '\n';
  for (const ProcSummary& p : unit.procs) {
    os << "proc " << p.sym << ' ' << p.records.size() << ' ' << p.effects.effects.size()
       << ' ' << p.callsites.size() << '\n';
    for (const ipa::AccessRecord& r : p.records) {
      os << "rec " << r.array - 1 << ' ' << io::mode_tag(r.mode) << ' ' << (r.remote ? 1 : 0)
         << ' ' << io::enc(r.image) << ' ' << io::write_region(r.region) << ' ' << r.refs
         << ' ' << r.line << '\n';
    }
    for (const auto& [key, mr] : p.effects.effects) {
      os << "eff " << key.first - 1 << ' ' << io::mode_tag(key.second) << ' '
         << io::write_mode_regions(mr) << '\n';
    }
    for (const ipa::CallSite& c : p.callsites) {
      os << "call " << io::enc(c.unresolved) << ' ' << c.line << ' ' << c.actuals.size();
      for (const ipa::Actual& a : c.actuals) os << ' ' << write_actual(a);
      os << '\n';
    }
  }

  os << "exts " << unit.externs.size() << '\n';
  for (const ExternSummary& e : unit.externs) {
    os << "ext " << io::enc(e.name) << ' ' << e.line << '\n';
  }

  // Provenance records in capture order; unit and seq are implicit (the
  // loader re-stamps them), so a cached entry replays under any input index.
  os << "prov " << unit.provenance.size() << '\n';
  for (const obs::ProvRecord& p : unit.provenance) {
    os << "p " << obs::to_string(p.kind) << ' ' << io::enc(p.proc) << ' '
       << io::enc(p.array) << ' ' << p.dim << ' ' << io::enc(p.file) << ' ' << p.line
       << ' ' << io::enc(p.detail) << '\n';
  }

  os << "cfg " << unit.cfg_text.size() << '\n' << unit.cfg_text << '\n';
  os << "diag " << unit.diagnostics.size() << '\n' << unit.diagnostics << "\nend\n";
  return os.str();
}

std::optional<UnitSummary> parse_unit_summary(std::string_view text) {
  LineReader in{text};
  if (in.line() != kMagic) return std::nullopt;

  UnitSummary unit;
  {
    const auto l = in.line();
    if (!l) return std::nullopt;
    const auto t = split_ws(*l);
    if (t.size() != 3 || t[0] != "unit") return std::nullopt;
    const auto name = io::dec(t[1]);
    if (!name) return std::nullopt;
    unit.source_name = *name;
    if (t[2] == "C") {
      unit.language = Language::C;
    } else if (t[2] == "F") {
      unit.language = Language::Fortran;
    } else {
      return std::nullopt;
    }
  }

  std::size_t nsyms = 0;
  {
    const auto l = in.line();
    if (!l) return std::nullopt;
    const auto t = split_ws(*l);
    if (t.size() != 2 || t[0] != "syms" || !read_count(t[1], &nsyms)) return std::nullopt;
  }
  for (std::size_t i = 0; i < nsyms; ++i) {
    const auto l = in.line();
    if (!l) return std::nullopt;
    const auto t = split_ws(*l);
    if (t.size() != 13 || t[0] != "sym" || t[1].size() != 1) return std::nullopt;
    SymInfo s;
    const auto kind = kind_from_tag(t[1][0]);
    const auto name = io::dec(t[2]);
    const auto owner = io::dec(t[3]);
    if (!kind || !name || !owner) return std::nullopt;
    s.kind = *kind;
    s.name = *name;
    s.owner = *owner;
    if (!read_u32_tok(t[4], &s.formal_pos) || !read_u32_tok(t[5], &s.line) ||
        !read_u32_tok(t[6], &s.col)) {
      return std::nullopt;
    }
    if (t[7] == "A") {
      s.is_array = true;
    } else if (t[7] != "S") {
      return std::nullopt;
    }
    const auto mt = mtype_from_name(t[8]);
    if (!mt) return std::nullopt;
    s.mtype = *mt;
    if (!read_bool_tok(t[9], &s.row_major) || !read_bool_tok(t[10], &s.noncontiguous) ||
        !read_bool_tok(t[11], &s.coarray)) {
      return std::nullopt;
    }
    auto dims = read_dims(t[12]);
    if (!dims) return std::nullopt;
    s.dims = std::move(*dims);
    if (s.is_array && s.dims.empty()) return std::nullopt;
    unit.symbols.push_back(std::move(s));
  }

  std::size_t nprocs = 0;
  {
    const auto l = in.line();
    if (!l) return std::nullopt;
    const auto t = split_ws(*l);
    if (t.size() != 2 || t[0] != "procs" || !read_count(t[1], &nprocs)) return std::nullopt;
  }
  for (std::size_t i = 0; i < nprocs; ++i) {
    const auto l = in.line();
    if (!l) return std::nullopt;
    const auto t = split_ws(*l);
    if (t.size() != 5 || t[0] != "proc") return std::nullopt;
    ProcSummary p;
    std::size_t nrec = 0;
    std::size_t neff = 0;
    std::size_t ncall = 0;
    if (!read_u32_tok(t[1], &p.sym) || !read_count(t[2], &nrec) ||
        !read_count(t[3], &neff) || !read_count(t[4], &ncall)) {
      return std::nullopt;
    }
    if (p.sym >= unit.symbols.size()) return std::nullopt;
    for (std::size_t r = 0; r < nrec; ++r) {
      const auto rl = in.line();
      if (!rl) return std::nullopt;
      const auto rt = split_ws(*rl);
      if (rt.size() != 8 || rt[0] != "rec" || rt[2].size() != 1) return std::nullopt;
      ipa::AccessRecord rec;
      std::uint32_t sym = 0;
      const auto mode = io::mode_from_tag(rt[2][0]);
      const auto image = io::dec(rt[4]);
      auto region = io::read_region(rt[5]);
      const auto refs = io::read_u64(rt[6]);
      if (!read_u32_tok(rt[1], &sym) || !mode || !read_bool_tok(rt[3], &rec.remote) ||
          !image || !region || !refs || !read_u32_tok(rt[7], &rec.line)) {
        return std::nullopt;
      }
      if (sym >= unit.symbols.size()) return std::nullopt;
      rec.array = sym + 1;
      rec.mode = *mode;
      rec.image = *image;
      rec.region = std::move(*region);
      rec.refs = *refs;
      p.records.push_back(std::move(rec));
    }
    for (std::size_t e = 0; e < neff; ++e) {
      const auto el = in.line();
      if (!el) return std::nullopt;
      const auto et = split_ws(*el);
      if (et.size() != 4 || et[0] != "eff" || et[2].size() != 1) return std::nullopt;
      std::uint32_t sym = 0;
      const auto mode = io::mode_from_tag(et[2][0]);
      auto mr = io::read_mode_regions(et[3]);
      if (!read_u32_tok(et[1], &sym) || !mode || !mr) return std::nullopt;
      if (sym >= unit.symbols.size()) return std::nullopt;
      p.effects.effects[{sym + 1, *mode}] = std::move(*mr);
    }
    for (std::size_t c = 0; c < ncall; ++c) {
      const auto cl = in.line();
      if (!cl) return std::nullopt;
      const auto ct = split_ws(*cl);
      if (ct.size() < 4 || ct[0] != "call") return std::nullopt;
      ipa::CallSite cs;
      const auto callee = io::dec(ct[1]);
      std::size_t nact = 0;
      if (!callee || !read_u32_tok(ct[2], &cs.line) || !read_count(ct[3], &nact)) {
        return std::nullopt;
      }
      if (ct.size() != 4 + nact) return std::nullopt;
      cs.unresolved = *callee;
      for (std::size_t a = 0; a < nact; ++a) {
        auto act = read_actual(ct[4 + a], unit.symbols.size());
        if (!act) return std::nullopt;
        cs.actuals.push_back(std::move(*act));
      }
      p.callsites.push_back(std::move(cs));
    }
    unit.procs.push_back(std::move(p));
  }

  std::size_t nexts = 0;
  {
    const auto l = in.line();
    if (!l) return std::nullopt;
    const auto t = split_ws(*l);
    if (t.size() != 2 || t[0] != "exts" || !read_count(t[1], &nexts)) return std::nullopt;
  }
  for (std::size_t i = 0; i < nexts; ++i) {
    const auto l = in.line();
    if (!l) return std::nullopt;
    const auto t = split_ws(*l);
    if (t.size() != 3 || t[0] != "ext") return std::nullopt;
    ExternSummary e;
    const auto name = io::dec(t[1]);
    if (!name || !read_u32_tok(t[2], &e.line)) return std::nullopt;
    e.name = *name;
    unit.externs.push_back(std::move(e));
  }

  std::size_t nprov = 0;
  {
    const auto l = in.line();
    if (!l) return std::nullopt;
    const auto t = split_ws(*l);
    if (t.size() != 2 || t[0] != "prov" || !read_count(t[1], &nprov)) return std::nullopt;
  }
  for (std::size_t i = 0; i < nprov; ++i) {
    const auto l = in.line();
    if (!l) return std::nullopt;
    const auto t = split_ws(*l);
    if (t.size() != 8 || t[0] != "p") return std::nullopt;
    obs::ProvRecord p;
    p.seq = static_cast<std::uint32_t>(i);
    const auto proc = io::dec(t[2]);
    const auto array = io::dec(t[3]);
    const auto dim = io::read_i64(t[4]);
    const auto file = io::dec(t[5]);
    const auto detail = io::dec(t[7]);
    if (!obs::cause_from_string(t[1], &p.kind) || !proc || !array || !dim || *dim < -1 ||
        *dim > 0x7fffffff || !file || !read_u32_tok(t[6], &p.line) || !detail) {
      return std::nullopt;
    }
    p.proc = *proc;
    p.array = *array;
    p.dim = static_cast<std::int32_t>(*dim);
    p.file = *file;
    p.detail = *detail;
    unit.provenance.push_back(std::move(p));
  }

  {
    const auto l = in.line();
    if (!l) return std::nullopt;
    const auto t = split_ws(*l);
    std::size_t nbytes = 0;
    if (t.size() != 2 || t[0] != "cfg" || !read_count(t[1], &nbytes)) return std::nullopt;
    const auto raw = in.raw(nbytes);
    if (!raw) return std::nullopt;
    unit.cfg_text = std::string(*raw);
  }
  {
    const auto l = in.line();
    if (l != std::string_view{}) return std::nullopt;  // '\n' after cfg blob
    const auto dl = in.line();
    if (!dl) return std::nullopt;
    const auto t = split_ws(*dl);
    std::size_t nbytes = 0;
    if (t.size() != 2 || t[0] != "diag" || !read_count(t[1], &nbytes)) return std::nullopt;
    const auto raw = in.raw(nbytes);
    if (!raw) return std::nullopt;
    unit.diagnostics = std::string(*raw);
  }
  if (in.line() != std::string_view{} || in.line() != "end") return std::nullopt;
  return unit;
}

}  // namespace ara::serve
