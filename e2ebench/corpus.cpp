#include "corpus.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <sstream>

#include "difftest/generator.hpp"

namespace ara::e2e {
namespace {

using difftest::Rng;

// Fortran COMMON blocks shared across units: blocks 0-3 hold two 64x64
// arrays, blocks 4-5 two 5x32x32 arrays (the LU field shape).
constexpr int kBlocks = 6;
constexpr int kFlatBlocks = 4;
constexpr int kCPercent = 25;  // share of C units in every layer
constexpr int kNests = 8;      // loop nests per entry procedure

std::string block_decl(int b) {
  const std::string a = "cb" + std::to_string(b) + "_a";
  const std::string c = "cb" + std::to_string(b) + "_b";
  const std::string dims = b < kFlatBlocks ? "(64, 64)" : "(5, 32, 32)";
  return "  double precision :: " + a + dims + ", " + c + dims + "\n  common /cb" +
         std::to_string(b) + "/ " + a + ", " + c + "\n";
}

struct Arrays {
  std::vector<std::string> flat;  // 64x64
  std::vector<std::string> cube;  // 5x32x32 (Fortran only)
  std::string vec;                // 64-element local
};

const std::string& pick(Rng& rng, const std::vector<std::string>& v) {
  return v[static_cast<std::size_t>(rng.range(0, static_cast<std::int64_t>(v.size()) - 1))];
}

/// One Fortran loop nest of shape `kind` (0 affine, 1 strided, 2 triangular,
/// 3 coupled, 4 3-D). `delta` lowers the outer loop bound (the edit).
std::string fortran_nest(Rng& rng, const Arrays& ar, int kind, bool guard, int delta) {
  const std::string& a = pick(rng, ar.flat);
  const std::string& b = pick(rng, ar.flat);
  std::ostringstream os;
  auto body = [&](const std::string& stmt, const char* indent) {
    if (guard) {
      os << indent << "if (i .gt. j) then\n" << indent << "  " << stmt << "\n"
         << indent << "end if\n";
    } else {
      os << indent << stmt << "\n";
    }
  };
  switch (kind) {
    case 0: {  // affine stencil
      os << "  do j = 2, " << 63 - rng.range(0, 3) - delta << "\n    do i = 2, 63\n";
      body(a + "(i, j) = " + b + "(i - 1, j) + " + b + "(i + 1, j) + 0.5 * " + ar.vec + "(i)",
           "      ");
      os << "    end do\n  end do\n";
      break;
    }
    case 1: {  // strided
      os << "  do j = 1, " << 64 - rng.range(0, 3) - delta << ", " << rng.range(2, 3)
         << "\n    do i = 1, 64, 2\n";
      body(a + "(i, j) = " + a + "(i, j) + " + b + "(i, j)", "      ");
      os << "    end do\n  end do\n";
      break;
    }
    case 2: {  // triangular, with a reduction
      os << "  do j = 1, " << 64 - rng.range(0, 3) - delta << "\n    do i = j, 64\n";
      body(a + "(i, j) = " + b + "(j, i) * 0.5", "      ");
      os << "      s = s + " << a << "(i, j)\n";
      os << "    end do\n  end do\n";
      break;
    }
    case 3: {  // coupled subscripts
      os << "  do j = 1, " << 32 - rng.range(0, 3) - delta << "\n    do i = 1, 32\n";
      body(a + "(i + j, j) = " + b + "(i - j + 33, i)", "      ");
      os << "    end do\n  end do\n";
      break;
    }
    default: {  // 3-D field sweep
      const std::string& c = pick(rng, ar.cube);
      const std::string& d = pick(rng, ar.cube);
      os << "  do k = 2, " << 31 - rng.range(0, 3) - delta
         << "\n    do j = 2, 31\n      do m = 1, 5\n";
      os << "        " << c << "(m, j, k) = " << c << "(m, j, k) + " << d
         << "(m, j - 1, k) - " << d << "(m, j, k - 1)\n";
      os << "      end do\n    end do\n  end do\n";
      break;
    }
  }
  return os.str();
}

/// One C loop nest (0-based twin of fortran_nest's first four shapes).
std::string c_nest(Rng& rng, const Arrays& ar, int kind, bool guard, int delta) {
  const std::string& a = pick(rng, ar.flat);
  const std::string& b = pick(rng, ar.flat);
  std::ostringstream os;
  auto body = [&](const std::string& stmt, const char* indent) {
    if (guard) {
      os << indent << "if (i > j) {\n" << indent << "  " << stmt << "\n" << indent << "}\n";
    } else {
      os << indent << stmt << "\n";
    }
  };
  switch (kind) {
    case 0:
      os << "  for (j = 1; j < " << 63 - rng.range(0, 3) - delta
         << "; j++) {\n    for (i = 1; i < 63; i++) {\n";
      body(a + "[i][j] = " + b + "[i - 1][j] + " + b + "[i + 1][j] + 0.5 * " + ar.vec + "[i];",
           "      ");
      os << "    }\n  }\n";
      break;
    case 1:
      os << "  for (j = 0; j < " << 64 - rng.range(0, 3) - delta << "; j += " << rng.range(2, 3)
         << ") {\n    for (i = 0; i < 64; i += 2) {\n";
      body(a + "[i][j] = " + a + "[i][j] + " + b + "[i][j];", "      ");
      os << "    }\n  }\n";
      break;
    case 2:
      os << "  for (j = 0; j < " << 64 - rng.range(0, 3) - delta
         << "; j++) {\n    for (i = j; i < 64; i++) {\n";
      body(a + "[i][j] = " + b + "[j][i] * 0.5;", "      ");
      os << "      s = s + " << a << "[i][j];\n";
      os << "    }\n  }\n";
      break;
    default:
      os << "  for (j = 0; j < " << 32 - rng.range(0, 3) - delta
         << "; j++) {\n    for (i = 0; i < 32; i++) {\n";
      body(a + "[i + j][j] = " + b + "[i - j + 31][i];", "      ");
      os << "    }\n  }\n";
      break;
  }
  return os.str();
}

template <typename T>
void shuffle(Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.range(0, static_cast<std::int64_t>(i) - 1))]);
  }
}

/// Per-unit nest plan: the shapes cycle through `kinds` and a quarter of
/// the nests are guarded, in a seeded order. Every unit of a language thus
/// carries the same mix, so the project's total work barely moves with the
/// seed while the code itself does.
struct NestPlan {
  std::vector<int> kinds;
  std::vector<char> guards;
};

NestPlan plan_nests(Rng& rng, int nests, int kinds) {
  NestPlan plan;
  for (int n = 0; n < nests; ++n) {
    plan.kinds.push_back(n % kinds);
    plan.guards.push_back(n < nests / 4 ? 1 : 0);
  }
  shuffle(rng, plan.kinds);
  shuffle(rng, plan.guards);
  return plan;
}

std::uint64_t unit_seed(std::uint64_t seed, int i) {
  return seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(i) * 0xbf58476d1ce4e5b9ULL + 1;
}

/// Fortran unit: entry `pf<i>` (COMMON sweeps + calls) and array kernel
/// `qf<i>(x)` that callers hand a COMMON array.
std::string fortran_unit(const CorpusShape& shape, int i, const CorpusUnit& u, int delta) {
  Rng rng(unit_seed(shape.seed, i));
  // One 64x64 block and one 5x32x32 block per unit.
  const int blocks[2] = {static_cast<int>(rng.range(0, kFlatBlocks - 1)),
                         static_cast<int>(rng.range(kFlatBlocks, kBlocks - 1))};
  Arrays ar;
  ar.vec = "w";
  std::ostringstream os;
  os << "! corpus unit " << i << " (layer " << u.layer << ")\n";
  os << "subroutine pf" << i << "\n";
  for (int b : blocks) {
    os << block_decl(b);
    const std::string base = "cb" + std::to_string(b);
    auto& dst = b < kFlatBlocks ? ar.flat : ar.cube;
    dst.push_back(base + "_a");
    dst.push_back(base + "_b");
  }
  os << "  double precision :: w(64), s\n  integer :: i, j, k, m\n  s = 0.0\n";
  const NestPlan plan = plan_nests(rng, kNests, 5);
  for (int n = 0; n < kNests; ++n) {
    os << fortran_nest(rng, ar, plan.kinds[static_cast<std::size_t>(n)],
                       plan.guards[static_cast<std::size_t>(n)] != 0, n == 0 ? delta : 0);
  }
  // One callee gets a COMMON array handed to its array kernel.
  const std::int64_t by_array =
      u.callees.empty() ? -1 : rng.range(0, static_cast<std::int64_t>(u.callees.size()) - 1);
  for (std::size_t k = 0; k < u.callees.size(); ++k) {
    if (static_cast<std::int64_t>(k) == by_array) {
      os << "  call qf" << u.callees[k] << "(" << pick(rng, ar.flat) << ")\n";
    } else {
      os << "  call pf" << u.callees[k] << "\n";
    }
  }
  os << "end subroutine pf" << i << "\n\n";
  os << "subroutine qf" << i << "(x)\n  double precision :: x(64, 64)\n  integer :: i, j\n";
  os << "  do j = 2, " << 63 - rng.range(0, 4) << "\n    do i = j, 63\n";
  os << "      x(i, j) = x(i - 1, j - 1) + x(i, j)\n    end do\n  end do\n";
  os << "end subroutine qf" << i << "\n";
  return os.str();
}

/// C unit: owns `gc<i>` (file scope, exported to siblings), uses its first
/// callee's array without declaring it (a cross-unit import), and calls a
/// local helper plus its callees.
std::string c_unit(const CorpusShape& shape, int i, const CorpusUnit& u, int delta) {
  Rng rng(unit_seed(shape.seed, i));
  Arrays ar;
  ar.vec = "t" + std::to_string(i);
  ar.flat.push_back("gc" + std::to_string(i));
  if (!u.callees.empty()) ar.flat.push_back("gc" + std::to_string(u.callees.front()));
  std::ostringstream os;
  os << "/* corpus unit " << i << " (layer " << u.layer << ") */\n";
  os << "double gc" << i << "[64][64];\n";
  os << "double t" << i << "[64];\n\n";
  os << "void hc" << i << "(void) {\n  int i, j;\n";
  os << "  for (j = 1; j < 63; j++) {\n    for (i = 1; i < 63; i++) {\n";
  os << "      gc" << i << "[i][j] = gc" << i << "[i][j - 1] * 0.5;\n    }\n  }\n}\n\n";
  os << "void pc" << i << "(void) {\n  int i, j;\n  double s;\n  s = 0.0;\n";
  const NestPlan plan = plan_nests(rng, kNests, 4);
  for (int n = 0; n < kNests; ++n) {
    os << c_nest(rng, ar, plan.kinds[static_cast<std::size_t>(n)],
                 plan.guards[static_cast<std::size_t>(n)] != 0, n == 0 ? delta : 0);
  }
  os << "  hc" << i << "();\n";
  for (int c : u.callees) os << "  pc" << c << "();\n";
  os << "}\n";
  return os.str();
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (unsigned char ch : s) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

Corpus generate_corpus(const CorpusShape& shape) {
  Corpus corpus;
  corpus.shape = shape;
  const int n = std::max(shape.units, 1);
  const int depth = std::clamp(shape.depth, 1, n);
  Rng rng(unit_seed(shape.seed, -1));
  std::vector<char> is_c(static_cast<std::size_t>(n));
  corpus.units.resize(static_cast<std::size_t>(n));
  std::vector<std::vector<int>> layer_members(static_cast<std::size_t>(depth) * 2);
  // Layers are equal slices of the unit range; each holds the same share
  // of C units, at seeded positions.
  for (int layer = 0; layer < depth; ++layer) {
    const int lo = static_cast<int>(static_cast<long>(layer) * n / depth);
    const int hi = static_cast<int>(static_cast<long>(layer + 1) * n / depth);
    std::vector<char> c_slots(static_cast<std::size_t>(hi - lo), 0);
    const int c_count = ((hi - lo) * kCPercent + 50) / 100;
    std::fill(c_slots.begin(), c_slots.begin() + c_count, 1);
    shuffle(rng, c_slots);
    for (int i = lo; i < hi; ++i) {
      corpus.units[static_cast<std::size_t>(i)].layer = layer;
      is_c[static_cast<std::size_t>(i)] = c_slots[static_cast<std::size_t>(i - lo)];
      layer_members[static_cast<std::size_t>(layer * 2 + is_c[static_cast<std::size_t>(i)])]
          .push_back(i);
    }
  }

  // Calls (and C imports) only go one layer down, within one language, so
  // the DAG is acyclic and its depth is exactly `depth`.
  for (int i = 0; i < n; ++i) {
    CorpusUnit& u = corpus.units[static_cast<std::size_t>(i)];
    if (u.layer + 1 >= depth) continue;
    std::vector<int> cand =
        layer_members[static_cast<std::size_t>((u.layer + 1) * 2 + is_c[static_cast<std::size_t>(i)])];
    const int want = std::min<int>(shape.fan_in, static_cast<int>(cand.size()));
    for (int k = 0; k < want; ++k) {
      const auto j = static_cast<std::size_t>(
          rng.range(k, static_cast<std::int64_t>(cand.size()) - 1));
      std::swap(cand[static_cast<std::size_t>(k)], cand[j]);
      u.callees.push_back(cand[static_cast<std::size_t>(k)]);
    }
    std::sort(u.callees.begin(), u.callees.end());
  }

  std::set<int> called;
  std::size_t edges = 0;
  std::uint64_t digest = 14695981039346656037ULL;  // FNV-1a offset basis
  for (int i = 0; i < n; ++i) {
    CorpusUnit& u = corpus.units[static_cast<std::size_t>(i)];
    const bool c = is_c[static_cast<std::size_t>(i)] != 0;
    const std::string name = "u" + std::to_string(i) + (c ? ".c" : ".f");
    u.source.name = name;
    u.source.lang = c ? Language::C : Language::Fortran;
    u.source.text = c ? c_unit(shape, i, u, 0) : fortran_unit(shape, i, u, 0);
    u.edited_text = c ? c_unit(shape, i, u, 1) : fortran_unit(shape, i, u, 1);
    corpus.lines += static_cast<std::size_t>(std::count(u.source.text.begin(), u.source.text.end(), '\n'));
    corpus.procedures += 2;
    edges += u.callees.size();
    called.insert(u.callees.begin(), u.callees.end());
    digest = fnv1a(fnv1a(fnv1a(digest, name), u.source.text), u.edited_text);
  }
  corpus.digest = digest;
  corpus.mean_fan_in =
      called.empty() ? 0.0 : static_cast<double>(edges) / static_cast<double>(called.size());
  return corpus;
}

std::vector<serve::SourceBuffer> Corpus::sources(const std::vector<char>& edited) const {
  std::vector<serve::SourceBuffer> out;
  out.reserve(units.size());
  for (std::size_t i = 0; i < units.size(); ++i) {
    out.push_back(units[i].source);
    if (i < edited.size() && edited[i] != 0) out.back().text = units[i].edited_text;
  }
  return out;
}

std::size_t Corpus::closure_size(int i) const {
  std::vector<char> seen(units.size(), 0);
  seen[static_cast<std::size_t>(i)] = 1;
  std::size_t count = 1;
  // Callers sit in shallower layers, so one upward sweep over the units in
  // reverse index order (deeper layers have larger indices) closes the set.
  for (int u = static_cast<int>(units.size()) - 1; u >= 0; --u) {
    if (seen[static_cast<std::size_t>(u)] != 0) continue;
    for (int c : units[static_cast<std::size_t>(u)].callees) {
      if (seen[static_cast<std::size_t>(c)] != 0) {
        seen[static_cast<std::size_t>(u)] = 1;
        ++count;
        break;
      }
    }
  }
  return count;
}

std::vector<std::string> Corpus::array_names() const {
  std::vector<std::string> names;
  for (int b = 0; b < kBlocks; ++b) {
    names.push_back("cb" + std::to_string(b) + "_a");
    names.push_back("cb" + std::to_string(b) + "_b");
  }
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (units[i].source.lang == Language::C) names.push_back("gc" + std::to_string(i));
  }
  return names;
}

std::string Corpus::describe() const {
  std::size_t c_units = 0;
  for (const CorpusUnit& u : units) c_units += u.source.lang == Language::C ? 1 : 0;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "corpus seed=%llu units=%zu (C %zu) lines=%zu procedures=%zu depth=%d "
                "mean_fan_in=%.2f digest=%016llx",
                static_cast<unsigned long long>(shape.seed), units.size(), c_units, lines,
                procedures, shape.depth, mean_fan_in, static_cast<unsigned long long>(digest));
  return buf;
}

}  // namespace ara::e2e
