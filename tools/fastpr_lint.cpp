// fastpr_lint — mechanical enforcement of repo conventions (CLAUDE.md).
//
// Walks src/ bench/ tests/ tools/ under the repo root given as argv[1]
// and checks every .h/.cpp against the rules below. Registered as a
// ctest test, so a convention regression fails tier-1 verification just
// like a unit test would.
//
// Rules (rule ids in parentheses):
//  * units        — bandwidth/size configuration lines must use the
//                   util/units.h helpers (MB/MBps/Gbps/kMiB...) instead
//                   of raw magnitude literals like `1 << 20` or `1e9`.
//                   A line counts as configuration when it mentions a
//                   config token (bytes_per_sec, disk_bw, net_bw,
//                   bandwidth(, burst_bytes, chunk_bytes, packet_bytes).
//  * check-macro  — no assert()/abort(); invariants go through
//                   FASTPR_CHECK so misuse throws CheckFailure in every
//                   build type (tests rely on catching it).
//  * rng          — no rand()/srand()/rand_r(); all randomness flows
//                   through the seeded util/rng.h so runs reproduce.
//  * pragma-once  — every header starts include guarding with
//                   #pragma once.
//  * naked-new    — no naked new/delete outside src/util; ownership
//                   lives in containers and smart pointers.
//  * raw-timing   — no direct steady_clock use in src/ outside
//                   src/telemetry/; measurements go through
//                   telemetry::trace_now() / TraceSpan so they land in
//                   the trace (and tids/epochs stay consistent).
//  * ack-tracking — every `transport_.send` in src/agent/ must either
//                   feed a pending/ack map the event loop later
//                   consumes, or carry a reviewed
//                   `fastpr-lint: allow(ack-tracking)` marker saying
//                   how non-delivery is detected (DESIGN.md §7). The
//                   marker may sit on the send line itself or on the
//                   comment block immediately above it.
//  * trace-context — span ids are minted by src/telemetry only: no
//                   next_span_id() calls and no `span_id = ...`
//                   assignments outside src/telemetry/. Hand-rolled
//                   span ids break the causal parent/child chain the
//                   cross-node trace merge depends on (DESIGN.md §5c);
//                   propagate telemetry::current_trace_context()
//                   through Message.trace instead.
//  * oversub      — a numeric literal assigned to an identifier
//                   containing "oversub" must flow through the
//                   net::Oversub() named constructor (units-rule
//                   discipline for the cross-rack oversubscription
//                   factor: Oversub validates f >= 1 at every
//                   configuration boundary, DESIGN.md §11).
//                   Comparisons (==, >=) and variable-to-variable
//                   copies are not configuration and do not match.
//  * condvar-predicate — CondVar waits must use the predicate overload:
//                   `.wait(mu)` with one argument and `.wait_for(mu,
//                   dur)` with two are lost-wakeup bait (the while
//                   loop around them re-implements the predicate the
//                   overload already provides). src/util/mutex.h is
//                   exempt (it implements the overloads); reviewed
//                   pacing loops carry the allow marker.
//
// Intentional exceptions:
//  * src/util/units.h is exempt from `units` (it defines the helpers).
//  * src/util/** is exempt from `naked-new` (low-level utilities may
//    need placement new; nothing else does).
//  * src/telemetry/** is exempt from `raw-timing` (it owns the clock);
//    bench/ tests/ tools/ are exempt too — the rule protects the
//    product's measurement discipline, not harness code.
//  * Any line may carry `fastpr-lint: allow(<rule>)` in a comment to
//    document a reviewed exception; the marker is the allowlist.
//
// Comments and string literals are stripped before matching, so prose
// mentioning assert() or rand() does not trip the lint.

#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Violation {
  std::string file;
  int line = 0;
  std::string rule;
  std::string detail;
};

/// True if `token` occurs in `s` with no identifier character on either
/// side (a poor man's \b regex, enough for C++ token matching).
bool has_word(const std::string& s, const std::string& token) {
  size_t pos = 0;
  const auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  while ((pos = s.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident(s[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= s.size() || !is_ident(s[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// `token(` with optional whitespace before the paren, word-bounded left.
bool has_call(const std::string& s, const std::string& name) {
  size_t pos = 0;
  const auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  while ((pos = s.find(name, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident(s[pos - 1]);
    size_t end = pos + name.size();
    while (end < s.size() &&
           (s[end] == ' ' || s[end] == '\t')) {
      ++end;
    }
    if (left_ok && end < s.size() && s[end] == '(') return true;
    pos += 1;
  }
  return false;
}

/// Word-bounded `token` followed (after optional whitespace) by a
/// single `=` — an assignment, not an `==` comparison. `!=`/`<=`/`>=`
/// cannot match: their operator character sits where the `=` is
/// required to be.
bool has_assignment(const std::string& s, const std::string& token) {
  size_t pos = 0;
  const auto is_ident = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  while ((pos = s.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident(s[pos - 1]);
    size_t end = pos + token.size();
    const bool right_ok = end >= s.size() || !is_ident(s[end]);
    if (left_ok && right_ok) {
      size_t i = end;
      while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
      if (i < s.size() && s[i] == '=' &&
          (i + 1 >= s.size() || s[i + 1] != '=')) {
        return true;
      }
    }
    pos += 1;
  }
  return false;
}

/// Strips string/char literals and comments from one line, carrying
/// block-comment state across lines. Literal contents become spaces so
/// column-free matching still works.
std::string sanitize(const std::string& line, bool& in_block_comment) {
  std::string out;
  out.reserve(line.size());
  size_t i = 0;
  while (i < line.size()) {
    if (in_block_comment) {
      if (line.compare(i, 2, "*/") == 0) {
        in_block_comment = false;
        i += 2;
      } else {
        ++i;
      }
      continue;
    }
    const char c = line[i];
    if (line.compare(i, 2, "//") == 0) break;  // rest is comment
    if (line.compare(i, 2, "/*") == 0) {
      in_block_comment = true;
      i += 2;
      continue;
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\') {
          i += 2;
          continue;
        }
        if (line[i] == quote) {
          ++i;
          break;
        }
        ++i;
      }
      out.push_back(' ');
      continue;
    }
    out.push_back(c);
    ++i;
  }
  return out;
}

bool path_has_prefix(const fs::path& p, const std::string& prefix) {
  return p.generic_string().rfind(prefix, 0) == 0;
}

const char* kConfigTokens[] = {"bytes_per_sec", "disk_bw", "net_bw",
                               "burst_bytes",   "chunk_bytes", "packet_bytes"};
const char* kMagnitudes[] = {"<< 10",      "<< 20",      "<< 30",
                             "1e6",        "50e6",       "1e9",
                             "1024",       "1048576",    "1073741824",
                             "1000000",    "1000000000"};
const char* kUnitHelpers[] = {"MB(", "MBps(", "Gbps(", "kKiB", "kMiB",
                              "kGiB"};

/// Counts top-level (paren-depth-zero) arguments of the call whose
/// opening paren is at `lines[row][col]`; joins following sanitized
/// lines when the call spans lines. Returns 0 when the parens never
/// balance within the lookahead window.
int count_call_args(const std::vector<std::string>& lines, size_t row,
                    size_t col) {
  int depth = 0;
  int commas = 0;
  bool any_content = false;
  for (size_t r = row; r < lines.size() && r < row + 8; ++r) {
    const std::string& s = lines[r];
    for (size_t i = r == row ? col : 0; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '(') ++depth;
      if (c == ')') {
        --depth;
        if (depth == 0) return any_content ? commas + 1 : 0;
      }
      if (depth >= 1 && c == ',' && depth == 1) ++commas;
      if (depth >= 1 && c != ' ' && c != '\t' && c != '(') {
        any_content = true;
      }
    }
  }
  return 0;
}

void check_line(const fs::path& rel, int lineno, const std::string& raw,
                const std::string& code, const std::string& markers_above,
                std::vector<Violation>& out) {
  const auto allowed = [&](const char* rule) {
    const std::string marker =
        std::string("fastpr-lint: allow(") + rule + ")";
    return raw.find(marker) != std::string::npos ||
           markers_above.find(marker) != std::string::npos;
  };

  // ack-tracking
  if (path_has_prefix(rel, "src/agent/") && !allowed("ack-tracking")) {
    if (code.find("transport_.send") != std::string::npos) {
      out.push_back({rel.generic_string(), lineno, "ack-tracking",
                     "fire-and-forget transport_.send in src/agent; "
                     "track the reply in a pending map or mark the "
                     "reviewed exception with "
                     "fastpr-lint: allow(ack-tracking)"});
    }
  }

  // units
  if (!path_has_prefix(rel, "src/util/units.h") && !allowed("units")) {
    bool config_line = false;
    for (const char* tok : kConfigTokens) {
      if (code.find(tok) != std::string::npos) config_line = true;
    }
    if (config_line) {
      bool has_magnitude = false;
      for (const char* mag : kMagnitudes) {
        if (code.find(mag) != std::string::npos) has_magnitude = true;
      }
      bool has_helper = false;
      for (const char* helper : kUnitHelpers) {
        if (code.find(helper) != std::string::npos) has_helper = true;
      }
      if (has_magnitude && !has_helper) {
        out.push_back({rel.generic_string(), lineno, "units",
                       "raw size/bandwidth literal at a configuration "
                       "boundary; use util/units.h (MB/MBps/Gbps/kMiB)"});
      }
    }
  }

  // oversub: `<ident-containing-oversub> = <numeric literal>` without
  // net::Oversub() on the line. The lowercase search cannot collide
  // with the `Oversub(` helper itself (capital O), and `==`/`>=` fail
  // the single-`=` test below. src/net/topology.* defines the helper.
  if (!path_has_prefix(rel, "src/net/topology") && !allowed("oversub")) {
    const auto is_ident = [](char c) {
      return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
    };
    size_t pos = code.find("oversub");
    bool raw_literal = false;
    while (pos != std::string::npos && !raw_literal) {
      size_t end = pos + 7;
      while (end < code.size() && is_ident(code[end])) ++end;
      size_t i = end;
      while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
      if (i < code.size() && code[i] == '=' &&
          (i + 1 >= code.size() || code[i + 1] != '=')) {
        ++i;
        while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
        const bool literal =
            i < code.size() &&
            (std::isdigit(static_cast<unsigned char>(code[i])) != 0 ||
             (code[i] == '.' && i + 1 < code.size() &&
              std::isdigit(static_cast<unsigned char>(code[i + 1])) != 0));
        if (literal && code.find("Oversub(") == std::string::npos) {
          raw_literal = true;
        }
      }
      pos = code.find("oversub", pos + 1);
    }
    if (raw_literal) {
      out.push_back({rel.generic_string(), lineno, "oversub",
                     "raw oversubscription literal at a configuration "
                     "boundary; wrap it in net::Oversub() so f >= 1 is "
                     "validated"});
    }
  }

  // check-macro
  if (!allowed("check-macro")) {
    if (has_call(code, "assert") || has_call(code, "abort")) {
      out.push_back({rel.generic_string(), lineno, "check-macro",
                     "use FASTPR_CHECK / FASTPR_CHECK_MSG instead of "
                     "assert()/abort()"});
    }
  }

  // rng
  if (!allowed("rng")) {
    if (has_call(code, "rand") || has_call(code, "srand") ||
        has_call(code, "rand_r")) {
      out.push_back({rel.generic_string(), lineno, "rng",
                     "use the seeded fastpr::Rng (util/rng.h) instead of "
                     "rand()/srand()"});
    }
  }

  // raw-timing
  if (path_has_prefix(rel, "src/") &&
      !path_has_prefix(rel, "src/telemetry/") && !allowed("raw-timing")) {
    if (has_word(code, "steady_clock")) {
      out.push_back({rel.generic_string(), lineno, "raw-timing",
                     "no raw steady_clock in src/ outside telemetry; use "
                     "telemetry::trace_now() or a TraceSpan"});
    }
  }

  // trace-context
  if (!path_has_prefix(rel, "src/telemetry/") &&
      !allowed("trace-context")) {
    if (has_call(code, "next_span_id") ||
        has_assignment(code, "span_id")) {
      out.push_back({rel.generic_string(), lineno, "trace-context",
                     "manual span-id construction outside "
                     "src/telemetry breaks the causal trace chain; "
                     "propagate telemetry::current_trace_context() "
                     "via Message.trace"});
    }
  }

  // naked-new
  if (!path_has_prefix(rel, "src/util/") && !allowed("naked-new")) {
    if (has_word(code, "new") || has_word(code, "delete")) {
      // Deleted/defaulted special members are idiomatic, not ownership.
      const bool deleted_fn = code.find("= delete") != std::string::npos;
      if (!deleted_fn) {
        out.push_back({rel.generic_string(), lineno, "naked-new",
                       "no naked new/delete outside src/util; use "
                       "containers or std::make_unique"});
      }
    }
  }
}

void check_file(const fs::path& root, const fs::path& rel,
                std::vector<Violation>& out) {
  std::ifstream in(root / rel);
  if (!in.good()) {
    out.push_back({rel.generic_string(), 0, "io", "cannot open file"});
    return;
  }
  const bool is_header = rel.extension() == ".h";
  bool saw_pragma_once = false;
  bool in_block_comment = false;

  // Read and sanitize the whole file up front: the condvar-predicate
  // rule counts arguments of calls that may span lines.
  std::vector<std::string> raw_lines;
  std::vector<std::string> code_lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("#pragma once") != std::string::npos) {
      saw_pragma_once = true;
    }
    raw_lines.push_back(line);
    code_lines.push_back(sanitize(line, in_block_comment));
  }

  // `allow(<rule>)` markers on comment lines cover the next code line,
  // surviving the rest of their comment block (multi-line
  // justifications put the marker on any comment line above the code).
  std::string markers_above;
  for (size_t idx = 0; idx < raw_lines.size(); ++idx) {
    const std::string& raw = raw_lines[idx];
    const std::string& code = code_lines[idx];
    const int lineno = static_cast<int>(idx) + 1;
    check_line(rel, lineno, raw, code, markers_above, out);

    // condvar-predicate: `.wait(mu)` (1 arg) and `.wait_for(mu, dur)`
    // (2 args) park without a predicate.
    if (rel.generic_string() != "src/util/mutex.h") {
      const auto allowed_cv =
          raw.find("fastpr-lint: allow(condvar-predicate)") !=
              std::string::npos ||
          markers_above.find("fastpr-lint: allow(condvar-predicate)") !=
              std::string::npos;
      if (!allowed_cv) {
        for (const auto& [token, naked_args] :
             {std::pair<const char*, int>{".wait_for(", 2},
              std::pair<const char*, int>{".wait(", 1}}) {
          const size_t pos = code.find(token);
          if (pos == std::string::npos) continue;
          const size_t open = code.find('(', pos);
          if (count_call_args(code_lines, idx, open) == naked_args) {
            out.push_back(
                {rel.generic_string(), lineno, "condvar-predicate",
                 "predicate-less CondVar wait; use the predicate "
                 "overload (wait(mu, pred) / wait_for(mu, dur, pred)) "
                 "so spurious wakeups and lost notifies cannot hang "
                 "the loop"});
          }
          break;  // a line has one wait call; wait_for checked first
        }
      }
    }

    if (raw.find("fastpr-lint: allow(") != std::string::npos &&
        code.find_first_not_of(" \t") == std::string::npos) {
      markers_above += raw;
      markers_above += '\n';
    } else if (code.find_first_not_of(" \t") != std::string::npos) {
      markers_above.clear();  // a code line consumes the markers
    }
  }
  if (is_header && !saw_pragma_once) {
    out.push_back({rel.generic_string(), 1, "pragma-once",
                   "header is missing #pragma once"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: fastpr_lint <repo-root>\n";
    return 2;
  }
  const fs::path root = argv[1];
  const char* kDirs[] = {"src", "bench", "tests", "tools"};

  std::vector<Violation> violations;
  int files_checked = 0;
  for (const char* dir : kDirs) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext != ".h" && ext != ".cpp") continue;
      const fs::path rel = fs::relative(entry.path(), root);
      // Golden bad-snippet trees deliberately violate the rules; they
      // are linted by their own ctest entries with their own roots.
      if (rel.generic_string().find("lint_fixtures") !=
          std::string::npos) {
        continue;
      }
      ++files_checked;
      check_file(root, rel, violations);
    }
  }

  for (const auto& v : violations) {
    std::cerr << v.file << ":" << v.line << ": [" << v.rule << "] "
              << v.detail << "\n";
  }
  // Zero files means the root was wrong (typo, or run from the wrong
  // directory); succeeding here would let CI pass vacuously.
  if (files_checked == 0) {
    std::cerr << "fastpr_lint: no .h/.cpp files under " << root
              << " (src/ bench/ tests/ tools/) -- wrong repo root?\n";
    return 2;
  }
  std::cout << "fastpr_lint: " << files_checked << " files, "
            << violations.size() << " violation(s)\n";
  return violations.empty() ? 0 : 1;
}
