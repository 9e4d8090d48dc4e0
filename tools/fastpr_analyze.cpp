// fastpr_analyze — cross-file concurrency-correctness analyzer.
//
// Where fastpr_lint checks single lines against repo conventions, this
// tool builds a cross-file model of the lock discipline and the message
// protocol from the sources under <repo-root>/src and enforces:
//
//  * lock-rank     — every fastpr::Mutex declared in src/ must carry a
//                    rank from util/lock_order.h
//                    (`Mutex m_{lock_order::kSomething};`), so the
//                    declared hierarchy stays total.
//  * lock-order    — the acquisition graph extracted from MutexLock
//                    scopes and FASTPR_REQUIRES annotations must
//                    ascend the declared hierarchy strictly (acquiring
//                    a lower- or equal-ranked mutex while a higher one
//                    is held is an error) and must be acyclic, even
//                    across unranked mutexes.
//  * lock-held-blocking — no blocking call while any lock is held:
//                    transport send/recv, chunk-store disk I/O and
//                    token-bucket acquisition, raw socket
//                    connect/write/read, thread joins, sleeps, and
//                    CondVar waits on a *different* mutex than one
//                    already held.
//  * msgtype-exhaustive — every net::MessageType enumerator must
//                    appear in the agent/coordinator dispatch code
//                    (src/agent/agent.cpp ∪ src/agent/coordinator.cpp)
//                    and in the wire codec (src/net/message.cpp), so a
//                    new message type cannot ship half-wired.
//
// The model is deliberately a line-based heuristic parser (same family
// as fastpr_lint), not a libclang pass: it understands the repo's
// idioms — `MutexLock l(expr);`, rank-braced Mutex members,
// FASTPR_REQUIRES on declarations and inline lambdas — which is enough
// to make the checks sound for this codebase while keeping the tool a
// single dependency-free TU that runs in milliseconds as a ctest test.
//
// Mutex name resolution: a MutexLock names its mutex by trailing
// identifier (`ep.conn_mutex` → conn_mutex). Names are resolved against
// the declarations of the same header/source pair first (member names
// like `mutex` repeat across classes but are unique within a pair),
// then against a globally unique declaration; unresolvable names are
// skipped rather than guessed.
//
// Reviewed exceptions use the same inline marker grammar as
// fastpr_lint: `fastpr-lint: allow(<rule>)` on the offending line, or
// in the comment block immediately above it (covering through the end
// of the next statement, so a marker can bless a multi-line call).
//
// Runtime counterpart: the debug lock-order tracker in util/mutex.cpp
// enforces the same hierarchy on real interleavings (including lock
// nesting that only materializes through function calls, which this
// static pass does not chase).

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
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

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Word-bounded token search (see fastpr_lint).
bool has_word(const std::string& s, const std::string& token) {
  size_t pos = 0;
  while ((pos = s.find(token, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(s[pos - 1]);
    const size_t end = pos + token.size();
    const bool right_ok = end >= s.size() || !is_ident_char(s[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

/// Strips string/char literals and comments; carries block-comment
/// state across lines (identical contract to fastpr_lint).
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
    if (line.compare(i, 2, "//") == 0) break;
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

/// Last identifier in an expression: `window->mutex` → "mutex",
/// `ep.conn_mutex` → "conn_mutex", `send_mutex_` → itself.
std::string trailing_ident(const std::string& expr) {
  size_t end = expr.size();
  while (end > 0 && !is_ident_char(expr[end - 1])) --end;
  size_t begin = end;
  while (begin > 0 && is_ident_char(expr[begin - 1])) --begin;
  return expr.substr(begin, end - begin);
}

/// Captures the balanced `(...)` starting at s[open] (which must be
/// '('); returns the contents, or nullopt if unbalanced on this line.
std::optional<std::string> capture_parens(const std::string& s,
                                          size_t open) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')') {
      --depth;
      if (depth == 0) return s.substr(open + 1, i - open - 1);
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------
// Model

struct RankDef {
  int order = 0;
  std::string dotted;  // "net.inbox"
};

struct MutexRecord {
  std::string rank_const;  // "kNetInbox", empty when unranked
};

struct Analyzer {
  fs::path root;
  std::vector<Violation> violations;
  int files_checked = 0;

  std::map<std::string, RankDef> rank_table;
  // pair key ("src/net/tcp_transport") → mutex name → record
  std::map<std::string, std::map<std::string, MutexRecord>> pair_mutexes;
  // mutex name → set of pair keys declaring it (for unique fallback)
  std::map<std::string, std::set<std::string>> name_sites;
  // pair key → function name → mutex name (FASTPR_REQUIRES on decls)
  std::map<std::string, std::map<std::string, std::string>> requires_fns;

  // Acquisition graph over node identities. Identity is the rank
  // constant for ranked mutexes (all instances of a rank are one
  // hierarchy level) and "pairkey::name" for unranked ones.
  struct EdgeInfo {
    std::string file;
    int line = 0;
  };
  std::map<std::string, std::map<std::string, EdgeInfo>> edges;
  std::map<std::string, std::string> node_label;  // identity → pretty name

  void report(const fs::path& rel, int line, const std::string& rule,
              const std::string& detail) {
    violations.push_back({rel.generic_string(), line, rule, detail});
  }
};

std::string pair_key(const fs::path& rel) {
  fs::path p = rel;
  p.replace_extension();
  return p.generic_string();
}

/// Resolves a mutex name used in `pair` to (identity, rank) — see the
/// header comment for the pair-then-global-unique strategy.
struct Resolved {
  std::string identity;
  std::string label;
  const RankDef* rank = nullptr;  // null when unranked
};

std::optional<Resolved> resolve_mutex(Analyzer& a, const std::string& pair,
                                      const std::string& name) {
  const std::map<std::string, MutexRecord>* site = nullptr;
  std::string site_key;
  const auto it = a.pair_mutexes.find(pair);
  if (it != a.pair_mutexes.end() && it->second.count(name) != 0) {
    site = &it->second;
    site_key = pair;
  } else {
    const auto sites = a.name_sites.find(name);
    if (sites == a.name_sites.end() || sites->second.size() != 1) {
      return std::nullopt;  // unknown or ambiguous: do not guess
    }
    site_key = *sites->second.begin();
    site = &a.pair_mutexes.at(site_key);
  }
  const MutexRecord& rec = site->at(name);
  Resolved r;
  if (!rec.rank_const.empty()) {
    const auto rank_it = a.rank_table.find(rec.rank_const);
    if (rank_it != a.rank_table.end()) {
      r.identity = rec.rank_const;
      r.label = rank_it->second.dotted;
      r.rank = &rank_it->second;
      return r;
    }
  }
  r.identity = site_key + "::" + name;
  r.label = r.identity;
  return r;
}

// ---------------------------------------------------------------------
// Pass 0: the declared hierarchy

void parse_lock_order(Analyzer& a) {
  std::ifstream in(a.root / "src/util/lock_order.h");
  if (!in.good()) return;  // fixtures without a hierarchy: empty table
  bool in_block = false;
  std::string line;
  while (std::getline(in, line)) {
    // inline constexpr Rank kName{order, "dotted.name"};
    const std::string code = sanitize(line, in_block);
    const size_t rank_pos = code.find("Rank k");
    if (rank_pos == std::string::npos) continue;
    size_t i = rank_pos + 5;  // at 'k'
    std::string name;
    while (i < code.size() && is_ident_char(code[i])) name += code[i++];
    while (i < code.size() && code[i] == ' ') ++i;
    if (i >= code.size() || code[i] != '{') continue;
    int order = 0;
    bool neg = false;
    ++i;
    while (i < code.size() && (code[i] == ' ' || code[i] == '-')) {
      if (code[i] == '-') neg = true;
      ++i;
    }
    bool got_digit = false;
    while (i < code.size() &&
           std::isdigit(static_cast<unsigned char>(code[i])) != 0) {
      order = order * 10 + (code[i] - '0');
      got_digit = true;
      ++i;
    }
    if (!got_digit) continue;
    // The dotted name lives in a string literal, which sanitize()
    // blanked; re-read it from the raw line.
    std::string dotted;
    const size_t q1 = line.find('"');
    const size_t q2 = q1 == std::string::npos ? std::string::npos
                                              : line.find('"', q1 + 1);
    if (q2 != std::string::npos) dotted = line.substr(q1 + 1, q2 - q1 - 1);
    if (dotted.empty()) dotted = name;
    a.rank_table[name] = RankDef{neg ? -order : order, dotted};
  }
}

// ---------------------------------------------------------------------
// Allow-marker carry: a marker in a comment-only line covers following
// code lines through the end of the next statement (first line whose
// code contains ';', '{' or '}').

struct MarkerCarry {
  std::string carried;

  bool allowed(const std::string& raw, const char* rule) const {
    const std::string marker =
        std::string("fastpr-lint: allow(") + rule + ")";
    return raw.find(marker) != std::string::npos ||
           carried.find(marker) != std::string::npos;
  }

  void advance(const std::string& raw, const std::string& code) {
    const bool comment_only =
        code.find_first_not_of(" \t") == std::string::npos;
    if (comment_only) {
      if (raw.find("fastpr-lint: allow(") != std::string::npos) {
        carried += raw;
        carried += '\n';
      }
      return;
    }
    if (code.find_first_of(";{}") != std::string::npos) carried.clear();
  }
};

// ---------------------------------------------------------------------
// Pass 1: declarations (mutex members + FASTPR_REQUIRES signatures)

void collect_declarations(Analyzer& a, const fs::path& rel) {
  std::ifstream in(a.root / rel);
  if (!in.good()) {
    a.report(rel, 0, "io", "cannot open file");
    return;
  }
  const bool exempt_decl = rel.generic_string() == "src/util/mutex.h" ||
                           rel.generic_string() == "src/util/mutex.cpp";
  const std::string key = pair_key(rel);
  bool in_block = false;
  MarkerCarry carry;
  std::string line, prev_code;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string code = sanitize(line, in_block);

    // Mutex declarations: `Mutex name;` / `Mutex name{...};`, with an
    // optional `mutable` prefix. `MutexLock`, `Mutex&` parameters and
    // the class definition itself do not match.
    size_t pos = 0;
    while ((pos = code.find("Mutex", pos)) != std::string::npos) {
      const bool left_ok = pos == 0 || !is_ident_char(code[pos - 1]);
      size_t i = pos + 5;
      if (!left_ok || (i < code.size() && is_ident_char(code[i]))) {
        pos += 5;
        continue;
      }
      while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
      std::string name;
      while (i < code.size() && is_ident_char(code[i])) name += code[i++];
      while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
      if (name.empty() || i >= code.size() ||
          (code[i] != ';' && code[i] != '{')) {
        pos += 5;
        continue;
      }
      std::string rank_const;
      if (code[i] == '{') {
        const size_t lo = code.find("lock_order::k", i);
        if (lo != std::string::npos) {
          size_t j = lo + 12;  // at 'k'
          while (j < code.size() && is_ident_char(code[j])) {
            rank_const += code[j++];
          }
        }
      }
      a.pair_mutexes[key][name] = MutexRecord{rank_const};
      a.name_sites[name].insert(key);
      if (rank_const.empty() && !exempt_decl &&
          !carry.allowed(line, "lock-rank")) {
        a.report(rel, lineno, "lock-rank",
                 "Mutex `" + name +
                     "` has no rank; construct it with a "
                     "lock_order:: rank (util/lock_order.h) so the "
                     "declared hierarchy stays total");
      }
      pos += 5;
    }

    // FASTPR_REQUIRES on a pure declaration (line ends in `;`): the
    // named function's out-of-line definition runs with the mutex held.
    const size_t req = code.find("FASTPR_REQUIRES");
    if (req != std::string::npos) {
      const size_t open = code.find('(', req);
      if (open != std::string::npos) {
        const auto arg = capture_parens(code, open);
        const size_t after =
            open + (arg.has_value() ? arg->size() + 2 : 1);
        if (arg.has_value() &&
            code.find(';', after) != std::string::npos &&
            code.find('{', after) == std::string::npos) {
          // Function name: last `ident(` before the annotation, on
          // this line or (multi-line signature) the previous one.
          const std::string sig = prev_code + " " + code.substr(0, req);
          std::string fn;
          for (size_t j = 0; j + 1 < sig.size(); ++j) {
            if (is_ident_char(sig[j]) &&
                (j == 0 || !is_ident_char(sig[j - 1]))) {
              size_t e = j;
              while (e < sig.size() && is_ident_char(sig[e])) ++e;
              size_t k = e;
              while (k < sig.size() && sig[k] == ' ') ++k;
              if (k < sig.size() && sig[k] == '(') {
                fn = sig.substr(j, e - j);
              }
            }
          }
          if (!fn.empty() && fn != "FASTPR_REQUIRES") {
            a.requires_fns[key][fn] = trailing_ident(*arg);
          }
        }
      }
    }

    carry.advance(line, code);
    if (code.find_first_not_of(" \t") != std::string::npos) {
      prev_code = code;
    }
  }
  ++a.files_checked;
}

// ---------------------------------------------------------------------
// Pass 2: lock scopes, acquisition edges, blocking calls

/// Calls that can block for I/O, shaping, scheduling or indefinitely.
/// Curated for this codebase (see the rule catalog in DESIGN.md §6b).
const char* kBlockingTokens[] = {
    "transport_.send", "transport_.recv", "transport.send",
    "transport.recv",  "inner_.send",     "inner_.recv",
    "write_all(",      "read_all(",       "::connect(",
    "::accept(",       "sleep_for(",      ".join(",
    ".tx.acquire(",    ".rx.acquire(",    "disk_->acquire(",
    ".charge_io(",     "->charge_io(",    "store_.read(",
    "store_.write(",
};

struct Hold {
  Resolved mutex;
  int depth = 0;  // active while brace depth >= this
};

void analyze_file(Analyzer& a, const fs::path& rel) {
  std::ifstream in(a.root / rel);
  if (!in.good()) return;  // reported in pass 1
  const std::string rel_str = rel.generic_string();
  const bool exempt_blocking = rel_str == "src/util/mutex.h" ||
                               rel_str == "src/util/mutex.cpp";
  const std::string key = pair_key(rel);

  // Annotated functions visible to this TU: its own pair's (header
  // declarations resolve against the sibling .cpp definitions).
  const std::map<std::string, std::string>* req_fns = nullptr;
  const auto rf = a.requires_fns.find(key);
  if (rf != a.requires_fns.end()) req_fns = &rf->second;

  bool in_block = false;
  MarkerCarry carry;
  std::string line;
  int lineno = 0;
  int depth = 0;
  int ns_depth = 0;  // brace depth contributed by enclosing namespaces
  std::vector<Hold> holds;

  const auto held = [&](const std::string& identity) {
    return std::any_of(holds.begin(), holds.end(), [&](const Hold& h) {
      return h.mutex.identity == identity;
    });
  };

  const auto push_hold = [&](const Resolved& r, int at_depth,
                             int at_line) {
    if (held(r.identity)) return;  // re-entry via REQUIRES lambda etc.
    if (!holds.empty()) {
      const Hold& top = holds.back();
      // Rank discipline: strictly ascending against everything held.
      for (const Hold& h : holds) {
        if (h.mutex.rank != nullptr && r.rank != nullptr &&
            r.rank->order <= h.mutex.rank->order &&
            !carry.allowed(line, "lock-order")) {
          std::ostringstream os;
          os << "acquires " << r.label << "(order " << r.rank->order
             << ") while holding " << h.mutex.label << "(order "
             << h.mutex.rank->order
             << "); util/lock_order.h requires strictly ascending "
                "acquisition";
          a.report(rel, at_line, "lock-order", os.str());
        }
      }
      a.node_label[top.mutex.identity] = top.mutex.label;
      a.node_label[r.identity] = r.label;
      a.edges[top.mutex.identity].emplace(
          r.identity, Analyzer::EdgeInfo{rel_str, at_line});
    }
    holds.push_back(Hold{r, at_depth});
  };

  while (std::getline(in, line)) {
    ++lineno;
    const std::string code = sanitize(line, in_block);

    const int opens =
        static_cast<int>(std::count(code.begin(), code.end(), '{'));
    const int closes =
        static_cast<int>(std::count(code.begin(), code.end(), '}'));
    const int depth_after = depth + opens - closes;

    // Blocking calls under any held lock.
    if (!holds.empty() && !exempt_blocking &&
        !carry.allowed(line, "lock-held-blocking")) {
      for (const char* token : kBlockingTokens) {
        if (code.find(token) != std::string::npos) {
          a.report(rel, lineno, "lock-held-blocking",
                   std::string("blocking call `") + token +
                       "` while holding " + holds.back().mutex.label +
                       "; move the blocking work outside the lock or "
                       "mark the reviewed exception");
          break;
        }
      }
      // CondVar wait on a different mutex than one already held: the
      // held lock stays locked for the whole (unbounded) wait.
      for (const char* wait_tok : {".wait(", ".wait_for("}) {
        const size_t wp = code.find(wait_tok);
        if (wp == std::string::npos) continue;
        const size_t open = code.find('(', wp);
        const std::string inside =
            capture_parens(code, open).value_or(code.substr(open + 1));
        const std::string waited =
            trailing_ident(inside.substr(0, inside.find(',')));
        const auto rw = resolve_mutex(a, key, waited);
        for (const Hold& h : holds) {
          if (!rw.has_value() || rw->identity != h.mutex.identity) {
            a.report(rel, lineno, "lock-held-blocking",
                     "CondVar wait on `" + waited +
                         "` while also holding " + h.mutex.label +
                         "; the held lock stays locked across the "
                         "unbounded wait");
            break;
          }
        }
        break;
      }
    }

    // New MutexLock scopes.
    size_t pos = 0;
    while ((pos = code.find("MutexLock", pos)) != std::string::npos) {
      const bool left_ok = pos == 0 || !is_ident_char(code[pos - 1]);
      size_t i = pos + 9;
      if (!left_ok || (i < code.size() && is_ident_char(code[i]))) {
        pos += 9;
        continue;
      }
      while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
      while (i < code.size() && is_ident_char(code[i])) ++i;  // var name
      while (i < code.size() && (code[i] == ' ' || code[i] == '\t')) ++i;
      if (i < code.size() && code[i] == '(') {
        const auto expr = capture_parens(code, i);
        if (expr.has_value()) {
          const auto r = resolve_mutex(a, key, trailing_ident(*expr));
          if (r.has_value()) push_hold(*r, depth_after, lineno);
        }
      }
      pos += 9;
    }

    // Inline FASTPR_REQUIRES with a body on the same line (lambdas,
    // header-inline methods): the body runs with the mutex held.
    const size_t req = code.find("FASTPR_REQUIRES");
    if (req != std::string::npos) {
      const size_t open = code.find('(', req);
      if (open != std::string::npos) {
        const auto arg = capture_parens(code, open);
        if (arg.has_value() &&
            code.find('{', open) != std::string::npos) {
          const auto r = resolve_mutex(a, key, trailing_ident(*arg));
          if (r.has_value()) push_hold(*r, depth_after, lineno);
        }
      }
    }

    // Namespace braces do not open scopes of interest; function
    // definitions live at the current namespace depth.
    if (has_word(code, "namespace") && opens > closes) {
      ns_depth += opens - closes;
    }

    // Top-level definition of a function whose declaration carries
    // FASTPR_REQUIRES: its whole body runs with the mutex held.
    if (req_fns != nullptr && depth == ns_depth && depth_after > depth) {
      for (const auto& [fn, mutex_name] : *req_fns) {
        if (!has_word(code, fn)) continue;
        const auto r = resolve_mutex(a, key, mutex_name);
        if (r.has_value()) push_hold(*r, depth_after, lineno);
        break;
      }
    }

    depth = depth_after;
    ns_depth = std::min(ns_depth, depth);
    while (!holds.empty() && depth < holds.back().depth) holds.pop_back();
    if (depth <= 0) {
      depth = std::max(depth, 0);
      holds.clear();
    }

    carry.advance(line, code);
  }
}

// ---------------------------------------------------------------------
// Cycle detection over the acquisition graph

void check_cycles(Analyzer& a) {
  // Iterative DFS with colors; report each back edge as one cycle.
  std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
  std::vector<std::string> stack_path;

  struct Frame {
    std::string node;
    std::map<std::string, Analyzer::EdgeInfo>::const_iterator next, end;
  };

  static const std::map<std::string, Analyzer::EdgeInfo> kNoEdges;
  const auto edges_of = [&](const std::string& n)
      -> const std::map<std::string, Analyzer::EdgeInfo>& {
    const auto it = a.edges.find(n);
    return it == a.edges.end() ? kNoEdges : it->second;
  };

  for (const auto& kv : a.edges) {
    const std::string& start = kv.first;
    if (color[start] != 0) continue;
    std::vector<Frame> frames;
    frames.push_back({start, edges_of(start).begin(), edges_of(start).end()});
    color[start] = 1;
    stack_path.push_back(start);
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next == f.end) {
        color[f.node] = 2;
        stack_path.pop_back();
        frames.pop_back();
        continue;
      }
      const std::string to = f.next->first;
      const Analyzer::EdgeInfo info = f.next->second;
      ++f.next;
      if (color[to] == 1) {
        // Back edge: the grey path from `to` to f.node plus this edge
        // is a cycle.
        std::ostringstream os;
        os << "lock acquisition cycle: ";
        const auto begin =
            std::find(stack_path.begin(), stack_path.end(), to);
        for (auto it = begin; it != stack_path.end(); ++it) {
          os << a.node_label[*it] << " -> ";
        }
        os << a.node_label[to]
           << " (some interleaving of these scopes deadlocks)";
        a.violations.push_back({info.file, info.line, "lock-order",
                                os.str()});
        continue;
      }
      if (color[to] == 0) {
        color[to] = 1;
        stack_path.push_back(to);
        frames.push_back({to, edges_of(to).begin(), edges_of(to).end()});
      }
    }
  }
}

// ---------------------------------------------------------------------
// Protocol exhaustiveness

std::string read_sanitized(const fs::path& path) {
  std::ifstream in(path);
  std::string out, line;
  bool in_block = false;
  while (std::getline(in, line)) {
    out += sanitize(line, in_block);
    out += '\n';
  }
  return out;
}

void check_msgtype(Analyzer& a) {
  const fs::path header = a.root / "src/net/message.h";
  std::ifstream in(header);
  if (!in.good()) return;  // tree without the protocol: rule is moot

  std::vector<std::string> enumerators;
  bool in_block = false, in_enum = false;
  std::string line;
  while (std::getline(in, line)) {
    const std::string code = sanitize(line, in_block);
    if (code.find("enum class MessageType") != std::string::npos) {
      in_enum = true;
      continue;
    }
    if (!in_enum) continue;
    if (code.find("};") != std::string::npos) break;
    const size_t k = code.find_first_not_of(" \t");
    if (k == std::string::npos || code[k] != 'k') continue;
    size_t e = k;
    while (e < code.size() && is_ident_char(code[e])) ++e;
    enumerators.push_back(code.substr(k, e - k));
  }

  std::string dispatch;
  for (const char* f : {"src/agent/agent.cpp", "src/agent/coordinator.cpp"}) {
    if (fs::exists(a.root / f)) dispatch += read_sanitized(a.root / f);
  }
  std::string codec;
  if (fs::exists(a.root / "src/net/message.cpp")) {
    codec = read_sanitized(a.root / "src/net/message.cpp");
  }

  for (const std::string& e : enumerators) {
    if (!dispatch.empty() && !has_word(dispatch, e)) {
      a.violations.push_back(
          {"src/net/message.h", 0, "msgtype-exhaustive",
           "MessageType::" + e +
               " is never handled in the agent/coordinator dispatch "
               "(src/agent/agent.cpp, src/agent/coordinator.cpp)"});
    }
    if (!codec.empty() && !has_word(codec, e)) {
      a.violations.push_back(
          {"src/net/message.h", 0, "msgtype-exhaustive",
           "MessageType::" + e +
               " is not wired into the codec switch in "
               "src/net/message.cpp (valid_message_type)"});
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: fastpr_analyze <repo-root>\n";
    return 2;
  }
  Analyzer a;
  a.root = argv[1];

  parse_lock_order(a);

  std::vector<fs::path> sources;
  const fs::path base = a.root / "src";
  if (fs::exists(base)) {
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const auto ext = entry.path().extension();
      if (ext != ".h" && ext != ".cpp") continue;
      const fs::path rel = fs::relative(entry.path(), a.root);
      if (rel.generic_string().find("lint_fixtures") != std::string::npos) {
        continue;
      }
      sources.push_back(rel);
    }
  }
  std::sort(sources.begin(), sources.end());

  for (const fs::path& rel : sources) collect_declarations(a, rel);
  for (const fs::path& rel : sources) analyze_file(a, rel);
  check_cycles(a);
  check_msgtype(a);

  for (const auto& v : a.violations) {
    std::cerr << v.file << ":" << v.line << ": [" << v.rule << "] "
              << v.detail << "\n";
  }
  if (a.files_checked == 0) {
    std::cerr << "fastpr_analyze: no .h/.cpp files under " << a.root
              << "/src -- wrong repo root?\n";
    return 2;
  }
  std::cout << "fastpr_analyze: " << a.files_checked << " files, "
            << a.edges.size() << " lock-graph node(s), "
            << a.violations.size() << " violation(s)\n";
  return a.violations.empty() ? 0 : 1;
}
