#include "diff/diff.h"

#include <algorithm>
#include <deque>
#include <map>

#include "common/strings.h"

namespace procheck::diff {

std::string_view to_string(DivergenceKind k) {
  switch (k) {
    case DivergenceKind::kOutputMismatch:
      return "output-mismatch";
    case DivergenceKind::kMissingLeft:
      return "missing-left";
    case DivergenceKind::kMissingRight:
      return "missing-right";
    case DivergenceKind::kExtraStateLeft:
      return "extra-state-left";
    case DivergenceKind::kExtraStateRight:
      return "extra-state-right";
  }
  return "?";
}

std::string_view to_string(Finding::Class c) {
  switch (c) {
    case Finding::Class::kDivergent:
      return "divergent";
    case Finding::Class::kCommon:
      return "common";
    case Finding::Class::kInconclusive:
      return "inconclusive";
  }
  return "?";
}

std::string input_key(const std::set<fsm::Atom>& conditions) {
  return join({conditions.begin(), conditions.end()}, " & ");
}

namespace {

/// The divergence list stops growing here, and the report's note says so.
constexpr std::size_t kMaxDivergences = 256;

/// Per-state transition index keyed by the canonical condition-set rendering
/// — the product walk's input symbol. std::map keeps iteration sorted, which
/// is what makes the BFS expansion (and thus every report) canonical.
using EdgeIndex = std::map<std::string, std::map<std::string, const fsm::Transition*>>;

EdgeIndex index_of(const fsm::Fsm& machine) {
  EdgeIndex index;
  for (const fsm::Transition& t : machine.transitions()) {
    index[t.from].emplace(input_key(t.conditions), &t);
  }
  return index;
}

std::string pair_name(const std::string& l, const std::string& r) { return l + " | " + r; }

/// Shortest (and lexicographically least among shortest) input sequence from
/// the machine's initial state to `target`, BFS over sorted inputs.
std::vector<std::string> shortest_path_to(const fsm::Fsm& machine, const EdgeIndex& index,
                                          const std::string& target) {
  struct Visit {
    int parent = -1;
    std::string input;
    std::string state;
  };
  std::vector<Visit> visits{{-1, "", machine.initial()}};
  std::map<std::string, int> seen{{machine.initial(), 0}};
  std::deque<int> work{0};
  while (!work.empty()) {
    int at = work.front();
    work.pop_front();
    if (visits[at].state == target) {
      std::vector<std::string> path;
      for (int v = at; v > 0; v = visits[v].parent) path.push_back(visits[v].input);
      std::reverse(path.begin(), path.end());
      return path;
    }
    auto it = index.find(visits[at].state);
    if (it == index.end()) continue;
    for (const auto& [input, t] : it->second) {
      if (seen.emplace(t->to, static_cast<int>(visits.size())).second) {
        visits.push_back({at, input, t->to});
        work.push_back(static_cast<int>(visits.size()) - 1);
      }
    }
  }
  return {};
}

}  // namespace

int DiffReport::exit_code() const {
  if (inconclusive) return 3;
  return divergences.empty() ? 0 : 1;
}

DiffReport diff_machines(const Side& left, const Side& right, const DiffOptions& options) {
  DiffReport report;
  report.left_name = left.name;
  report.right_name = right.name;

  // The product construction assumes deterministic inputs (§III-B); a
  // nondeterministic side has no well-defined lockstep successor.
  for (const Side* side : {&left, &right}) {
    if (!side->machine.deterministic()) {
      report.inconclusive = true;
      report.note = "side '" + side->name + "' is nondeterministic: no product walk possible";
      return report;
    }
    if (side->machine.initial().empty()) {
      report.inconclusive = true;
      report.note = "side '" + side->name + "' has no initial state";
      return report;
    }
  }

  const EdgeIndex left_index = index_of(left.machine);
  const EdgeIndex right_index = index_of(right.machine);

  struct Pair {
    std::string l;
    std::string r;
    int parent = -1;
    std::string input;  // edge from the parent pair
  };
  std::vector<Pair> pairs{{left.machine.initial(), right.machine.initial(), -1, ""}};
  std::map<std::pair<std::string, std::string>, int> seen{
      {{pairs[0].l, pairs[0].r}, 0}};
  std::deque<int> work{0};

  auto sequence_to = [&pairs](int at, const std::string& last) {
    std::vector<std::string> seq;
    for (int v = at; v > 0; v = pairs[v].parent) seq.push_back(pairs[v].input);
    std::reverse(seq.begin(), seq.end());
    seq.push_back(last);
    return seq;
  };

  bool walk_capped = false;
  bool divergences_capped = false;
  static const std::map<std::string, const fsm::Transition*> kNoEdges;

  while (!work.empty()) {
    const int at = work.front();
    work.pop_front();
    const std::string l = pairs[at].l;
    const std::string r = pairs[at].r;

    auto lit = left_index.find(l);
    auto rit = right_index.find(r);
    const auto& ledges = lit == left_index.end() ? kNoEdges : lit->second;
    const auto& redges = rit == right_index.end() ? kNoEdges : rit->second;

    // Merge the two sorted input alphabets so comparison order — and with it
    // every distinguishing sequence — is canonical.
    std::vector<std::string> inputs;
    inputs.reserve(ledges.size() + redges.size());
    for (const auto& [key, t] : ledges) inputs.push_back(key);
    for (const auto& [key, t] : redges) {
      if (ledges.count(key) == 0) inputs.push_back(key);
    }
    std::sort(inputs.begin(), inputs.end());

    for (const std::string& input : inputs) {
      auto le = ledges.find(input);
      auto re = redges.find(input);
      const fsm::Transition* lt = le == ledges.end() ? nullptr : le->second;
      const fsm::Transition* rt = re == redges.end() ? nullptr : re->second;

      if (lt != nullptr && rt != nullptr) {
        if (lt->actions != rt->actions &&
            report.divergences.size() < kMaxDivergences) {
          Divergence d;
          d.kind = DivergenceKind::kOutputMismatch;
          d.input = input;
          d.sequence = sequence_to(at, input);
          d.left_state = l;
          d.right_state = r;
          d.left_edge = lt->label();
          d.right_edge = rt->label();
          report.divergences.push_back(std::move(d));
        } else if (lt->actions != rt->actions) {
          divergences_capped = true;
        }
        // Walk past the mismatch: deeper pairs may expose further
        // divergences, and BFS keeps each one's sequence minimal.
        auto [it, inserted] = seen.try_emplace({lt->to, rt->to}, static_cast<int>(pairs.size()));
        if (inserted) {
          if (pairs.size() >= options.max_product_pairs) {
            walk_capped = true;
            seen.erase(it);
          } else {
            pairs.push_back({lt->to, rt->to, at, input});
            work.push_back(static_cast<int>(pairs.size()) - 1);
            report.edges.push_back(
                {pair_name(l, r), pair_name(lt->to, rt->to), input});
          }
        } else {
          report.edges.push_back({pair_name(l, r), pair_name(lt->to, rt->to), input});
        }
        continue;
      }

      if (report.divergences.size() >= kMaxDivergences) {
        divergences_capped = true;
        continue;
      }
      Divergence d;
      d.kind = lt != nullptr ? DivergenceKind::kMissingRight : DivergenceKind::kMissingLeft;
      d.input = input;
      d.sequence = sequence_to(at, input);
      d.left_state = l;
      d.right_state = r;
      d.left_edge = lt != nullptr ? lt->label() : "-";
      d.right_edge = rt != nullptr ? rt->label() : "-";
      report.divergences.push_back(std::move(d));
    }
  }
  report.product_pairs = pairs.size();

  if (walk_capped) {
    report.note = "product walk capped at " + std::to_string(options.max_product_pairs) +
                  " pairs; extra-state analysis skipped";
    // Without a complete walk an empty divergence list proves nothing.
    if (report.divergences.empty()) report.inconclusive = true;
  } else {
    // States a side can reach that no lockstep pair ever visits: reachable
    // only along already-diverged paths.
    std::set<std::string> covered_left;
    std::set<std::string> covered_right;
    for (const Pair& p : pairs) {
      covered_left.insert(p.l);
      covered_right.insert(p.r);
    }
    struct ExtraScan {
      const Side* side;
      const EdgeIndex* index;
      const std::set<std::string>* covered;
      DivergenceKind kind;
    };
    for (const ExtraScan& scan :
         {ExtraScan{&left, &left_index, &covered_left, DivergenceKind::kExtraStateLeft},
          ExtraScan{&right, &right_index, &covered_right, DivergenceKind::kExtraStateRight}}) {
      for (const std::string& state : scan.side->machine.reachable()) {  // sorted
        if (scan.covered->count(state) > 0) continue;
        if (report.divergences.size() >= kMaxDivergences) {
          divergences_capped = true;
          break;
        }
        Divergence d;
        d.kind = scan.kind;
        d.input = state;
        d.sequence = shortest_path_to(scan.side->machine, *scan.index, state);
        d.left_state = scan.kind == DivergenceKind::kExtraStateLeft ? state : "-";
        d.right_state = scan.kind == DivergenceKind::kExtraStateRight ? state : "-";
        d.left_edge = "-";
        d.right_edge = "-";
        report.divergences.push_back(std::move(d));
      }
    }
  }
  if (divergences_capped) {
    if (!report.note.empty()) report.note += "; ";
    report.note += "divergence list truncated at " + std::to_string(kMaxDivergences);
  }

  report.equivalent = report.divergences.empty() && !report.inconclusive;
  return report;
}

std::string DiffReport::render() const {
  std::string verdict = inconclusive ? "INCONCLUSIVE" : (equivalent ? "EQUIVALENT" : "DIVERGENT");
  std::string out = "diff " + left_name + " vs " + right_name + ": " + verdict + "\n";
  if (!note.empty()) out += "note: " + note + "\n";
  out += "product pairs visited: " + std::to_string(product_pairs) + "\n";
  out += "divergences: " + std::to_string(divergences.size()) + "\n";
  for (std::size_t i = 0; i < divergences.size(); ++i) {
    const Divergence& d = divergences[i];
    out += "  [" + std::to_string(i + 1) + "] " + std::string(to_string(d.kind)) + ": " +
           d.input + "\n";
    out += "      at " + pair_name(d.left_state, d.right_state) + "\n";
    out += "      sequence: " + (d.sequence.empty() ? "(initial)" : join(d.sequence, " -> ")) +
           "\n";
    out += "      left:  " + d.left_edge + "\n";
    out += "      right: " + d.right_edge + "\n";
    if (d.properties.empty()) {
      out += "      triage: behavioral-only\n";
    } else {
      out += "      triage: " + join(d.properties, " ") + "\n";
    }
  }
  out += "findings: " + std::to_string(findings.size()) + "\n";
  for (const Finding& f : findings) {
    out += "  " + f.property_id;
    if (!f.attack_id.empty()) out += " [" + f.attack_id + "]";
    out += " " + std::string(to_string(f.cls));
    if (f.cls == Finding::Class::kDivergent) {
      out += ": " + f.violates + " (" + (f.violates == "left" ? left_name : right_name) +
             ") violates";
    } else if (f.cls == Finding::Class::kCommon) {
      out += ": both sides violate";
    }
    out += " (left=" + f.left_status + ", right=" + f.right_status + ")";
    if (!f.note.empty()) out += " — " + f.note;
    out += "\n";
  }
  return out;
}

std::string DiffReport::to_dot(const std::string& name) const {
  // Lockstep pairs as nodes, shared transitions solid; divergence edges red
  // (missing sides dashed toward a stub node); extra states as red nodes.
  std::string out = "digraph " + name + " {\n  rankdir=LR;\n  node [shape=box];\n";

  // Output-mismatch divergences keyed by (pair, input) so the corresponding
  // product edge renders red instead of black.
  std::set<std::pair<std::string, std::string>> mismatched;
  for (const Divergence& d : divergences) {
    if (d.kind == DivergenceKind::kOutputMismatch) {
      mismatched.insert({pair_name(d.left_state, d.right_state), d.input});
    }
  }

  std::set<std::string> nodes;
  for (const ProductEdge& e : edges) {
    nodes.insert(e.from);
    nodes.insert(e.to);
  }
  for (const Divergence& d : divergences) {
    if (d.kind == DivergenceKind::kMissingLeft || d.kind == DivergenceKind::kMissingRight) {
      nodes.insert(pair_name(d.left_state, d.right_state));
    }
  }
  for (const std::string& node : nodes) {
    out += "  \"" + node + "\";\n";
  }
  for (const ProductEdge& e : edges) {
    const bool red = mismatched.count({e.from, e.input}) > 0;
    out += "  \"" + e.from + "\" -> \"" + e.to + "\" [label=\"" + e.input + "\"" +
           (red ? ", color=red, fontcolor=red" : "") + "];\n";
  }
  std::size_t stub = 0;
  for (const Divergence& d : divergences) {
    if (d.kind == DivergenceKind::kMissingLeft || d.kind == DivergenceKind::kMissingRight) {
      const std::string stub_name = "__missing_" + std::to_string(++stub);
      const char* which = d.kind == DivergenceKind::kMissingLeft ? "left" : "right";
      out += "  \"" + stub_name + "\" [label=\"no " + which +
             " transition\", color=red, fontcolor=red, style=dashed];\n";
      out += "  \"" + pair_name(d.left_state, d.right_state) + "\" -> \"" + stub_name +
             "\" [label=\"" + d.input + "\", color=red, fontcolor=red, style=dashed];\n";
    } else if (d.kind == DivergenceKind::kExtraStateLeft ||
               d.kind == DivergenceKind::kExtraStateRight) {
      const char* which = d.kind == DivergenceKind::kExtraStateLeft ? "left" : "right";
      out += "  \"" + std::string(which) + " extra: " + d.input +
             "\" [color=red, fontcolor=red];\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace procheck::diff
