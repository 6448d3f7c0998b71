#include "mc/checker.h"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <stdexcept>

namespace procheck::mc {

namespace {

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

template <typename T>
std::size_t capacity_bytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

/// "No state": an unset slot, an undiscovered state, or a rejected target.
constexpr std::uint32_t kNoId = ReachGraph::kMissing;

}  // namespace

/// A state packed into one 64-bit key (DESIGN.md §10): each variable owns
/// ⌈log2 domain⌉ bits at a fixed shift, in declaration order from bit 0, so
/// a key hashes and compares as one word. A one-value variable owns no bits
/// (its field reads 0). Valid only for a model require_closed_domains
/// accepts: every state value then fits its field.
class KeyLayout {
 public:
  /// Refuses (std::length_error) a model whose fields need more than 64 bits.
  explicit KeyLayout(const Model& model) {
    unsigned used = 0;
    for (std::size_t v = 0; v < model.var_count(); ++v) {
      const int bits = std::bit_width(static_cast<std::uint32_t>(model.domain(v) - 1));
      fields_.push_back({bits == 0 ? 0u : used, (std::uint64_t{1} << bits) - 1});
      used += static_cast<unsigned>(bits);
      if (used > 64) throw std::length_error("reachable graph: a state needs more than 64 bits");
    }
  }

  unsigned shift(int var) const { return fields_[var].shift; }
  /// The field's value mask, unshifted: 2^bits - 1.
  std::uint64_t mask(int var) const { return fields_[var].mask; }
  /// The key bits that hold `var`.
  std::uint64_t bits(int var) const { return mask(var) << shift(var); }

  std::uint64_t pack(const State& s) const {
    std::uint64_t key = 0;
    for (std::size_t v = 0; v < fields_.size(); ++v) {
      key |= static_cast<std::uint64_t>(s[v]) << fields_[v].shift;
    }
    return key;
  }

  void unpack(std::uint64_t key, State& out) const {
    out.resize(fields_.size());
    for (std::size_t v = 0; v < fields_.size(); ++v) {
      out[v] = static_cast<std::int32_t>((key >> fields_[v].shift) & fields_[v].mask);
    }
  }

 private:
  struct Field {
    unsigned shift;
    std::uint64_t mask;
  };
  std::vector<Field> fields_;  // per variable
};

namespace {

/// One command's updates compiled onto keys: clear every field it writes,
/// set the constants, then OR in the copies, each a field of the pre-state.
/// Only a variable's last write is kept, so this is Assign's semantics: all
/// copies read the pre-state, and the later of two writes wins.
class KeyUpdate {
 public:
  KeyUpdate(const Command& cmd, const KeyLayout& layout) {
    std::vector<int> written;
    for (auto a = cmd.updates.rbegin(); a != cmd.updates.rend(); ++a) {
      if (std::find(written.begin(), written.end(), a->var) != written.end()) continue;
      written.push_back(a->var);
      keep_ &= ~layout.bits(a->var);
      if (a->src >= 0) {
        copies_.push_back({layout.mask(a->src), layout.shift(a->src), layout.shift(a->var)});
      } else {
        set_ |= static_cast<std::uint64_t>(a->value) << layout.shift(a->var);
      }
    }
  }

  std::uint64_t operator()(std::uint64_t pre) const {
    std::uint64_t next = (pre & keep_) | set_;
    for (const Copy& c : copies_) next |= ((pre >> c.from) & c.mask) << c.to;
    return next;
  }

  std::size_t bytes() const { return sizeof(*this) + capacity_bytes(copies_); }

 private:
  struct Copy {
    std::uint64_t mask;  // the source field's, unshifted
    unsigned from, to;   // source and destination shifts
  };
  std::uint64_t keep_ = ~std::uint64_t{0};  // bits no write touches
  std::uint64_t set_ = 0;                   // the constant writes
  std::vector<Copy> copies_;
};

/// The graph build's visited set: open addressing over (key, id) slots,
/// linear probing, growth at 0.7 load, so a probe reads one slot and
/// compares one word. The keys themselves are kept in id order, which is
/// discovery (BFS) order: the list is both the FIFO frontier and the
/// graph's state store.
class KeyTable {
 public:
  KeyTable() : slots_(256) {}

  std::size_t size() const { return keys_.size(); }
  std::uint64_t key(std::uint32_t id) const { return keys_[id]; }

  /// Bytes retained by the key list and the slots.
  std::size_t bytes() const { return capacity_bytes(keys_) + capacity_bytes(slots_); }

  /// Interns `key`: returns the id of an existing state, appends a new one
  /// under `cap` and returns its fresh id, or returns kNoId for a new state
  /// at the cap without inserting it.
  std::uint32_t intern(std::uint64_t key, std::size_t cap) {
    std::size_t slot = mix(key) & mask();
    for (; slots_[slot].id != kNoId; slot = (slot + 1) & mask()) {
      if (slots_[slot].key == key) return slots_[slot].id;
    }
    if (keys_.size() >= cap) return kNoId;
    const auto id = static_cast<std::uint32_t>(keys_.size());
    keys_.push_back(key);
    slots_[slot] = {key, id};
    if (keys_.size() * 10 >= slots_.size() * 7) grow();
    return id;
  }

  /// Hands the keys over, in id order, and frees the slots (the set is
  /// spent), so that memory is free again for the graph's trimmed arrays.
  std::vector<std::uint64_t> release_keys() {
    std::vector<Slot>().swap(slots_);
    return std::move(keys_);
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint32_t id = kNoId;  // kNoId: empty
  };

  /// The MurmurHash3 finalizer: spreads every key bit over the slot index.
  static std::uint64_t mix(std::uint64_t k) {
    k ^= k >> 33;
    k *= 0xFF51AFD7ED558CCDull;
    k ^= k >> 33;
    k *= 0xC4CEB9FE1A85EC53ull;
    k ^= k >> 33;
    return k;
  }

  std::size_t mask() const { return slots_.size() - 1; }

  void grow() {
    std::vector<Slot> fresh(slots_.size() * 2);
    const std::size_t mask = fresh.size() - 1;
    for (std::uint32_t id = 0; id < keys_.size(); ++id) {
      std::size_t slot = mix(keys_[id]) & mask;
      while (fresh[slot].id != kNoId) slot = (slot + 1) & mask;
      fresh[slot] = {keys_[id], id};
    }
    slots_ = std::move(fresh);
  }

  std::vector<std::uint64_t> keys_;  // by id
  std::vector<Slot> slots_;          // size a power of two
};

/// Refuses (std::invalid_argument) a model whose states could leave their
/// declared domains — an initial value, a constant assignment, or a copy
/// from a wider variable — or that names a missing variable. Every state
/// the build reaches then holds in-domain values, which is what lets a key
/// field hold each value and the guard table index its rows by them.
void require_closed_domains(const Model& model) {
  const int vars = static_cast<int>(model.var_count());
  auto known = [&](int var) { return var >= 0 && var < vars; };
  auto in_domain = [&](int var, std::int32_t value) {
    return value >= 0 && value < model.domain(var);
  };
  const State init = model.initial();
  for (int v = 0; v < vars; ++v) {
    if (!in_domain(v, init[v])) {
      throw std::invalid_argument("model: initial value of " + model.var_name(v) +
                                  " is outside its domain");
    }
  }
  std::vector<int> reads;
  for (const Command& cmd : model.commands()) {
    reads.clear();
    cmd.guard.collect_vars(reads);
    if (!std::all_of(reads.begin(), reads.end(), known)) {
      throw std::invalid_argument("model: guard of " + cmd.label + " reads a missing variable");
    }
    for (const Assign& a : cmd.updates) {
      const bool fits =
          known(a.var) && (a.src >= 0 ? known(a.src) && model.domain(a.src) <= model.domain(a.var)
                                      : in_domain(a.var, a.value));
      if (!fits) {
        throw std::invalid_argument("model: " + cmd.label +
                                    " can write a value outside a variable's domain");
      }
    }
  }
}

/// The model's guards, compiled once per build (DESIGN.md §10). Each guard
/// splits into its top-level conjuncts: one reading a single variable is
/// tabulated over that variable's domain as a mask of the commands it
/// allows at each value, a constant one folds into the base mask, and only
/// a conjunct reading two or more variables stays an Expr, evaluated for
/// the commands the masks leave enabled. A state's enabled set is then the
/// base mask ANDed with one row per tabulated variable, each picked by a
/// field of the state's key.
class GuardTable {
 public:
  /// `model` must pass require_closed_domains, and `layout` must be its own.
  GuardTable(const Model& model, const KeyLayout& layout)
      : layout_(layout), words_((model.commands().size() + 63) / 64), base_(words_, 0) {
    const std::vector<Command>& commands = model.commands();
    for (std::size_t j = 0; j < commands.size(); ++j) base_[j >> 6] |= 1ull << (j & 63);
    std::vector<std::size_t> row_of(model.var_count(), kNoRow);
    State probe(model.var_count(), 0);
    std::vector<const Expr*> conjuncts;
    std::vector<int> reads;
    for (std::size_t j = 0; j < commands.size(); ++j) {
      const std::uint64_t bit = 1ull << (j & 63);
      conjuncts.clear();
      commands[j].guard.conjuncts(conjuncts);
      for (const Expr* c : conjuncts) {
        reads.clear();
        c->collect_vars(reads);
        std::sort(reads.begin(), reads.end());
        reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
        if (reads.empty()) {
          if (!c->eval(probe)) base_[j >> 6] &= ~bit;
        } else if (reads.size() == 1) {
          const int v = reads[0];
          if (row_of[v] == kNoRow) {
            row_of[v] = rows_.size();
            rows_.resize(rows_.size() + std::size_t(model.domain(v)) * words_, ~0ull);
            tabulated_.push_back({layout.shift(v), layout.mask(v), row_of[v]});
          }
          for (std::int32_t x = 0; x < model.domain(v); ++x) {
            probe[v] = x;
            if (!c->eval(probe)) rows_[row_of[v] + std::size_t(x) * words_ + (j >> 6)] &= ~bit;
          }
          probe[v] = 0;
        } else {
          residual_.push_back({j, c});
        }
      }
    }
  }

  /// Bytes held by the masks and the residual list.
  std::size_t bytes() const {
    return capacity_bytes(base_) + capacity_bytes(tabulated_) + capacity_bytes(rows_) +
           capacity_bytes(residual_);
  }

  /// Writes the enabled-command mask of the state `key` into `out`, one bit
  /// per command. `scratch` receives the unpacked state, but only when a
  /// residual conjunct's command is still enabled.
  void enabled(std::uint64_t key, std::vector<std::uint64_t>& out, State& scratch) const {
    out = base_;
    for (const Tabulated& t : tabulated_) {
      const std::uint64_t* row = rows_.data() + t.rows + ((key >> t.shift) & t.mask) * words_;
      for (std::size_t w = 0; w < words_; ++w) out[w] &= row[w];
    }
    bool unpacked = false;
    for (const auto& [j, conjunct] : residual_) {
      std::uint64_t& word = out[j >> 6];
      const std::uint64_t bit = 1ull << (j & 63);
      if ((word & bit) == 0) continue;
      if (!unpacked) {
        layout_.unpack(key, scratch);
        unpacked = true;
      }
      if (!conjunct->eval(scratch)) word &= ~bit;
    }
  }

 private:
  static constexpr std::size_t kNoRow = ~std::size_t(0);
  struct Tabulated {
    unsigned shift;      // the variable's field in a key
    std::uint64_t mask;
    std::size_t rows;    // offset of value 0's row in rows_
  };

  const KeyLayout& layout_;
  std::size_t words_;
  std::vector<std::uint64_t> base_;  // commands no constant conjunct disables
  std::vector<Tabulated> tabulated_;
  std::vector<std::uint64_t> rows_;  // per tabulated (var, value): words_ words
  std::vector<std::pair<std::size_t, const Expr*>> residual_;  // (command, conjunct)
};

/// Iterates the set bits of an enabled-command mask: fn(command_index).
template <typename Fn>
void for_enabled(const std::vector<std::uint64_t>& bits, std::size_t n_commands, Fn&& fn) {
  for (std::size_t block = 0; block < bits.size(); ++block) {
    std::uint64_t word = bits[block];
    while (word != 0) {
      std::size_t j = block * 64 + static_cast<std::size_t>(__builtin_ctzll(word));
      word &= word - 1;
      if (j >= n_commands) return;
      fn(j);
    }
  }
}

}  // namespace

std::string CounterExample::render(const Model& model) const {
  std::string out;
  out.reserve(steps.size() * 128 + 64);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (loop_start >= 0 && static_cast<int>(i) == loop_start) {
      out += "  -- loop starts here --\n";
    }
    out += "  ";
    out += std::to_string(i + 1);
    out += ". ";
    out += steps[i].label;
    out += "\n       ";
    out += model.render_state(steps[i].post);
    out += "\n";
  }
  if (loop_start >= 0) out += "  -- loop repeats forever --\n";
  return out;
}

std::string CounterExample::to_dot(const Model& model) const {
  std::string out;
  out.reserve(steps.size() * 192 + 128);
  out += "digraph counterexample {\n  rankdir=TB;\n  node [shape=box];\n";
  out += "  s0 [label=\"";
  out += model.render_state(model.initial());
  out += "\", fontsize=9];\n";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    out += "  s";
    out += std::to_string(i + 1);
    out += " [label=\"";
    out += model.render_state(steps[i].post);
    out += "\", fontsize=9];\n";
    bool adversarial = steps[i].meta.actor == CommandMeta::Actor::kAdversary;
    out += "  s";
    out += std::to_string(i);
    out += " -> s";
    out += std::to_string(i + 1);
    out += " [label=\"";
    out += steps[i].label;
    out += "\"";
    if (adversarial) out += ", color=red, fontcolor=red";
    out += "];\n";
  }
  if (loop_start >= 0 && !steps.empty()) {
    out += "  s";
    out += std::to_string(steps.size());
    out += " -> s";
    out += std::to_string(loop_start);
    out += " [style=dashed, label=\"loop\"];\n";
  }
  out += "}\n";
  return out;
}

// --- The reachable graph ----------------------------------------------------

namespace {

/// The per-dequeue budget poll shared by the build and every traversal:
/// true when the search must stop, with the reason recorded in `stats`.
bool budget_exhausted(const CheckOptions& options, const Timer& timer, std::size_t bytes,
                      CheckStats& stats) {
  if (options.max_seconds > 0 && timer.seconds() > options.max_seconds) {
    stats.deadline_hit = true;
    return true;
  }
  if (options.max_visited_bytes > 0 && bytes > options.max_visited_bytes) {
    stats.mem_hit = true;
    return true;
  }
  return false;
}

/// A traversal reached a state whose out-edges the build never stored: it
/// stopped for the same reason the build did.
void inherit_stop(const CheckStats& build, CheckStats& stats) {
  stats.deadline_hit = stats.deadline_hit || build.deadline_hit;
  stats.mem_hit = stats.mem_hit || build.mem_hit;
}

/// The CEGAR ban table, or null when nothing is banned. Traversals index it
/// by command, so a table of the wrong size is refused, not read past.
const std::uint8_t* banned_table(const ReachGraph& g, const CheckOptions& options) {
  if (options.banned.empty()) return nullptr;
  if (options.banned.size() != g.model().commands().size()) {
    throw std::invalid_argument("CheckOptions::banned needs one entry per command");
  }
  return options.banned.data();
}

/// An EdgeMatch compiled against a graph's key layout: the command table,
/// then every pre-state equality folded into one masked compare of the
/// key, which is read only when the table admits the edge's command.
class KeyMatch {
 public:
  /// Likewise refuses a match that does not fit the model: one table entry
  /// per command, and equalities only on variables the model has, with
  /// values inside their domains (an out-of-domain value would spill into
  /// a neighbouring field of the compare).
  KeyMatch(const Model& model, const KeyLayout& layout, const EdgeMatch& match)
      : commands_(match.commands.data()) {
    bool fits = match.commands.size() == model.commands().size();
    for (const auto& [var, value] : match.pre_equals) {
      fits = fits && var >= 0 && static_cast<std::size_t>(var) < model.var_count() &&
             value >= 0 && value < model.domain(var);
      if (!fits) break;
      const std::uint64_t field = static_cast<std::uint64_t>(value) << layout.shift(var);
      // Two different values for one variable: no key matches.
      never_ = never_ || (mask_ & layout.bits(var) & (value_ ^ field)) != 0;
      mask_ |= layout.bits(var);
      value_ |= field;
    }
    if (!fits) throw std::invalid_argument("EdgeMatch does not fit the graph's model");
  }

  /// Whether the table admits `command`; no command when the equalities
  /// contradict each other.
  bool admits(std::size_t command) const { return commands_[command] != 0 && !never_; }
  /// Whether the equalities constrain any key bit.
  bool keyed() const { return mask_ != 0; }
  bool key_matches(std::uint64_t key) const { return (key & mask_) == value_; }

  bool operator()(const std::uint64_t* keys, std::uint32_t id, std::size_t command) const {
    return admits(command) && key_matches(keys[id]);
  }

 private:
  const std::uint8_t* commands_;
  std::uint64_t mask_ = 0;  // the key bits the equalities constrain
  std::uint64_t value_ = 0;
  bool never_ = false;
};

/// Breadth-first traversal of the graph's allowed edges: FIFO over states,
/// each state's edges in command order — the order the build discovered
/// them, so parents and the first bad edge are the ones a breadth-first
/// search of the model itself finds, and traces stay the same whichever
/// properties share the graph. It discovers only states the graph holds, so
/// the build's state cap is its only one. `bad_edge(id, edge)` says what
/// violates. The deadline runs from `timer`'s start, by default the call.
template <typename BadEdge>
std::optional<CounterExample> bfs(const ReachGraph& g, const CheckOptions& options,
                                  CheckStats* out, BadEdge&& bad_edge,
                                  const Timer& timer = Timer()) {
  CheckStats stats;
  const std::vector<Command>& commands = g.model().commands();
  const std::uint8_t* banned = banned_table(g, options);
  std::vector<std::uint32_t> parent(g.states(), kNoId);  // the root is its own parent
  std::vector<std::uint16_t> via(g.states());              // discovering command
  std::vector<std::uint32_t> queue;                        // discovery order
  queue.reserve(g.states());

  auto trace_to = [&](std::uint32_t node) {
    std::vector<TraceStep> rev;
    for (std::uint32_t at = node; at != 0; at = parent[at]) {
      const Command& cmd = commands[via[at]];
      rev.push_back({cmd.label, cmd.meta, g.state(at)});
    }
    CounterExample cex;
    cex.steps.assign(std::make_move_iterator(rev.rbegin()), std::make_move_iterator(rev.rend()));
    return cex;
  };
  auto bytes = [&] { return capacity_bytes(parent) + capacity_bytes(via) + capacity_bytes(queue); };
  auto finish = [&](std::optional<CounterExample> cex) {
    stats.states_explored = queue.size();
    stats.visited_bytes = bytes();
    stats.seconds = timer.seconds();
    if (out) *out = stats;
    return cex;
  };

  parent[0] = 0;
  queue.push_back(0);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    if (budget_exhausted(options, timer, bytes(), stats)) break;
    const std::uint32_t at = queue[head];
    if (at >= g.expanded()) {
      inherit_stop(g.stats(), stats);
      continue;
    }
    for (std::size_t e = g.edge_begin(at); e < g.edge_end(at); ++e) {
      const std::size_t j = g.command(e);
      if (banned && banned[j]) continue;
      ++stats.edges_explored;
      if (bad_edge(at, e)) {
        CounterExample cex = trace_to(at);
        cex.steps.push_back({commands[j].label, commands[j].meta, g.post(at, e)});
        return finish(std::move(cex));
      }
      const std::uint32_t to = g.target(e);
      if (to == ReachGraph::kMissing) {
        stats.bound_hit = true;
        continue;
      }
      if (parent[to] != kNoId) continue;
      parent[to] = at;
      via[to] = static_cast<std::uint16_t>(j);
      queue.push_back(to);
    }
  }
  return finish(std::nullopt);
}

// Liveness: product construction with a one-bit monitor: pending :=
// (pending ∨ trigger(edge)) ∧ ¬response(edge). A violation of G(trigger → F
// response) is a reachable cycle lying entirely inside pending=true nodes
// (any response inside the cycle would clear the bit). Deadlocked model
// states stutter, so a dead end with a pending obligation is also a
// violation.
//
// The product is a BFS over (state, pending) nodes that advances only as
// far as the cycle search reads: before the DFS reads a node's pending
// edges, the BFS expands every node up to that one, and the root loop
// expands until its next root exists. Ids are discovery order either way,
// so nodes, parents, DFS order and traces are those of building the whole
// product first (tests/graph_oracle.h keeps that search as the reference).
// A cycle found early leaves the rest of the product unbuilt; a property
// that holds expands all of it. A budget stop ends the search with no
// verdict, so a lasso is reported only when its cycle closed first: the
// one a search without budgets reports.
//
// Product nodes reference graph states by id, and the product index is a
// dense per-state pair of node ids (pending=0/1), so a product holds at most
// two nodes per graph state: the build's state cap is its only one.
// `labels(id, edge)` returns {trigger, response}.
template <typename Labels>
std::optional<CounterExample> lasso(const ReachGraph& g, const CheckOptions& options,
                                    CheckStats* out, Labels&& labels) {
  Timer timer;
  CheckStats stats;
  constexpr std::int32_t kStutter = -1;
  const std::vector<Command>& commands = g.model().commands();
  const std::uint8_t* banned = banned_table(g, options);
  auto allowed = [&](std::size_t edge) { return !(banned && banned[g.command(edge)]); };

  // Product nodes in discovery order, which is also the order the BFS
  // expands them.
  std::vector<std::uint32_t> node_state;
  std::vector<std::uint8_t> node_pending;
  std::vector<std::uint32_t> node_parent;
  std::vector<std::int32_t> node_via;  // command index; -1 for the root
  std::vector<std::uint8_t> color;     // 0 white, 1 grey (on the DFS stack), 2 black
  std::vector<std::array<std::uint32_t, 2>> node_of(g.states(), {kNoId, kNoId});
  std::uint32_t expanded = 0;  // nodes [0, expanded) have their edges

  auto edge_label = [&](std::int32_t cmd) -> std::string {
    return cmd == kStutter ? "(stutter)" : commands[cmd].label;
  };
  auto edge_meta = [&](std::int32_t cmd) -> CommandMeta {
    return cmd == kStutter ? CommandMeta{} : commands[cmd].meta;
  };
  auto bytes = [&] {
    return capacity_bytes(node_state) + capacity_bytes(node_pending) +
           capacity_bytes(node_parent) + capacity_bytes(node_via) + capacity_bytes(color) +
           capacity_bytes(node_of);
  };
  auto finish = [&](std::optional<CounterExample> cex) {
    stats.states_explored = node_state.size();
    stats.visited_bytes = bytes();
    stats.seconds = timer.seconds();
    if (out) *out = stats;
    return cex;
  };

  // Adds/returns the product node for (state, pending); kNoId when the
  // graph lacks the state.
  auto add_node = [&](std::uint32_t state, bool pending, std::uint32_t parent,
                      std::int32_t via) -> std::uint32_t {
    if (state == ReachGraph::kMissing) {
      stats.bound_hit = true;
      return kNoId;
    }
    std::uint32_t& slot = node_of[state][pending ? 1 : 0];
    if (slot != kNoId) return slot;
    slot = static_cast<std::uint32_t>(node_state.size());
    node_state.push_back(state);
    node_pending.push_back(pending ? 1 : 0);
    node_parent.push_back(parent);
    node_via.push_back(via);
    color.push_back(0);
    return slot;
  };

  // Expands the next node in BFS order; false once every node is expanded
  // or a budget stops the search. Polls the budgets once per node.
  auto advance = [&] {
    if (expanded == node_state.size() || budget_exhausted(options, timer, bytes(), stats)) {
      return false;
    }
    const std::uint32_t at = expanded++;
    const std::uint32_t state = node_state[at];
    const bool pending = node_pending[at] != 0;
    if (state >= g.expanded()) {
      inherit_stop(g.stats(), stats);
      return true;
    }
    for (std::size_t e = g.edge_begin(state); e < g.edge_end(state); ++e) {
      if (!allowed(e)) continue;
      ++stats.edges_explored;
      const auto [trig, resp] = labels(state, e);
      const auto j = static_cast<std::int32_t>(g.command(e));
      add_node(g.target(e), (pending || trig) && !resp, at, j);
    }
    return true;
  };

  // Cycle detection restricted to pending=true nodes (iterative DFS). A
  // frame reads its node's graph edges [next_edge, end_edge) in order.
  struct Frame {
    std::uint32_t node;
    std::size_t next_edge, end_edge;
    std::int32_t via_cmd;  // edge used to reach this node
  };
  std::vector<Frame> stack;
  // Expands through `node` and pushes its frame; false when a budget stops
  // the search first. A state the graph's build never expanded has no edges.
  auto push = [&](std::uint32_t node, std::int32_t via) {
    while (expanded <= node) {
      if (!advance()) return false;
    }
    color[node] = 1;
    const std::uint32_t state = node_state[node];
    const bool read = state < g.expanded();
    stack.push_back({node, read ? g.edge_begin(state) : 0, read ? g.edge_end(state) : 0, via});
    return true;
  };
  // The next pending edge out of the top frame's node, as (target node,
  // command index or kStutter); kNoId once none is left. A pending node's
  // pending edges are its allowed edges that do not answer the trigger,
  // each to the target's pending node, which expanding the node created
  // unless the graph lacks the target. An expanded dead end (no allowed
  // edge) has one: the stutter self-loop.
  auto next_pending = [&](Frame& f) -> std::pair<std::uint32_t, std::int32_t> {
    const std::uint32_t state = node_state[f.node];
    while (f.next_edge < f.end_edge) {
      const std::size_t e = f.next_edge++;
      if (!allowed(e) || labels(state, e).second) continue;
      const std::uint32_t target = g.target(e);
      const std::uint32_t to = target == ReachGraph::kMissing ? kNoId : node_of[target][1];
      if (to != kNoId) return {to, static_cast<std::int32_t>(g.command(e))};
    }
    if (state < g.expanded()) {
      bool dead_end = true;
      for (std::size_t e = g.edge_begin(state); dead_end && e < g.edge_end(state); ++e) {
        dead_end = !allowed(e);
      }
      if (dead_end) return {f.node, kStutter};
    }
    return {kNoId, kStutter};
  };

  add_node(0, false, kNoId, -1);
  for (std::uint32_t root = 0;; ++root) {
    while (root >= node_state.size() && advance()) {
    }
    if (root >= node_state.size()) break;
    if (!node_pending[root] || color[root] != 0) continue;
    if (budget_exhausted(options, timer, 0, stats) || !push(root, kStutter)) break;
    while (!stack.empty()) {
      Frame& f = stack.back();
      const auto [to, via] = next_pending(f);
      if (to == kNoId) {
        color[f.node] = 2;
        stack.pop_back();
        continue;
      }
      if (color[to] == 1) {
        // Found a cycle. Prefix: initial -> `to` via BFS parents.
        CounterExample cex;
        std::vector<TraceStep> rev;
        for (std::uint32_t n = to; node_via[n] >= 0; n = node_parent[n]) {
          const Command& cmd = commands[node_via[n]];
          rev.push_back({cmd.label, cmd.meta, g.state(node_state[n])});
        }
        cex.steps.assign(std::make_move_iterator(rev.rbegin()),
                         std::make_move_iterator(rev.rend()));
        cex.loop_start = static_cast<int>(cex.steps.size());
        // Loop body: the DFS stack segment from `to` to the top, then back.
        std::size_t start = 0;
        for (std::size_t i = 0; i < stack.size(); ++i) {
          if (stack[i].node == to) start = i;
        }
        for (std::size_t i = start + 1; i < stack.size(); ++i) {
          cex.steps.push_back({edge_label(stack[i].via_cmd), edge_meta(stack[i].via_cmd),
                               g.state(node_state[stack[i].node])});
        }
        cex.steps.push_back({edge_label(via), edge_meta(via), g.state(node_state[to])});
        return finish(std::move(cex));
      }
      if (color[to] == 0 && !push(to, via)) return finish(std::nullopt);
    }
  }
  return finish(std::nullopt);
}

}  // namespace

ReachGraph ReachGraph::build(const Model& model, const CheckOptions& options) {
  Timer timer;
  const std::vector<Command>& commands = model.commands();
  if (commands.size() > 0x10000) {
    throw std::length_error("reachable graph: more than 65536 commands");
  }
  require_closed_domains(model);
  ReachGraph g;
  g.model_ = &model;
  g.layout_ = std::make_shared<const KeyLayout>(model);
  const KeyLayout& layout = *g.layout_;
  const GuardTable guards(model, layout);
  std::vector<KeyUpdate> updates;
  g.fired_.assign(commands.size(), 0);
  std::size_t fixed_bytes = guards.bytes() + capacity_bytes(g.fired_);
  for (const Command& cmd : commands) {
    updates.emplace_back(cmd, layout);
    fixed_bytes += updates.back().bytes();
  }
  KeyTable table;
  table.intern(layout.pack(model.initial()), std::max<std::size_t>(1, options.max_states));
  g.offsets_.push_back(0);

  auto bytes = [&] {
    return fixed_bytes + table.bytes() + capacity_bytes(g.offsets_) + capacity_bytes(g.targets_) +
           capacity_bytes(g.commands_);
  };
  State scratch;
  std::vector<std::uint64_t> enabled;
  // Discovery order is BFS order, so the key list itself is the FIFO frontier.
  for (std::uint32_t at = 0; at < table.size(); ++at) {
    if (budget_exhausted(options, timer, bytes(), g.stats_)) break;
    const std::uint64_t pre = table.key(at);
    guards.enabled(pre, enabled, scratch);
    for_enabled(enabled, commands.size(), [&](std::size_t j) {
      const std::uint32_t id = table.intern(updates[j](pre), options.max_states);
      if (id == kMissing) g.stats_.bound_hit = true;
      g.targets_.push_back(id);
      g.commands_.push_back(static_cast<std::uint16_t>(j));
      g.fired_[j] = 1;
    });
    if (g.targets_.size() > 0xFFFFFFFFu) {
      throw std::length_error("reachable graph: more than 2^32 edges");
    }
    g.offsets_.push_back(static_cast<std::uint32_t>(g.targets_.size()));
  }

  // Keep exactly what traversals read: release_keys frees the slots, and
  // the guard table and compiled updates go with `guards` and `updates`.
  g.stats_.states_explored = table.size();
  g.keys_ = table.release_keys();
  g.keys_.shrink_to_fit();
  g.offsets_.shrink_to_fit();
  g.targets_.shrink_to_fit();
  g.commands_.shrink_to_fit();
  g.stats_.edges_explored = g.targets_.size();
  g.stats_.visited_bytes = capacity_bytes(g.keys_) + capacity_bytes(g.offsets_) +
                           capacity_bytes(g.targets_) + capacity_bytes(g.commands_) +
                           capacity_bytes(g.fired_);
  g.stats_.seconds = timer.seconds();
  return g;
}

State ReachGraph::state(std::uint32_t id) const {
  State out;
  layout_->unpack(keys_[id], out);
  return out;
}

State ReachGraph::post(std::uint32_t id, std::size_t edge) const {
  if (targets_[edge] != kMissing) return state(targets_[edge]);
  const KeyUpdate update(model_->commands()[commands_[edge]], *layout_);
  State out;
  layout_->unpack(update(keys_[id]), out);
  return out;
}

std::optional<CounterExample> ReachGraph::check_edge_never(const EdgeMatch& bad,
                                                           CheckStats* stats,
                                                           const CheckOptions& options) const {
  const KeyMatch match(*model_, *layout_, bad);
  const std::uint8_t* banned = banned_table(*this, options);
  auto allowed = [&](std::size_t j) { return !(banned && banned[j]); };
  // Whether any allowed edge of the graph matches, reachable or not: the
  // command table answers unless the match reads the pre-state, and then
  // one scan of the stored edges does.
  auto can_match = [&] {
    bool candidate = false;
    for (std::size_t j = 0; j < fired_.size() && !candidate; ++j) {
      candidate = fired_[j] != 0 && match.admits(j) && allowed(j);
    }
    if (!candidate || !match.keyed()) return candidate;
    for (std::uint32_t id = 0; id < expanded(); ++id) {
      if (!match.key_matches(keys_[id])) continue;
      for (std::size_t e = edge_begin(id); e < edge_end(id); ++e) {
        if (match.admits(commands_[e]) && allowed(commands_[e])) return true;
      }
    }
    return false;
  };

  // A complete graph where no allowed edge can match settles the claim
  // without a walk (DESIGN.md §10). Like the walk, it first polls the
  // deadline; it holds no bytes.
  Timer timer;
  if (!stats_.truncated()) {
    CheckStats settled;
    if (budget_exhausted(options, timer, 0, settled) || !can_match()) {
      settled.seconds = timer.seconds();
      if (stats) *stats = settled;
      return std::nullopt;
    }
  }
  auto bad_edge = [&](std::uint32_t id, std::size_t edge) {
    return match(keys_.data(), id, command(edge));
  };
  return bfs(*this, options, stats, bad_edge, timer);
}

std::optional<CounterExample> ReachGraph::check_response(const EdgeMatch& trigger,
                                                         const EdgeMatch& response,
                                                         CheckStats* stats,
                                                         const CheckOptions& options) const {
  const KeyMatch triggers(*model_, *layout_, trigger);
  const KeyMatch responds(*model_, *layout_, response);
  return lasso(*this, options, stats, [&](std::uint32_t id, std::size_t edge) {
    const std::size_t j = command(edge);
    return std::pair<bool, bool>(triggers(keys_.data(), id, j), responds(keys_.data(), id, j));
  });
}

std::optional<CounterExample> Checker::check_edge_never(const EdgePred& bad, CheckStats* stats,
                                                        const CheckOptions& options) const {
  const ReachGraph g = ReachGraph::build(model_, options);
  std::uint32_t pre_id = kNoId;
  State pre;
  CheckStats own;
  std::optional<CounterExample> cex = bfs(g, options, &own, [&](std::uint32_t id, std::size_t e) {
    if (id != pre_id) {  // a state's edges are tested in a row: unpack it once
      pre = g.state(id);
      pre_id = id;
    }
    return bad(pre, model_.commands()[g.command(e)], g.post(id, e));
  });
  own.seconds += g.stats().seconds;
  own.visited_bytes += g.stats().visited_bytes;
  if (stats) *stats = own;
  return cex;
}

}  // namespace procheck::mc
