// Model-checker kernel tests: expression evaluation, guarded-command
// successors, and the two property shapes of the catalog as traversals of
// the reachable graph — edge never-claims with trace extraction and
// response liveness (lasso detection, stutter-deadlock semantics, the state
// cap) — plus the graph's layout, state keys and guard table. One case pins
// the one-call mc::Checker against ReachGraph::check_edge_never, and the
// Oracle cases check every traversal on seeded random models against the
// references in graph_oracle.h.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <stdexcept>

#include "common/strings.h"
#include "graph_oracle.h"
#include "mc/checker.h"
#include "mc/model.h"

namespace procheck::mc {
namespace {

// A 3-position token ring: pos cycles 0 -> 1 -> 2 -> 0.
Model ring_model() {
  Model m;
  int pos = m.add_var("pos", 3, 0, {"p0", "p1", "p2"});
  for (std::int32_t i = 0; i < 3; ++i) {
    Command cmd;
    cmd.label = "step" + std::to_string(i);
    cmd.guard = Expr::eq(pos, i);
    cmd.updates = {{pos, (i + 1) % 3}};
    m.add_command(std::move(cmd));
  }
  return m;
}

// A counter that can only grow to its bound and then deadlocks.
Model counter_model(std::int32_t bound) {
  Model m;
  int c = m.add_var("c", bound + 1, 0);
  for (std::int32_t i = 0; i < bound; ++i) {
    Command cmd;
    cmd.label = "inc" + std::to_string(i);
    cmd.guard = Expr::eq(c, i);
    cmd.updates = {{c, i + 1}};
    m.add_command(std::move(cmd));
  }
  return m;
}

// A never-claim or liveness label over every command named `label` (an
// unknown label matches no edge).
EdgeMatch label_match(const Model& m, const std::string& label) {
  EdgeMatch match;
  for (const Command& cmd : m.commands()) match.commands.push_back(cmd.label == label ? 1 : 0);
  return match;
}

// "No command labelled `bad` ever fires", on a graph of `m`.
std::optional<CounterExample> check_never(const Model& m, const std::string& bad,
                                          CheckStats* stats, const CheckOptions& options = {}) {
  return ReachGraph::build(m).check_edge_never(label_match(m, bad), stats, options);
}

// G(trigger → F response) over command labels, on a graph of `m`.
std::optional<CounterExample> check_response(const Model& m, const std::string& trigger,
                                             const std::string& response, CheckStats* stats,
                                             const CheckOptions& options = {}) {
  return ReachGraph::build(m).check_response(label_match(m, trigger), label_match(m, response),
                                             stats, options);
}

// The CEGAR refinement table banning every command with one of `labels`.
std::vector<std::uint8_t> banned_labels(const Model& m, const std::set<std::string>& labels) {
  std::vector<std::uint8_t> banned(m.commands().size(), 0);
  for (const Command& cmd : m.commands()) banned[cmd.index] = labels.count(cmd.label) ? 1 : 0;
  return banned;
}

// --- Expr ---------------------------------------------------------------------

TEST(Expr, Atoms) {
  State s{2, 5};
  EXPECT_TRUE(Expr::eq(0, 2).eval(s));
  EXPECT_FALSE(Expr::eq(0, 3).eval(s));
  EXPECT_TRUE(Expr::eq(1, 5).eval(s));
  EXPECT_FALSE(Expr::eq(1, 2).eval(s));
  EXPECT_TRUE(Expr::constant(true).eval(s));
  EXPECT_FALSE(Expr::constant(false).eval(s));
}

TEST(Expr, Connectives) {
  State s{1};
  Expr yes = Expr::eq(0, 1);
  Expr no = Expr::eq(0, 0);
  EXPECT_TRUE(Expr::land(yes, yes).eval(s));
  EXPECT_FALSE(Expr::land(yes, no).eval(s));
  EXPECT_TRUE(Expr::lor(no, yes).eval(s));
  EXPECT_FALSE(Expr::lor(no, no).eval(s));
  EXPECT_TRUE(Expr::all({yes, yes, yes}).eval(s));
  EXPECT_FALSE(Expr::all({yes, no}).eval(s));
  EXPECT_TRUE(Expr::all({}).eval(s));  // empty conjunction
}

// --- Model --------------------------------------------------------------------

TEST(Model, VariablesAndValueNames) {
  Model m = ring_model();
  EXPECT_EQ(m.var("pos"), 0);
  EXPECT_EQ(m.var("missing"), -1);
  EXPECT_EQ(m.domain(0), 3);
  EXPECT_EQ(m.value_name(0, 1), "p1");
  EXPECT_EQ(m.value_index(0, "p2"), 2);
  EXPECT_EQ(m.value_index(0, "p9"), -1);
  EXPECT_EQ(m.var_count(), 1u);
}

TEST(Model, SuccessorsRespectGuards) {
  Model m = ring_model();
  int count = 0;
  m.successors(m.initial(), [&](const State& next, const Command& cmd) {
    ++count;
    EXPECT_EQ(next[0], 1);
    EXPECT_EQ(cmd.label, "step0");
  });
  EXPECT_EQ(count, 1);
}

TEST(Model, CopyAssignReadsPreState) {
  Model m;
  int a = m.add_var("a", 4, 2);
  int b = m.add_var("b", 4, 0);
  Command cmd;
  cmd.label = "swapish";
  cmd.guard = Expr::constant(true);
  // b := a (pre), a := 0 — order must not matter for the copy source.
  cmd.updates = {{b, 0, a}, {a, 0}};
  m.add_command(std::move(cmd));
  bool saw = false;
  m.successors(m.initial(), [&](const State& next, const Command&) {
    saw = true;
    EXPECT_EQ(next[1], 2);  // copied the pre-state value
    EXPECT_EQ(next[0], 0);
  });
  EXPECT_TRUE(saw);
}

TEST(Model, LaterAssignmentWins) {
  Model m;
  int a = m.add_var("a", 4, 0);
  Command cmd;
  cmd.guard = Expr::constant(true);
  cmd.updates = {{a, 1}, {a, 3}};
  m.add_command(std::move(cmd));
  m.successors(m.initial(), [&](const State& next, const Command&) { EXPECT_EQ(next[0], 3); });
}

TEST(Model, RenderState) {
  Model m = ring_model();
  EXPECT_EQ(m.render_state(m.initial()), "pos=p0");
}

// --- Invariants as never-claims ------------------------------------------------
//
// The catalog states a safety invariant G p as a never-claim on the edges
// that reach a state violating p; BFS makes the trace a shortest one.

TEST(Invariant, HoldsOnRing) {
  Model m = ring_model();
  CheckStats stats;
  // The token never moves out of turn: step0 never fires at pos = p1.
  EdgeMatch out_of_turn = label_match(m, "step0");
  out_of_turn.pre_equals = {{0, 1}};
  auto cex = ReachGraph::build(m).check_edge_never(out_of_turn, &stats);
  EXPECT_FALSE(cex.has_value());
  EXPECT_EQ(stats.states_explored, 3u);
  EXPECT_FALSE(stats.bound_hit);
}

TEST(Invariant, ViolationWithMinimalTrace) {
  Model m = counter_model(5);
  CheckStats stats;
  auto cex = check_never(m, "inc2", &stats);  // c < 3 is violated once inc2 fires
  ASSERT_TRUE(cex.has_value());
  EXPECT_EQ(cex->steps.size(), 3u);  // BFS finds the shortest path
  EXPECT_EQ(cex->steps.back().post[0], 3);
  EXPECT_EQ(cex->loop_start, -1);
}

TEST(Invariant, MaxStatesBoundsExploration) {
  Model m = counter_model(100);
  CheckStats stats;
  CheckOptions options;
  options.max_states = 10;
  auto cex = ReachGraph::build(m, options).check_edge_never(label_match(m, "inc49"), &stats,
                                                            options);
  EXPECT_FALSE(cex.has_value());  // bound hit before the violation
  EXPECT_TRUE(stats.bound_hit);
}

TEST(Invariant, TraceRenders) {
  Model m = counter_model(5);
  CheckStats stats;
  auto cex = check_never(m, "inc1", &stats);
  ASSERT_TRUE(cex.has_value());
  std::string text = cex->render(m);
  EXPECT_TRUE(contains(text, "inc0"));
  EXPECT_TRUE(contains(text, "c="));
}

// --- Edge never-claims -------------------------------------------------------------

TEST(EdgeNever, FindsLabelledEdge) {
  Model m = counter_model(5);
  CheckStats stats;
  auto cex = check_never(m, "inc3", &stats);
  ASSERT_TRUE(cex.has_value());
  EXPECT_EQ(cex->steps.size(), 4u);
  EXPECT_EQ(cex->steps.back().label, "inc3");
}

TEST(EdgeNever, VerifiedWhenEdgeAbsent) {
  Model m = counter_model(5);
  CheckStats stats;
  EXPECT_FALSE(check_never(m, "nope", &stats).has_value());
}

TEST(EdgeNever, AllowedFilterPrunes) {
  // CEGAR refinement semantics: banning the offending command verifies the
  // property.
  Model m = counter_model(5);
  CheckStats stats;
  CheckOptions options;
  options.banned = banned_labels(m, {"inc2"});  // cuts the path at c = 2
  EXPECT_FALSE(check_never(m, "inc3", &stats, options).has_value());
}

TEST(EdgeNever, MetaIsCarriedIntoTrace) {
  Model m;
  int v = m.add_var("v", 2, 0);
  Command cmd;
  cmd.label = "adv";
  cmd.guard = Expr::eq(v, 0);
  cmd.updates = {{v, 1}};
  cmd.meta.actor = CommandMeta::Actor::kAdversary;
  cmd.meta.kind = CommandMeta::Kind::kInject;
  cmd.meta.message = "attach_reject";
  m.add_command(std::move(cmd));
  CheckStats stats;
  auto cex = check_never(m, "adv", &stats);
  ASSERT_TRUE(cex.has_value());
  ASSERT_EQ(cex->steps.size(), 1u);
  EXPECT_EQ(cex->steps[0].meta.actor, CommandMeta::Actor::kAdversary);
  EXPECT_EQ(cex->steps[0].meta.kind, CommandMeta::Kind::kInject);
  EXPECT_EQ(cex->steps[0].meta.message, "attach_reject");
}

// --- Response liveness ----------------------------------------------------------------

// request/response model: req command raises `pending`; resp clears it; a
// `lazy` self-loop lets the system stall forever when enabled.
Model request_model(bool with_lazy_loop) {
  Model m;
  int st = m.add_var("st", 2, 0, {"idle", "waiting"});
  Command req;
  req.label = "request";
  req.guard = Expr::eq(st, 0);
  req.updates = {{st, 1}};
  m.add_command(std::move(req));
  Command resp;
  resp.label = "respond";
  resp.guard = Expr::eq(st, 1);
  resp.updates = {{st, 0}};
  m.add_command(std::move(resp));
  if (with_lazy_loop) {
    Command lazy;
    lazy.label = "lazy";
    lazy.guard = Expr::eq(st, 1);
    lazy.updates = {};
    m.add_command(std::move(lazy));
  }
  return m;
}

TEST(Response, ViolatedByStallingLoop) {
  Model m = request_model(/*with_lazy_loop=*/true);
  CheckStats stats;
  auto cex = check_response(m, "request", "respond", &stats);
  ASSERT_TRUE(cex.has_value());
  EXPECT_GE(cex->loop_start, 0);
  // The loop must not contain the response.
  for (std::size_t i = static_cast<std::size_t>(cex->loop_start); i < cex->steps.size(); ++i) {
    EXPECT_NE(cex->steps[i].label, "respond");
  }
}

TEST(Response, HoldsWithoutStallingLoop) {
  // Note G(req -> F resp) holds here because the only infinite behavior
  // alternates request/respond.
  Model m = request_model(/*with_lazy_loop=*/false);
  CheckStats stats;
  EXPECT_FALSE(check_response(m, "request", "respond", &stats).has_value());
}

TEST(Response, DeadlockWithPendingObligationIsViolation) {
  // After `request` the system deadlocks: the stutter extension makes the
  // unanswered trigger a violation.
  Model m;
  int st = m.add_var("st", 2, 0);
  Command req;
  req.label = "request";
  req.guard = Expr::eq(st, 0);
  req.updates = {{st, 1}};
  m.add_command(std::move(req));  // no command enabled at st = 1
  CheckStats stats;
  auto cex = check_response(m, "request", "respond", &stats);
  ASSERT_TRUE(cex.has_value());
  EXPECT_GE(cex->loop_start, 0);
  EXPECT_EQ(cex->steps.back().label, "(stutter)");
}

TEST(Response, NoTriggerNoViolation) {
  Model m = request_model(/*with_lazy_loop=*/true);
  CheckStats stats;
  EXPECT_FALSE(check_response(m, "never_fires", "respond", &stats).has_value());
}

TEST(Response, TriggerAndResponseOnSameEdgeIsSatisfied) {
  Model m = request_model(/*with_lazy_loop=*/true);
  CheckStats stats;
  // An edge that is both trigger and response discharges itself.
  EXPECT_FALSE(check_response(m, "request", "request", &stats).has_value());
}

TEST(Response, AllowedFilterAppliesToLiveness) {
  Model m = request_model(/*with_lazy_loop=*/true);
  CheckStats stats;
  CheckOptions options;
  options.banned = banned_labels(m, {"lazy"});
  EXPECT_FALSE(check_response(m, "request", "respond", &stats, options).has_value());
}

// --- Interned-state kernel: search equivalence pins -----------------------------
//
// The visited set is an open-addressing table of packed state keys, and
// each state's enabled commands come from the guard table compiled at the
// start of the build. These tests pin the build's exact state and edge
// counts so any rewrite that silently explores a different state space —
// over- or under-approximating — fails loudly.

// Two independent toggles: 4 reachable states, discovered over 8 edges,
// with every non-initial state reachable along two paths (dedup must fire).
Model toggle_model() {
  Model m;
  int a = m.add_var("a", 2, 0);
  int b = m.add_var("b", 2, 0);
  for (std::int32_t v = 0; v < 2; ++v) {
    Command ca;
    ca.label = "a" + std::to_string(v);
    ca.guard = Expr::eq(a, v);
    ca.updates = {{a, 1 - v}};
    m.add_command(std::move(ca));
    Command cb;
    cb.label = "b" + std::to_string(v);
    cb.guard = Expr::eq(b, v);
    cb.updates = {{b, 1 - v}};
    m.add_command(std::move(cb));
  }
  return m;
}

TEST(Kernel, VisitedStateCountsArePinned) {
  const Model ring = ring_model();
  const CheckStats stats = ReachGraph::build(ring).stats();
  EXPECT_FALSE(stats.truncated());
  EXPECT_EQ(stats.states_explored, 3u);
  EXPECT_EQ(stats.edges_explored, 3u);

  const Model toggle = toggle_model();
  const CheckStats toggles = ReachGraph::build(toggle).stats();
  EXPECT_FALSE(toggles.truncated());
  EXPECT_EQ(toggles.states_explored, 4u);  // interning dedups the merged paths
  EXPECT_EQ(toggles.edges_explored, 8u);   // 2 enabled commands per state
}

TEST(Kernel, GuardReadsAndCommandIndicesAreRecorded) {
  Model m = toggle_model();
  EXPECT_EQ(m.commands()[2].index, 2);
  std::vector<int> read;
  Expr::land(Expr::eq(0, 1), Expr::lor(Expr::eq(1, 0), Expr::eq(1, 1))).collect_vars(read);
  EXPECT_EQ(read, (std::vector<int>{0, 1, 1}));  // every read, repeats included
}

TEST(Kernel, SameValueWritesDoNotCreateNewStates) {
  // A command that assigns a variable its current value produces a
  // successor identical to the pre-state, which simply dedups onto its
  // source.
  Model m = ring_model();
  Command noop;
  noop.label = "noop";
  noop.guard = Expr::eq(0, 0);
  noop.updates = {{0, 0}};  // pos := pos (it is 0 whenever enabled)
  m.add_command(std::move(noop));
  const CheckStats stats = ReachGraph::build(m).stats();
  EXPECT_FALSE(stats.truncated());
  EXPECT_EQ(stats.states_explored, 3u);  // noop adds edges, never states
  EXPECT_EQ(stats.edges_explored, 4u);
}

TEST(Kernel, GuardsOnUnchangedVariablesStayEnabled) {
  // `watch` fires only while b stays at its initial value; commands
  // touching `a` must not change whether watch is enabled. If the guard
  // table got it wrong in either direction the reachable set would change:
  // 4 toggle states plus the c=1 variants reached via watch.
  Model m = toggle_model();
  int c = m.add_var("c", 2, 0);
  Command watch;
  watch.label = "watch";
  watch.guard = Expr::land(Expr::eq(1, 0), Expr::eq(c, 0));  // reads b and c only
  watch.updates = {{c, 1}};
  m.add_command(std::move(watch));
  const CheckStats stats = ReachGraph::build(m).stats();
  EXPECT_FALSE(stats.truncated());
  // States: (a,b,c) with c=0: all 4; c=1 reachable only from b=0: (0,0,1),
  // (1,0,1), then b toggles freely: (0,1,1), (1,1,1) -> 8 total.
  EXPECT_EQ(stats.states_explored, 8u);
}

TEST(Kernel, VisitedBytesAreReported) {
  const Model toggle = toggle_model();
  EXPECT_GT(ReachGraph::build(toggle).stats().visited_bytes, 0u);

  CheckStats lasso;
  const Model rm = request_model(/*with_lazy_loop=*/true);
  check_response(rm, "request", "respond", &lasso);
  EXPECT_GT(lasso.visited_bytes, 0u);
}

TEST(Kernel, LivenessProductCountsArePinned) {
  // request_model explores exactly two product nodes: (idle, clear) and
  // (waiting, pending); respond folds back onto the initial node.
  Model m = request_model(/*with_lazy_loop=*/true);
  CheckStats stats;
  auto cex = check_response(m, "request", "respond", &stats);
  ASSERT_TRUE(cex.has_value());
  EXPECT_EQ(stats.states_explored, 2u);
}

// --- The shared reachable graph ------------------------------------------------
//
// Property checks traverse one stored graph instead of re-exploring the
// model, so its layout is what keeps their traces identical to a
// breadth-first search of the model: states in discovery order, each
// state's edges in command order, every enabled command an edge
// (self-loops included).

// (target, command) of every stored out-edge of `id`.
std::vector<std::pair<std::uint32_t, std::size_t>> out_edges(const ReachGraph& g,
                                                             std::uint32_t id) {
  std::vector<std::pair<std::uint32_t, std::size_t>> out;
  for (std::size_t e = g.edge_begin(id); e < g.edge_end(id); ++e) {
    out.emplace_back(g.target(e), g.command(e));
  }
  return out;
}

TEST(ReachGraph, TogglesStoreEdgesInCommandOrder) {
  // Commands: 0 = a0, 1 = b0, 2 = a1, 3 = b1. Discovery: 0 = (0,0),
  // 1 = (1,0), 2 = (0,1), 3 = (1,1).
  Model m = toggle_model();
  ReachGraph g = ReachGraph::build(m);
  EXPECT_FALSE(g.stats().truncated());
  ASSERT_EQ(g.states(), 4u);
  EXPECT_EQ(g.edges(), 8u);
  EXPECT_EQ(g.expanded(), 4u);
  using Edges = std::vector<std::pair<std::uint32_t, std::size_t>>;
  EXPECT_EQ(out_edges(g, 0), (Edges{{1, 0}, {2, 1}}));
  EXPECT_EQ(out_edges(g, 1), (Edges{{3, 1}, {0, 2}}));
  EXPECT_EQ(out_edges(g, 2), (Edges{{3, 0}, {0, 3}}));
  EXPECT_EQ(out_edges(g, 3), (Edges{{2, 2}, {1, 3}}));
  EXPECT_EQ(g.state(3), (State{1, 1}));
  EXPECT_EQ(g.stats().edges_explored, 8u);
  EXPECT_GT(g.stats().visited_bytes, 0u);
}

TEST(ReachGraph, SelfLoopStaysAnEdge) {
  Model m = ring_model();
  Command noop;
  noop.label = "noop";
  noop.guard = Expr::eq(0, 0);
  noop.updates = {{0, 0}};
  m.add_command(std::move(noop));
  ReachGraph g = ReachGraph::build(m);
  EXPECT_EQ(g.states(), 3u);
  EXPECT_EQ(g.edges(), 4u);
  using Edges = std::vector<std::pair<std::uint32_t, std::size_t>>;
  EXPECT_EQ(out_edges(g, 0), (Edges{{1, 0}, {0, 3}}));  // step0, then noop back to itself
}

TEST(ReachGraph, TraversalCapReproducesATruncatedSearch) {
  // A cap k inside the traversal of a complete graph stops exactly where a
  // search of a graph built at k stops. The one-call mc::Checker builds at
  // k, and its predicate sees the edge's pre- and post-states.
  Model m = counter_model(100);
  ReachGraph full = ReachGraph::build(m);
  ASSERT_EQ(full.states(), 101u);
  const Checker one_call_checker(m);
  auto inc_from = [](std::int32_t c) {
    return [c](const State& pre, const Command& cmd, const State& post) {
      return pre[0] == c && post[0] == c + 1 && cmd.label == "inc" + std::to_string(c);
    };
  };
  CheckOptions capped;
  capped.max_states = 10;
  CheckStats on_full;
  EXPECT_FALSE(full.check_edge_never(label_match(m, "inc50"), &on_full, capped).has_value());
  CheckStats one_call;
  EXPECT_FALSE(one_call_checker.check_edge_never(inc_from(50), &one_call, capped).has_value());
  EXPECT_TRUE(on_full.bound_hit);
  EXPECT_TRUE(one_call.bound_hit);
  EXPECT_EQ(on_full.states_explored, 10u);
  EXPECT_EQ(one_call.states_explored, 10u);
  EXPECT_EQ(on_full.edges_explored, one_call.edges_explored);

  // Uncapped, both find the same trace; the one call adds the build's cost.
  EdgeMatch at_fifty = label_match(m, "inc50");
  at_fifty.pre_equals = {{0, 50}};
  auto graph_cex = full.check_edge_never(at_fifty, &on_full);
  auto call_cex = one_call_checker.check_edge_never(inc_from(50), &one_call);
  ASSERT_TRUE(graph_cex.has_value());
  ASSERT_TRUE(call_cex.has_value());
  EXPECT_EQ(call_cex->render(m), graph_cex->render(m));
  EXPECT_EQ(call_cex->steps.size(), 51u);
  EXPECT_FALSE(one_call.truncated());
  EXPECT_EQ(one_call.states_explored, on_full.states_explored);
  EXPECT_EQ(one_call.edges_explored, on_full.edges_explored);
  EXPECT_GT(one_call.visited_bytes, on_full.visited_bytes);
}

TEST(ReachGraph, LivenessCapBoundsProductNodes) {
  // The liveness traversal caps its (state, pending) product nodes at k.
  // ring_model with trigger step0 and no response: 4 nodes over 3 states,
  // (p0, clear) and then p1, p2, p0 pending, whose cycle is the lasso.
  // request_model: (idle, clear) and (waiting, pending), with the lazy
  // self-loop as the lasso. Below the full node count nothing verifies.
  struct Case {
    Model model;
    std::string trigger, response;
    std::size_t nodes;
  };
  const Case cases[] = {{ring_model(), "step0", "none", 4},
                        {request_model(/*with_lazy_loop=*/true), "request", "respond", 2}};
  for (const Case& c : cases) {
    const ReachGraph g = ReachGraph::build(c.model);
    for (std::size_t k = 0; k <= c.nodes + 1; ++k) {
      CheckOptions cap;
      cap.max_states = k;
      CheckStats stats;
      auto cex = g.check_response(label_match(c.model, c.trigger),
                                  label_match(c.model, c.response), &stats, cap);
      EXPECT_EQ(stats.states_explored, std::min(k, c.nodes)) << c.trigger << " k=" << k;
      EXPECT_EQ(stats.bound_hit, k < c.nodes) << c.trigger << " k=" << k;
      EXPECT_EQ(cex.has_value(), k >= c.nodes) << c.trigger << " k=" << k;
      if (cex) {
        EXPECT_GE(cex->loop_start, 0) << c.trigger << " k=" << k;
      }
    }
  }
}

TEST(ReachGraph, TruncatedBuildNeverVerifiesButFindsRealPaths) {
  Model m = counter_model(100);
  CheckOptions build;
  build.max_states = 10;
  ReachGraph g = ReachGraph::build(m, build);
  EXPECT_TRUE(g.stats().bound_hit);
  EXPECT_EQ(g.states(), 10u);
  ASSERT_EQ(g.edge_end(9) - g.edge_begin(9), 1u);
  EXPECT_EQ(g.target(g.edge_begin(9)), ReachGraph::kMissing);  // c = 10 was rejected
  EXPECT_EQ(g.post(9, g.edge_begin(9)), (State{10}));

  // Beyond the graph: the traversal reports the bound, not a verdict.
  CheckStats beyond;
  EXPECT_FALSE(g.check_edge_never(label_match(m, "inc50"), &beyond).has_value());
  EXPECT_TRUE(beyond.bound_hit);
  // The bad edge out of the last stored state still counts: its trace is real.
  CheckStats edge;
  auto cex = g.check_edge_never(label_match(m, "inc9"), &edge);
  ASSERT_TRUE(cex.has_value());
  EXPECT_EQ(cex->steps.size(), 10u);
  EXPECT_EQ(cex->steps.back().post, (State{10}));
}

TEST(ReachGraph, StoppedBuildPassesItsReasonOn) {
  Model m = request_model(/*with_lazy_loop=*/true);
  CheckOptions tight;
  tight.max_visited_bytes = 1;  // trips on the first poll: nothing expanded
  ReachGraph g = ReachGraph::build(m, tight);
  EXPECT_TRUE(g.stats().mem_hit);
  EXPECT_EQ(g.states(), 1u);
  EXPECT_EQ(g.expanded(), 0u);
  CheckStats safety;
  EXPECT_FALSE(g.check_edge_never(label_match(m, "respond"), &safety).has_value());
  EXPECT_TRUE(safety.mem_hit);
  CheckStats liveness;
  EXPECT_FALSE(g.check_response(label_match(m, "request"), label_match(m, "respond"), &liveness)
                   .has_value());
  EXPECT_TRUE(liveness.mem_hit);
}

TEST(ReachGraph, EdgeMatchPreEqualitiesGateTheCommandTable) {
  Model m = request_model(/*with_lazy_loop=*/true);
  ReachGraph g = ReachGraph::build(m);
  EdgeMatch lazy_idle = label_match(m, "lazy");
  lazy_idle.pre_equals = {{0, 0}};  // lazy only fires at st = waiting
  CheckStats stats;
  EXPECT_FALSE(g.check_edge_never(lazy_idle, &stats).has_value());
  EdgeMatch lazy_waiting = label_match(m, "lazy");
  lazy_waiting.pre_equals = {{0, 1}};
  auto cex = g.check_edge_never(lazy_waiting, &stats);
  ASSERT_TRUE(cex.has_value());
  EXPECT_EQ(cex->steps.back().label, "lazy");
}

TEST(ReachGraph, TablesThatDoNotFitTheModelAreRefused) {
  Model m = request_model(/*with_lazy_loop=*/true);
  ReachGraph g = ReachGraph::build(m);
  CheckStats stats;
  CheckOptions short_ban;
  short_ban.banned = {1};  // three commands, one entry
  EXPECT_THROW(g.check_edge_never(label_match(m, "lazy"), &stats, short_ban),
               std::invalid_argument);
  EdgeMatch short_table;
  short_table.commands = {1};
  EXPECT_THROW(g.check_edge_never(short_table, &stats), std::invalid_argument);
  EdgeMatch missing_var = label_match(m, "lazy");
  missing_var.pre_equals = {{5, 0}};  // the model has one variable
  EXPECT_THROW(g.check_response(missing_var, label_match(m, "respond"), &stats),
               std::invalid_argument);
  for (std::int32_t outside : {2, -1}) {  // st has values 0..1
    EdgeMatch missing_value = label_match(m, "lazy");
    missing_value.pre_equals = {{0, outside}};
    EXPECT_THROW(g.check_edge_never(missing_value, &stats), std::invalid_argument) << outside;
  }
}

// --- The state key ----------------------------------------------------------------
//
// The build packs each state into one 64-bit key: every variable owns
// ceil(log2 domain) bits at a fixed shift, in declaration order, and a
// one-value variable owns none. This model fills the word exactly, with
// values at the top of the 31-bit fields, so the shifts at both ends of the
// word run under the kernel label's sanitizers. No guard reads a wide
// variable: the guard table tabulates a guarded variable over its domain.

constexpr std::int32_t kWide = 0x7FFFFFFF;  // 31 bits

Model sixty_four_bit_model(std::int32_t phases) {
  Model m;
  const int lo = m.add_var("lo", kWide, 0);
  const int one = m.add_var("one", 1, 0);
  const int phase = m.add_var("phase", phases, 0);  // 4 phases: 2 bits
  const int hi = m.add_var("hi", kWide, 0);         // bits 33..63
  const int last = m.add_var("last", 1, 0);         // past the last bit
  auto add = [&](const std::string& label, Expr guard, std::vector<Assign> updates) {
    Command cmd;
    cmd.label = label;
    cmd.guard = std::move(guard);
    cmd.updates = std::move(updates);
    m.add_command(std::move(cmd));
  };
  add("top", Expr::eq(phase, 0), {{lo, kWide - 1}, {hi, kWide - 2}, {phase, 1}});
  // Copies read the pre-state, so this swaps.
  add("swap", Expr::eq(phase, 1), {{lo, 0, hi}, {hi, 0, lo}, {phase, 2}});
  // The later write to hi wins.
  add("clear", Expr::eq(phase, 2), {{lo, 0}, {hi, kWide - 1}, {hi, 5}, {phase, 3}});
  // A conjunct over two variables is evaluated on the unpacked key.
  add("stay", Expr::land(Expr::eq(phase, 3), Expr::lor(Expr::eq(one, 0), Expr::eq(last, 1))),
      {{one, 0}, {last, 0, one}});
  return m;
}

TEST(ReachGraph, StateKeysHoldSixtyFourBitsAndNoMore) {
  const Model m = sixty_four_bit_model(4);
  const ReachGraph g = ReachGraph::build(m);
  ASSERT_FALSE(g.stats().truncated());
  ASSERT_EQ(g.states(), 4u);
  EXPECT_EQ(g.edges(), 4u);
  EXPECT_EQ(g.state(0), (State{0, 0, 0, 0, 0}));
  EXPECT_EQ(g.state(1), (State{kWide - 1, 0, 1, kWide - 2, 0}));
  EXPECT_EQ(g.state(2), (State{kWide - 2, 0, 2, kWide - 1, 0}));
  EXPECT_EQ(g.state(3), (State{0, 0, 3, 5, 0}));
  EXPECT_EQ(g.target(g.edge_begin(3)), 3u);  // stay is a self-loop
  EXPECT_EQ(first_edge_mismatch(g), "");

  // Pre-state equalities on the top field, and on a field with no bits.
  EdgeMatch swap_at_top = label_match(m, "swap");
  swap_at_top.pre_equals = {{3, kWide - 2}, {4, 0}};
  CheckStats stats;
  auto cex = g.check_edge_never(swap_at_top, &stats);
  ASSERT_TRUE(cex.has_value());
  EXPECT_EQ(cex->steps.back().post, g.state(2));
  swap_at_top.pre_equals = {{3, kWide - 1}};
  EXPECT_FALSE(g.check_edge_never(swap_at_top, &stats).has_value());
  // Contradictory, though the two values ORed together would match.
  swap_at_top.pre_equals = {{3, kWide - 2}, {3, 0}};
  EXPECT_FALSE(g.check_edge_never(swap_at_top, &stats).has_value());

  // A rejected target is recomputed from the key.
  CheckOptions two;
  two.max_states = 2;
  const ReachGraph capped = ReachGraph::build(m, two);
  ASSERT_EQ(capped.target(capped.edge_begin(1)), ReachGraph::kMissing);
  EXPECT_EQ(capped.post(1, capped.edge_begin(1)), g.state(2));

  // One more bit (5 phases need 3) does not fit the word.
  EXPECT_THROW(ReachGraph::build(sixty_four_bit_model(5)), std::length_error);
}

// --- The guard table ------------------------------------------------------------
//
// The build compiles every guard once into per-(variable, value) command
// masks plus the conjuncts that read two or more variables. This model holds
// every guard shape the table must get right — a constant conjunct, a
// disjunction tabulated over one variable, two conjuncts sharing a
// variable's row, a residual disjunction across variables (alone and beside
// a tabulated conjunct that can disable it first), a variable declared after
// its readers, and masks spanning two words — checked edge by edge against
// Model::successors, which interprets the guards directly.

Model guard_shapes_model() {
  Model m;
  const int x = m.add_var("x", 4, 0);
  const int y = m.add_var("y", 3, 0);
  const int f = m.add_var("f", 2, 0);
  const int late = 3;  // declared after the commands that read it
  auto add = [&](const std::string& label, Expr guard, std::vector<Assign> updates) {
    Command cmd;
    cmd.label = label;
    cmd.guard = std::move(guard);
    cmd.updates = std::move(updates);
    m.add_command(std::move(cmd));
  };
  // x is one of `values`.
  auto x_in = [&](std::vector<std::int32_t> values) {
    Expr either = Expr::eq(x, values[0]);
    for (std::size_t i = 1; i < values.size(); ++i) {
      either = Expr::lor(std::move(either), Expr::eq(x, values[i]));
    }
    return either;
  };
  add("or_across_vars", Expr::lor(Expr::eq(x, 3), Expr::eq(f, 1)), {{x, 0}, {f, 0}});
  // Not (x = 1 and y = 2), and late = 0.
  add("or_across_vars_and_late",
      Expr::land(Expr::lor(x_in({0, 2, 3}), Expr::lor(Expr::eq(y, 0), Expr::eq(y, 1))),
                 Expr::eq(late, 0)),
      {{late, 1}});
  add("or_on_one_var", x_in({0, 3}), {{y, 2}});
  add("ors_on_two_vars", Expr::land(x_in({0, 1}), Expr::lor(Expr::eq(y, 1), Expr::eq(y, 2))),
      {{x, 2}});
  add("constant_true", Expr::land(Expr::constant(true), Expr::eq(y, 0)), {{y, 1}});
  add("constant_false", Expr::land(Expr::eq(y, 1), Expr::constant(false)), {{y, 2}});
  add("two_on_one_var", Expr::land(x_in({1, 2, 3}), x_in({0, 1, 2})), {{f, 1}});
  add("no_updates", Expr::eq(f, 0), {});
  add("reads_late_var", Expr::eq(late, 1), {{late, 0}, {f, 1}});
  add("copy", Expr::eq(y, 2), {{x, 0, y}});
  // Enough commands that the masks span two words.
  for (std::int32_t i = 0; i < 60; ++i) {
    add("step" + std::to_string(i),
        Expr::all({Expr::eq(x, i % 4), Expr::eq(y, (i / 4) % 3), Expr::eq(f, i % 2)}),
        {{x, (i + 1) % 4}, {f, 1 - i % 2}});
  }
  EXPECT_EQ(m.add_var("late", 2, 0), late);
  return m;
}

TEST(ReachGraph, StoredEdgesMatchInterpretedGuards) {
  const Model m = guard_shapes_model();
  ASSERT_GT(m.commands().size(), 64u);
  const ReachGraph g = ReachGraph::build(m);
  ASSERT_FALSE(g.stats().truncated());
  EXPECT_EQ(first_edge_mismatch(g), "");
  // Every shape decided an edge somewhere, except the one that never can.
  std::vector<std::uint8_t> fired(m.commands().size(), 0);
  for (std::size_t e = 0; e < g.edges(); ++e) fired[g.command(e)] = 1;
  for (const Command& cmd : m.commands()) {
    if (cmd.label.rfind("step", 0) == 0) continue;
    EXPECT_EQ(fired[cmd.index], cmd.label == "constant_false" ? 0 : 1) << cmd.label;
  }
  EXPECT_TRUE(std::find(fired.begin() + 64, fired.end(), 1) != fired.end());
}

// The table's rows are indexed by state values, so a model whose states
// could leave their declared domains is refused before anything is built.

TEST(ReachGraph, RefusesAnInitialValueOutsideItsDomain) {
  Model m;
  m.add_var("v", 2, 2);
  EXPECT_THROW(ReachGraph::build(m), std::invalid_argument);
}

TEST(ReachGraph, RefusesAConstantAssignmentOutsideItsDomain) {
  Model m = ring_model();
  Command out;
  out.label = "out";
  out.guard = Expr::eq(0, 2);
  out.updates = {{0, 3}};  // pos has values 0..2
  m.add_command(std::move(out));
  EXPECT_THROW(ReachGraph::build(m), std::invalid_argument);
}

TEST(ReachGraph, RefusesACopyFromAWiderVariable) {
  Model m = ring_model();
  const int narrow = m.add_var("narrow", 2, 0);
  Command copy;
  copy.label = "copy";
  copy.guard = Expr::constant(true);
  copy.updates = {{narrow, 0, 0}};  // narrow := pos, which can be 2
  m.add_command(std::move(copy));
  EXPECT_THROW(ReachGraph::build(m), std::invalid_argument);
}

TEST(ReachGraph, RefusesAGuardReadingAMissingVariable) {
  Model m = ring_model();
  Command ghost;
  ghost.label = "ghost";
  ghost.guard = Expr::land(Expr::eq(0, 0), Expr::eq(1, 0));  // the model has one variable
  m.add_command(std::move(ghost));
  EXPECT_THROW(ReachGraph::build(m), std::invalid_argument);
}

// --- The on-demand liveness product -----------------------------------------------
//
// The lasso grows its (state, pending) product only as far as its cycle
// search reads. eager_lasso (graph_oracle.h) is the search that built the
// whole product first.

// `toggles` free boolean toggles beside request_model: a request with its
// lazy self-loop closes a cycle two nodes in, while the product holds every
// toggle combination.
Model toggled_request_model(int toggles) {
  Model m = request_model(/*with_lazy_loop=*/true);
  for (int t = 0; t < toggles; ++t) {
    const int v = m.add_var("t" + std::to_string(t), 2, 0);
    for (std::int32_t value = 0; value < 2; ++value) {
      Command flip;
      flip.label = "flip" + std::to_string(t) + "_" + std::to_string(value);
      flip.guard = Expr::eq(v, value);
      flip.updates = {{v, 1 - value}};
      m.add_command(std::move(flip));
    }
  }
  return m;
}

TEST(Response, AnEarlyCycleLeavesTheProductUnbuilt) {
  const Model m = toggled_request_model(10);
  const ReachGraph g = ReachGraph::build(m);
  ASSERT_EQ(g.states(), 2048u);
  const EdgeMatch request = label_match(m, "request"), respond = label_match(m, "respond");
  CheckStats lazy, eager;
  auto found = g.check_response(request, respond, &lazy);
  auto reference = eager_lasso(g, request, respond, &eager);
  ASSERT_TRUE(found.has_value());
  ASSERT_TRUE(reference.has_value());
  EXPECT_EQ(found->render(m), reference->render(m));
  EXPECT_EQ(found->loop_start, reference->loop_start);
  // Node 0 and node 1 (the request) are expanded, and the lazy self-loop
  // out of node 1 closes the cycle: 1 + 11 + 10 nodes of the 2048.
  EXPECT_EQ(lazy.states_explored, 22u);
  EXPECT_EQ(eager.states_explored, 2048u);
  EXPECT_LT(lazy.visited_bytes, eager.visited_bytes);
  EXPECT_FALSE(lazy.truncated());
}

TEST(Response, AHoldingPropertyExpandsTheWholeProduct) {
  // c counts up to 40 and deadlocks; inc0 raises the obligation, inc39
  // answers it: 41 nodes, (0, clear) through (39, pending), then (40, clear).
  const Model m = counter_model(40);
  const ReachGraph g = ReachGraph::build(m);
  const EdgeMatch first = label_match(m, "inc0"), last = label_match(m, "inc39");
  CheckStats lazy, eager;
  EXPECT_FALSE(g.check_response(first, last, &lazy).has_value());
  EXPECT_FALSE(eager_lasso(g, first, last, &eager).has_value());
  EXPECT_EQ(lazy.states_explored, 41u);
  EXPECT_EQ(lazy.states_explored, eager.states_explored);
  EXPECT_EQ(lazy.edges_explored, eager.edges_explored);
  EXPECT_FALSE(lazy.bound_hit);
  EXPECT_FALSE(lazy.truncated());
}

TEST(Response, ABudgetStopDuringExpansionNeverVerifies) {
  // The property holds, so only a complete product could verify it. The
  // cycle search drives the expansion down the chain of pending nodes.
  const Model m = counter_model(200);
  const ReachGraph g = ReachGraph::build(m);
  const EdgeMatch first = label_match(m, "inc0"), last = label_match(m, "inc199");
  CheckStats full;
  ASSERT_FALSE(g.check_response(first, last, &full).has_value());
  ASSERT_EQ(full.states_explored, 201u);
  ASSERT_FALSE(full.truncated());

  // A memory ceiling the product passes halfway down the chain.
  CheckOptions ceiling;
  ceiling.max_visited_bytes = full.visited_bytes / 2;
  CheckStats mem;
  EXPECT_FALSE(g.check_response(first, last, &mem, ceiling).has_value());
  EXPECT_TRUE(mem.mem_hit);
  EXPECT_GT(mem.states_explored, 2u);
  EXPECT_LT(mem.states_explored, full.states_explored);

  // A spent deadline stops the first expansion.
  CheckOptions deadline;
  deadline.max_seconds = 1e-9;
  CheckStats stats;
  EXPECT_FALSE(g.check_response(first, last, &stats, deadline).has_value());
  EXPECT_TRUE(stats.truncated());
  EXPECT_TRUE(stats.deadline_hit);
  EXPECT_EQ(stats.states_explored, 1u);
}

// --- The kernel oracle ---------------------------------------------------------------
//
// Seeded random guarded-command models that the build accepts: 2–8
// variables with small domains, 5–40 commands whose guards nest eq, land and
// lor and whose updates write constants or copy variables (a command with
// no update is a self-loop, and a halt value most guards exclude leaves
// dead ends), checked with random EdgeMatches, pre-state equalities
// included, and random ban tables. On every model the graph's traversals
// must agree with the references in graph_oracle.h.

/// Draws that depend on the seed alone, not on a library's distributions.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  std::int32_t below(std::int32_t n) {
    return static_cast<std::int32_t>(rng_() % static_cast<std::uint64_t>(n));
  }
  bool percent(int p) { return below(100) < p; }

 private:
  std::mt19937_64 rng_;
};

Expr random_guard(Draw& d, const Model& m, int depth) {
  const int shape = depth == 0 ? 0 : d.below(3);
  if (shape == 0) {
    if (d.percent(4)) return Expr::constant(d.percent(75));
    const int v = d.below(static_cast<std::int32_t>(m.var_count()));
    return Expr::eq(v, d.below(m.domain(v)));
  }
  Expr a = random_guard(d, m, depth - 1);
  Expr b = random_guard(d, m, depth - 1);
  if (shape == 1) return Expr::land(std::move(a), std::move(b));
  return Expr::lor(std::move(a), std::move(b));
}

Model random_model(std::uint64_t seed) {
  Draw d(seed);
  Model m;
  const int vars = 2 + d.below(7);
  std::int64_t space = 1;  // at most 4096 states
  for (int v = 0; v < vars; ++v) {
    std::int32_t domain = d.percent(10) && v > 0 ? 1 : 2 + d.below(d.percent(20) ? 7 : 3);
    while (space * domain > 4096) domain /= 2;
    space *= domain;
    m.add_var("v" + std::to_string(v), domain, v == 0 ? 0 : d.below(domain));
  }
  // v0 at its top value halts every command whose guard requires it lower
  // (most of them), so the commands that write that value lead toward
  // dead ends.
  const std::int32_t halt = m.domain(0) - 1;
  Expr running = Expr::eq(0, 0);
  for (std::int32_t x = 1; x < halt; ++x) running = Expr::lor(std::move(running), Expr::eq(0, x));
  const int commands = 5 + d.below(36);
  for (int c = 0; c < commands; ++c) {
    Command cmd;
    cmd.label = "c" + std::to_string(c);
    cmd.guard = random_guard(d, m, d.below(3));
    if (d.percent(80)) cmd.guard = Expr::land(running, std::move(cmd.guard));
    // No write: a self-loop wherever the command is enabled.
    for (int w = d.percent(10) ? 0 : 1 + d.below(3); w > 0; --w) {
      const int var = d.below(vars);
      const int src = d.below(vars);
      if (d.percent(30) && m.domain(src) <= m.domain(var)) {
        cmd.updates.push_back({var, 0, src});
      } else {
        cmd.updates.push_back({var, d.below(m.domain(var)), -1});
      }
    }
    if (d.percent(10)) cmd.updates.push_back({0, halt, -1});
    m.add_command(std::move(cmd));
  }
  return m;
}

EdgeMatch random_match(Draw& d, const Model& m) {
  EdgeMatch match;
  const int p = 10 + d.below(40);
  for (std::size_t j = 0; j < m.commands().size(); ++j) match.commands.push_back(d.percent(p));
  for (int k = d.below(3); k > 0; --k) {
    const int v = d.below(static_cast<std::int32_t>(m.var_count()));
    match.pre_equals.push_back({v, d.below(m.domain(v))});
  }
  return match;
}

std::vector<std::uint8_t> random_bans(Draw& d, const Model& m) {
  std::vector<std::uint8_t> banned;
  if (d.percent(50)) return banned;
  for (std::size_t j = 0; j < m.commands().size(); ++j) banned.push_back(d.percent(15));
  return banned;
}

constexpr std::uint64_t kOracleModels = 300;
constexpr int kChecksPerModel = 4;

TEST(Oracle, NeverClaimsMatchABreadthFirstSearchOfTheModel) {
  std::size_t hits = 0, misses = 0;
  for (std::uint64_t seed = 1; seed <= kOracleModels; ++seed) {
    const Model m = random_model(seed);
    const ReachGraph g = ReachGraph::build(m);
    ASSERT_EQ(first_edge_mismatch(g), "") << "seed " << seed;
    Draw d(seed * 7919);
    for (int check = 0; check < kChecksPerModel; ++check) {
      const EdgeMatch bad = random_match(d, m);
      CheckOptions options;
      options.banned = random_bans(d, m);
      for (std::size_t cap : {kDefaultMaxStates, std::size_t{1}, std::size_t{3}, g.states() / 2}) {
        options.max_states = cap;
        CheckStats got, want;
        auto found = g.check_edge_never(bad, &got, options);
        auto reference = reference_edge_never(m, bad, &want, options);
        const std::string where = "seed " + std::to_string(seed) + " check " +
                                  std::to_string(check) + " cap " + std::to_string(cap);
        ASSERT_EQ(found.has_value(), reference.has_value()) << where;
        if (found) {
          EXPECT_EQ(found->render(m), reference->render(m)) << where;
        }
        EXPECT_EQ(got.states_explored, want.states_explored) << where;
        EXPECT_EQ(got.edges_explored, want.edges_explored) << where;
        EXPECT_EQ(got.bound_hit, want.bound_hit) << where;
        if (cap == kDefaultMaxStates) ++(found ? hits : misses);
      }
    }
  }
  // Both verdicts are common, so neither side of the comparison is idle.
  EXPECT_GT(hits, kOracleModels / 4);
  EXPECT_GT(misses, kOracleModels / 4);
}

TEST(Oracle, LivenessMatchesTheEagerLassoByteForByte) {
  std::size_t lassos = 0, stutters = 0, capped = 0;
  for (std::uint64_t seed = 1; seed <= kOracleModels; ++seed) {
    const Model m = random_model(seed);
    const ReachGraph g = ReachGraph::build(m);
    Draw d(seed * 104729);
    for (int check = 0; check < kChecksPerModel; ++check) {
      const EdgeMatch trigger = random_match(d, m), response = random_match(d, m);
      CheckOptions options;
      options.banned = random_bans(d, m);
      CheckStats whole;
      eager_lasso(g, trigger, response, &whole, options);
      const std::size_t nodes = whole.states_explored;
      // Uncapped, then a cap sweep both inside the traversal and at the build.
      for (std::size_t cap : {kDefaultMaxStates, std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{3}, std::size_t{5}, nodes / 2, nodes - 1}) {
        const std::string where = "seed " + std::to_string(seed) + " check " +
                                  std::to_string(check) + " cap " + std::to_string(cap);
        CheckOptions build;
        build.max_states = cap;
        const ReachGraph small = ReachGraph::build(m, build);
        for (const ReachGraph* graph : {&g, &small}) {
          CheckOptions traversal = options;
          if (graph == &g) traversal.max_states = cap;
          CheckStats got, want;
          auto found = graph->check_response(trigger, response, &got, traversal);
          auto reference = eager_lasso(*graph, trigger, response, &want, traversal);
          ASSERT_EQ(found.has_value(), reference.has_value()) << where;
          if (found) {
            EXPECT_EQ(found->render(m), reference->render(m)) << where;
            EXPECT_EQ(found->loop_start, reference->loop_start) << where;
            EXPECT_LE(got.states_explored, want.states_explored) << where;
            EXPECT_EQ(lasso_defect(m, trigger, response, *found, traversal), "") << where;
            if (cap == kDefaultMaxStates) {
              ++lassos;
              stutters += found->steps.back().label == "(stutter)";
            }
          } else {
            // Nothing found: the whole product was expanded, as before.
            EXPECT_EQ(got.states_explored, want.states_explored) << where;
            EXPECT_EQ(got.edges_explored, want.edges_explored) << where;
            EXPECT_EQ(got.bound_hit, want.bound_hit) << where;
          }
          capped += want.bound_hit && found.has_value();
        }
      }
    }
  }
  EXPECT_GT(lassos, kOracleModels / 4);
  EXPECT_GT(stutters, 10u);  // dead ends that keep a trigger pending
  EXPECT_GT(capped, 10u);    // lassos found inside a capped product
}

TEST(Oracle, AMemoryStopNeverChangesTheLasso) {
  // A budget stop ends the lasso with no verdict, so under any memory
  // ceiling it either reports the lasso a search without budgets reports
  // or stops with mem_hit. The sweep puts the stop at nine points of the
  // product's growth; the deadline stops at the same poll.
  std::size_t stopped = 0, finished = 0;
  for (std::uint64_t seed = 1; seed <= kOracleModels; ++seed) {
    const Model m = random_model(seed);
    const ReachGraph g = ReachGraph::build(m);
    Draw d(seed * 32452843);
    for (int check = 0; check < kChecksPerModel; ++check) {
      const EdgeMatch trigger = random_match(d, m), response = random_match(d, m);
      CheckOptions options;
      options.banned = random_bans(d, m);
      CheckStats whole;
      const auto unbounded = g.check_response(trigger, response, &whole, options);
      const std::size_t index = g.states() * sizeof(std::array<std::uint32_t, 2>);
      for (std::size_t step = 0; step <= 8; ++step) {
        options.max_visited_bytes = index + (whole.visited_bytes - index) * step / 8;
        CheckStats stats;
        const auto found = g.check_response(trigger, response, &stats, options);
        const std::string where = "seed " + std::to_string(seed) + " check " +
                                  std::to_string(check) + " ceiling " +
                                  std::to_string(options.max_visited_bytes);
        if (!found) {
          EXPECT_TRUE(stats.mem_hit || !unbounded) << where;
          ++(stats.mem_hit ? stopped : finished);
          continue;
        }
        ++finished;
        ASSERT_TRUE(unbounded.has_value()) << where;
        EXPECT_FALSE(stats.mem_hit) << where;
        EXPECT_EQ(found->render(m), unbounded->render(m)) << where;
        EXPECT_EQ(found->loop_start, unbounded->loop_start) << where;
      }
    }
  }
  EXPECT_GT(stopped, kOracleModels);
  EXPECT_GT(finished, kOracleModels);
}

TEST(Oracle, LivenessVerdictsMatchAProductFreeDecision) {
  std::size_t violated = 0, held = 0;
  for (std::uint64_t seed = 1; seed <= kOracleModels; ++seed) {
    const Model m = random_model(seed);
    const ReachGraph g = ReachGraph::build(m);
    Draw d(seed * 15485863);
    for (int check = 0; check < kChecksPerModel; ++check) {
      const EdgeMatch trigger = random_match(d, m), response = random_match(d, m);
      CheckOptions options;
      options.banned = random_bans(d, m);
      CheckStats stats;
      auto found = g.check_response(trigger, response, &stats, options);
      const std::string where = "seed " + std::to_string(seed) + " check " + std::to_string(check);
      ASSERT_FALSE(stats.truncated()) << where;
      EXPECT_EQ(found.has_value(), reference_response_violated(m, trigger, response, options))
          << where;
      if (found) {
        EXPECT_EQ(lasso_defect(m, trigger, response, *found, options), "") << where;
      }
      ++(found ? violated : held);
    }
  }
  EXPECT_GT(violated, kOracleModels / 4);
  EXPECT_GT(held, kOracleModels / 4);
}

TEST(Trace, DotExportHighlightsAdversaryAndLoop) {
  Model m = request_model(/*with_lazy_loop=*/true);
  CheckStats stats;
  auto cex = check_response(m, "request", "respond", &stats);
  ASSERT_TRUE(cex.has_value());
  std::string dot = cex->to_dot(m);
  EXPECT_TRUE(contains(dot, "digraph counterexample"));
  EXPECT_TRUE(contains(dot, "request"));
  EXPECT_TRUE(contains(dot, "style=dashed"));  // the lasso loop edge
}

TEST(Response, LassoRenderMarksLoop) {
  Model m = request_model(/*with_lazy_loop=*/true);
  CheckStats stats;
  auto cex = check_response(m, "request", "respond", &stats);
  ASSERT_TRUE(cex.has_value());
  std::string text = cex->render(m);
  EXPECT_TRUE(contains(text, "loop"));
}

}  // namespace
}  // namespace procheck::mc
