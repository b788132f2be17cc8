// Tests for the semi-naive Datalog engine: recursion (linear, non-linear,
// mutual), negation, aggregation, constraints, lattice relations, and
// failure modes. Includes a naive-vs-seminaive differential property test.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>

#include "dlir/parser.h"
#include "engine/datalog/engine.h"
#include "storage/database.h"

namespace raqlet {
namespace {

using engine::DatalogEngine;
using engine::EvalOptions;
using engine::EvalStats;

Database MakeGraphDb(const std::vector<std::pair<int, int>>& edges) {
  Database db;
  RelationSchema s;
  s.name = "edge";
  s.columns = {{"x", ValueType::kNumber}, {"y", ValueType::kNumber}};
  Relation* rel = *db.CreateRelation(s);
  for (auto [x, y] : edges) {
    rel->Insert({Value::Number(x), Value::Number(y)});
  }
  return db;
}

dlir::Program Parse(const std::string& text) {
  auto program = dlir::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

std::set<std::vector<int64_t>> NumericRows(const Relation& rel) {
  std::set<std::vector<int64_t>> out;
  for (const Tuple& row : rel.rows()) {
    std::vector<int64_t> ints;
    for (const Value& v : row) ints.push_back(v.AsNumber());
    out.insert(std::move(ints));
  }
  return out;
}

constexpr char kTc[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)";

TEST(DatalogEngineTest, TransitiveClosureOnChain) {
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {3, 4}});
  DatalogEngine eng;
  EvalStats stats;
  ASSERT_TRUE(eng.Run(Parse(kTc), &db, &stats).ok());
  const Relation* tc = *db.GetRelation("tc");
  EXPECT_EQ(tc->size(), 6u);  // all i<j pairs
  EXPECT_TRUE(tc->Contains({Value::Number(1), Value::Number(4)}));
  EXPECT_GE(stats.fixpoint_rounds, 3u);
}

TEST(DatalogEngineTest, ComputedArgOnRecursiveAtomJoinsOnceBound) {
  // The delta atom r(z + 0, y) cannot unify z + 0 before z is bound, so
  // the planner joins edge first instead of failing on an unbound slot.
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {3, 4}});
  for (bool reorder : {true, false}) {
    EvalOptions options;
    options.reorder_atoms = reorder;
    ASSERT_TRUE(DatalogEngine(options)
                    .Run(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl r(x: number, y: number)
.output r
r(x, y) :- edge(x, y).
r(x, y) :- r(z + 0, y), edge(x, z).
)"),
                         &db)
                    .ok());
    EXPECT_EQ(NumericRows(**db.GetRelation("r")),
              (std::set<std::vector<int64_t>>{
                  {1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}}));
  }
}

TEST(DatalogEngineTest, TransitiveClosureOnCycleTerminates) {
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {3, 1}});
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kTc), &db).ok());
  EXPECT_EQ((*db.GetRelation("tc"))->size(), 9u);  // complete on the cycle
}

TEST(DatalogEngineTest, NonLinearTcMatchesLinear) {
  constexpr char kNonLinear[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), tc(z, y).
)";
  Database db1 = MakeGraphDb({{1, 2}, {2, 3}, {3, 4}, {4, 2}});
  Database db2 = MakeGraphDb({{1, 2}, {2, 3}, {3, 4}, {4, 2}});
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kTc), &db1).ok());
  ASSERT_TRUE(eng.Run(Parse(kNonLinear), &db2).ok());
  EXPECT_EQ(NumericRows(**db1.GetRelation("tc")),
            NumericRows(**db2.GetRelation("tc")));
}

TEST(DatalogEngineTest, MutualRecursionEvenOdd) {
  constexpr char kEvenOdd[] = R"(
.decl succ(x: number, y: number)
.input succ
.decl even(x: number)
.decl odd(x: number)
.output even
.output odd
even(0).
odd(y) :- even(x), succ(x, y).
even(y) :- odd(x), succ(x, y).
)";
  Database db;
  RelationSchema s;
  s.name = "succ";
  s.columns = {{"x", ValueType::kNumber}, {"y", ValueType::kNumber}};
  Relation* succ = *db.CreateRelation(s);
  for (int i = 0; i < 10; ++i) {
    succ->Insert({Value::Number(i), Value::Number(i + 1)});
  }
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kEvenOdd), &db).ok());
  auto evens = NumericRows(**db.GetRelation("even"));
  auto odds = NumericRows(**db.GetRelation("odd"));
  EXPECT_EQ(evens.size(), 6u);  // 0,2,4,6,8,10
  EXPECT_EQ(odds.size(), 5u);   // 1,3,5,7,9
  EXPECT_TRUE(evens.count({10}));
  EXPECT_TRUE(odds.count({9}));
}

TEST(DatalogEngineTest, StratifiedNegation) {
  constexpr char kUnreachable[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl node(x: number)
.input node
.decl reach(x: number)
.decl unreach(x: number)
.output unreach
reach(1).
reach(y) :- reach(x), edge(x, y).
unreach(x) :- node(x), !reach(x).
)";
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {4, 5}});
  RelationSchema s;
  s.name = "node";
  s.columns = {{"x", ValueType::kNumber}};
  Relation* node = *db.CreateRelation(s);
  for (int i = 1; i <= 5; ++i) node->Insert({Value::Number(i)});
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kUnreachable), &db).ok());
  EXPECT_EQ(NumericRows(**db.GetRelation("unreach")),
            (std::set<std::vector<int64_t>>{{4}, {5}}));
}

TEST(DatalogEngineTest, RejectsUnstratifiableNegation) {
  constexpr char kParadox[] = R"(
.decl a(x: number)
.input a
.decl p(x: number)
p(x) :- a(x), !p(x).
)";
  Database db;
  RelationSchema s;
  s.name = "a";
  s.columns = {{"x", ValueType::kNumber}};
  (void)*db.CreateRelation(s);
  DatalogEngine eng;
  Status st = eng.Run(Parse(kParadox), &db);
  EXPECT_EQ(st.code(), StatusCode::kUnsupported);
  EXPECT_NE(st.message().find("stratifiable"), std::string::npos);
}

TEST(DatalogEngineTest, CountAggregate) {
  constexpr char kDegree[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl outdeg(x: number, d: number)
.output outdeg
outdeg(x, count(y)) :- edge(x, y).
)";
  Database db = MakeGraphDb({{1, 2}, {1, 3}, {1, 3}, {2, 3}});
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kDegree), &db).ok());
  EXPECT_EQ(NumericRows(**db.GetRelation("outdeg")),
            (std::set<std::vector<int64_t>>{{1, 2}, {2, 1}}));
}

TEST(DatalogEngineTest, SumMinMaxAggregates) {
  constexpr char kAggs[] = R"(
.decl sale(region: number, amount: number)
.input sale
.decl total(region: number, t: number)
.decl lo(region: number, m: number)
.decl hi(region: number, m: number)
.output total
.output lo
.output hi
total(r, sum(a)) :- sale(r, a).
lo(r, min(a)) :- sale(r, a).
hi(r, max(a)) :- sale(r, a).
)";
  Database db;
  RelationSchema s;
  s.name = "sale";
  s.columns = {{"region", ValueType::kNumber}, {"amount", ValueType::kNumber}};
  Relation* sale = *db.CreateRelation(s);
  sale->Insert({Value::Number(1), Value::Number(10)});
  sale->Insert({Value::Number(1), Value::Number(30)});
  sale->Insert({Value::Number(2), Value::Number(5)});
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kAggs), &db).ok());
  EXPECT_EQ(NumericRows(**db.GetRelation("total")),
            (std::set<std::vector<int64_t>>{{1, 40}, {2, 5}}));
  EXPECT_EQ(NumericRows(**db.GetRelation("lo")),
            (std::set<std::vector<int64_t>>{{1, 10}, {2, 5}}));
  EXPECT_EQ(NumericRows(**db.GetRelation("hi")),
            (std::set<std::vector<int64_t>>{{1, 30}, {2, 5}}));
}

TEST(DatalogEngineTest, RejectsAggregateInRecursion) {
  constexpr char kBad[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl p(x: number, c: number)
p(x, count(y)) :- p(y, _), edge(x, y).
)";
  Database db = MakeGraphDb({{1, 2}});
  DatalogEngine eng;
  EXPECT_EQ(eng.Run(Parse(kBad), &db).code(), StatusCode::kUnsupported);
}

TEST(DatalogEngineTest, LatticeShortestPathOnCyclicGraph) {
  // Plain Datalog distance recursion would diverge on the cycle; the @min
  // lattice keeps only the best distance per (x, y) and terminates.
  constexpr char kSp[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl dist(x: number, y: number, d: number) @min
.output dist
dist(x, y, 1) :- edge(x, y).
dist(x, y, d + 1) :- dist(x, z, d), edge(z, y).
)";
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {3, 1}, {1, 3}});
  DatalogEngine eng;
  Status st = eng.Run(Parse(kSp), &db);
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto rows = NumericRows(**db.GetRelation("dist"));
  EXPECT_TRUE(rows.count({1, 3, 1}));  // direct edge beats 1->2->3
  EXPECT_TRUE(rows.count({1, 1, 2}));  // 1->3->1 beats 1->2->3->1
  EXPECT_TRUE(rows.count({3, 2, 2}));  // 3->1->2
  // Exactly one distance per reachable pair.
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (const auto& row : rows) pairs.emplace(row[0], row[1]);
  EXPECT_EQ(pairs.size(), rows.size());
}

// ---------------------------------------------------------------------------
// Lattice relations against brute-force oracles. Each oracle relaxes
// best[(from, to)] over weighted edges until nothing changes — the lattice
// fixpoint computed independently of the engine, with no semi-naive
// evaluation, staging or compaction.
// ---------------------------------------------------------------------------

struct WeightedEdge {
  std::string from;
  std::string to;
  int64_t weight;
};

using BestMap = std::map<std::pair<std::string, std::string>, int64_t>;

BestMap RelaxOracle(const std::vector<WeightedEdge>& edges, bool is_min) {
  auto better = [is_min](int64_t a, int64_t b) {
    return is_min ? a < b : a > b;
  };
  BestMap best;
  for (const WeightedEdge& e : edges) {
    auto [it, fresh] = best.emplace(std::make_pair(e.from, e.to), e.weight);
    if (!fresh && better(e.weight, it->second)) it->second = e.weight;
  }
  for (bool changed = true; changed;) {
    changed = false;
    BestMap snapshot = best;
    for (const auto& [key, d] : snapshot) {
      for (const WeightedEdge& e : edges) {
        if (e.from != key.second) continue;
        auto [it, fresh] =
            best.emplace(std::make_pair(key.first, e.to), d + e.weight);
        if (fresh || better(d + e.weight, it->second)) {
          it->second = d + e.weight;
          changed = true;
        }
      }
    }
  }
  return best;
}

// Rows of a (key, key, value) lattice relation, keys rendered as text
// (numbers printed, symbols resolved). Fails the test if a key repeats:
// a lattice relation holds exactly one row per key prefix.
BestMap LatticeRows(const Database& db, const std::string& name) {
  const Relation* rel = *db.GetRelation(name);
  auto text = [&](const Value& v) {
    return v.kind() == ValueType::kSymbol ? db.symbols().Resolve(v.AsSymbol())
                                          : v.ToString();
  };
  BestMap out;
  for (const Tuple& row : rel->MaterializeRows()) {
    bool fresh =
        out.emplace(std::make_pair(text(row[0]), text(row[1])), row[2].AsNumber())
            .second;
    EXPECT_TRUE(fresh) << name << " repeats key " << TupleToString(row);
  }
  return out;
}

Database MakeWeightedDb(const std::vector<WeightedEdge>& edges) {
  Database db;
  RelationSchema s;
  s.name = "wedge";
  s.columns = {{"x", ValueType::kNumber},
               {"y", ValueType::kNumber},
               {"w", ValueType::kNumber}};
  Relation* rel = *db.CreateRelation(s);
  for (const WeightedEdge& e : edges) {
    rel->Insert({Value::Number(std::stoll(e.from)),
                 Value::Number(std::stoll(e.to)), Value::Number(e.weight)});
  }
  return db;
}

std::vector<WeightedEdge> RandomWeightedEdges(unsigned seed, int nodes,
                                              int edges, bool acyclic) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> node(1, nodes);
  std::uniform_int_distribution<int> weight(1, 9);
  std::vector<WeightedEdge> out;
  while (static_cast<int>(out.size()) < edges) {
    int a = node(rng);
    int b = node(rng);
    if (acyclic && a >= b) continue;
    out.push_back({std::to_string(a), std::to_string(b), weight(rng)});
  }
  return out;
}

constexpr char kWeightedShortest[] = R"(
.decl wedge(x: number, y: number, w: number)
.input wedge
.decl dist(x: number, y: number, d: number) @min
.output dist
dist(x, y, w) :- wedge(x, y, w).
dist(x, y, d + w) :- dist(x, z, d), wedge(z, y, w).
)";

TEST(DatalogEngineTest, LatticeMinDropsRowsSupersededByLaterShorterPaths) {
  // 1->3 costs 10 directly but 2 via 2: the exit rule derives (1,3,10)
  // first and round 1 supersedes it, so compaction must drop that row.
  std::vector<WeightedEdge> edges = {
      {"1", "3", 10}, {"1", "2", 1}, {"2", "3", 1}, {"3", "4", 5}};
  Database db = MakeWeightedDb(edges);
  DatalogEngine eng;
  obs::DatalogMetrics metrics;
  ASSERT_TRUE(eng.Run(Parse(kWeightedShortest), &db, nullptr, &metrics).ok());
  EXPECT_EQ(LatticeRows(db, "dist"), RelaxOracle(edges, /*is_min=*/true));
  size_t dropped = 0;
  for (const obs::SccMetrics& scc : metrics.sccs) {
    dropped += scc.lattice_dropped;
  }
  EXPECT_GT(dropped, 0u);

  // Random weighted graphs with cycles and parallel edges (an
  // intra-batch supersede when the heavier parallel edge stages first).
  for (unsigned seed = 1; seed <= 6; ++seed) {
    std::vector<WeightedEdge> random = RandomWeightedEdges(seed, 12, 40, false);
    Database rdb = MakeWeightedDb(random);
    ASSERT_TRUE(eng.Run(Parse(kWeightedShortest), &rdb).ok());
    EXPECT_EQ(LatticeRows(rdb, "dist"), RelaxOracle(random, true))
        << "seed " << seed;
  }
}

TEST(DatalogEngineTest, LatticeMaxLongestPathsOnDags) {
  constexpr char kLongest[] = R"(
.decl wedge(x: number, y: number, w: number)
.input wedge
.decl far(x: number, y: number, d: number) @max
.output far
far(x, y, w) :- wedge(x, y, w).
far(x, y, d + w) :- far(x, z, d), wedge(z, y, w).
)";
  DatalogEngine eng;
  for (unsigned seed = 1; seed <= 6; ++seed) {
    std::vector<WeightedEdge> edges = RandomWeightedEdges(seed, 12, 30, true);
    Database db = MakeWeightedDb(edges);
    ASSERT_TRUE(eng.Run(Parse(kLongest), &db).ok());
    EXPECT_EQ(LatticeRows(db, "far"), RelaxOracle(edges, /*is_min=*/false))
        << "seed " << seed;
  }
}

TEST(DatalogEngineTest, LatticeMinOverTwoSymbolKeyColumns) {
  constexpr char kCheapest[] = R"(
.decl flight(airline: symbol, src: symbol, dst: symbol, price: number)
.input flight
.decl cheapest(src: symbol, dst: symbol, price: number) @min
.output cheapest
cheapest(s, d, p) :- flight(_, s, d, p).
cheapest(s, d, p + q) :- cheapest(s, v, p), flight(_, v, d, q).
)";
  const std::vector<std::string> cities = {"ams", "ber", "cdg", "dub",
                                           "edi", "fco", "gva"};
  const std::vector<std::string> airlines = {"kl", "lh", "af"};
  for (unsigned seed = 1; seed <= 4; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<size_t> city(0, cities.size() - 1);
    std::uniform_int_distribution<size_t> airline(0, airlines.size() - 1);
    std::uniform_int_distribution<int> price(20, 200);
    Database db;
    RelationSchema s;
    s.name = "flight";
    s.columns = {{"airline", ValueType::kSymbol},
                 {"src", ValueType::kSymbol},
                 {"dst", ValueType::kSymbol},
                 {"price", ValueType::kNumber}};
    Relation* flight = *db.CreateRelation(s);
    std::vector<WeightedEdge> edges;
    for (int i = 0; i < 25; ++i) {
      WeightedEdge e{cities[city(rng)], cities[city(rng)], price(rng)};
      flight->Insert({db.Str(airlines[airline(rng)]), db.Str(e.from),
                      db.Str(e.to), Value::Number(e.weight)});
      edges.push_back(e);
    }
    DatalogEngine eng;
    ASSERT_TRUE(eng.Run(Parse(kCheapest), &db).ok());
    EXPECT_EQ(LatticeRows(db, "cheapest"), RelaxOracle(edges, true))
        << "seed " << seed;
  }
}

TEST(DatalogEngineTest, NonRecursiveLatticeKeepsOneRowPerKey) {
  // Without recursion the lattice still merges: the worse of two values
  // for a key is dropped even when it was derived first.
  constexpr char kBest[] = R"(
.decl wedge(x: number, y: number, w: number)
.input wedge
.decl lo(x: number, y: number, w: number) @min
.decl hi(x: number, y: number, w: number) @max
.output lo
.output hi
lo(x, y, w) :- wedge(x, y, w).
hi(x, y, w) :- wedge(x, y, w).
)";
  std::vector<WeightedEdge> edges = {
      {"1", "2", 7}, {"1", "2", 3}, {"1", "2", 5}, {"2", "1", 4}};
  Database db = MakeWeightedDb(edges);
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kBest), &db).ok());
  BestMap lo = {{{"1", "2"}, 3}, {{"2", "1"}, 4}};
  BestMap hi = {{{"1", "2"}, 7}, {{"2", "1"}, 4}};
  EXPECT_EQ(LatticeRows(db, "lo"), lo);
  EXPECT_EQ(LatticeRows(db, "hi"), hi);
}

TEST(DatalogEngineTest, ConstraintsFilterAndBind) {
  constexpr char kFilter[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number, y: number, s: number)
.output out
out(x, y, s) :- edge(x, y), x < y, s = x + y, s >= 5.
)";
  Database db = MakeGraphDb({{1, 2}, {2, 5}, {5, 2}, {4, 4}});
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kFilter), &db).ok());
  EXPECT_EQ(NumericRows(**db.GetRelation("out")),
            (std::set<std::vector<int64_t>>{{2, 5, 7}}));
}

TEST(DatalogEngineTest, FactsAndStringConstants) {
  constexpr char kFacts[] = R"(
.decl color(name: symbol, code: number)
.output color
color("red", 1).
color("green", 2).
)";
  Database db;
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kFacts), &db).ok());
  const Relation* color = *db.GetRelation("color");
  EXPECT_EQ(color->size(), 2u);
  EXPECT_TRUE(color->Contains({db.Str("red"), Value::Number(1)}));
}

TEST(DatalogEngineTest, SameGeneration) {
  constexpr char kSg[] = R"(
.decl parent(x: number, y: number)
.input parent
.decl sg(x: number, y: number)
.output sg
sg(x, x) :- parent(x, _).
sg(x, x) :- parent(_, x).
sg(x, y) :- parent(xp, x), sg(xp, yp), parent(yp, y).
)";
  // Two families: 1->{2,3}, 2->{4}, 3->{5}. 4 and 5 are same generation.
  Database db;
  RelationSchema s;
  s.name = "parent";
  s.columns = {{"x", ValueType::kNumber}, {"y", ValueType::kNumber}};
  Relation* parent = *db.CreateRelation(s);
  for (auto [a, b] :
       std::vector<std::pair<int, int>>{{1, 2}, {1, 3}, {2, 4}, {3, 5}}) {
    parent->Insert({Value::Number(a), Value::Number(b)});
  }
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kSg), &db).ok());
  auto rows = NumericRows(**db.GetRelation("sg"));
  EXPECT_TRUE(rows.count({4, 5}));
  EXPECT_TRUE(rows.count({2, 3}));
  EXPECT_FALSE(rows.count({2, 4}));
}

TEST(DatalogEngineTest, MissingInputRelationFails) {
  Database db;
  DatalogEngine eng;
  EXPECT_EQ(eng.Run(Parse(kTc), &db).code(), StatusCode::kNotFound);
}

TEST(DatalogEngineTest, MaxIterationsGuard) {
  // Unbounded value invention: counter(x+1) :- counter(x). Never converges;
  // the guard must stop it.
  constexpr char kDiverge[] = R"(
.decl seed(x: number)
.input seed
.decl counter(x: number)
.output counter
counter(x) :- seed(x).
counter(x + 1) :- counter(x).
)";
  Database db;
  RelationSchema s;
  s.name = "seed";
  s.columns = {{"x", ValueType::kNumber}};
  Relation* seed = *db.CreateRelation(s);
  seed->Insert({Value::Number(0)});
  EvalOptions options;
  options.max_iterations = 50;
  DatalogEngine eng(options);
  Status st = eng.Run(Parse(kDiverge), &db);
  EXPECT_EQ(st.code(), StatusCode::kUnsupported);
}

TEST(DatalogEngineTest, OverwriteIdbOnRerun) {
  Database db = MakeGraphDb({{1, 2}});
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kTc), &db).ok());
  EXPECT_EQ((*db.GetRelation("tc"))->size(), 1u);
  // Add an edge and re-run; stale results must be cleared.
  (*db.GetRelation("edge"))->Insert({Value::Number(2), Value::Number(3)});
  ASSERT_TRUE(eng.Run(Parse(kTc), &db).ok());
  EXPECT_EQ((*db.GetRelation("tc"))->size(), 3u);
}

// Reusing an IDB name across programs with a *different arity* (the
// Cypher lowering does this: every query names its frontier relations
// Match1, Match2, ... on the shared database) must adopt the new
// program's declaration. A bare Clear() would keep the old schema, and
// the column-borrowing join path — which trusts arity() — would read
// past the borrowed views.
TEST(DatalogEngineTest, OverwriteIdbAdoptsNewArity) {
  Database db = MakeGraphDb({{1, 2}, {2, 3}});
  DatalogEngine eng;
  // First program: "mid" is 2-ary.
  ASSERT_TRUE(eng.Run(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl mid(x: number, y: number)
.output mid
mid(x, y) :- edge(x, y).
)"),
                      &db)
                  .ok());
  EXPECT_EQ((*db.GetRelation("mid"))->arity(), 2u);
  // Second program: same name, now 3-ary, and joined by another rule so
  // the engine borrows all three columns.
  ASSERT_TRUE(eng.Run(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl mid(x: number, y: number, tag: number)
.decl hop(x: number, z: number)
.output hop
mid(x, y, 7) :- edge(x, y).
hop(x, z) :- mid(x, y, 7), edge(y, z).
)"),
                      &db)
                  .ok());
  EXPECT_EQ((*db.GetRelation("mid"))->arity(), 3u);
  EXPECT_EQ(NumericRows(**db.GetRelation("hop")),
            (std::set<std::vector<int64_t>>{{1, 3}}));
  // And back down: 3-ary -> 2-ary reuse must shed the extra column.
  ASSERT_TRUE(eng.Run(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl mid(x: number, y: number)
.decl hop2(x: number, z: number)
.output hop2
mid(x, y) :- edge(x, y).
hop2(x, z) :- mid(x, y), edge(y, z).
)"),
                      &db)
                  .ok());
  EXPECT_EQ((*db.GetRelation("mid"))->arity(), 2u);
  EXPECT_EQ(NumericRows(**db.GetRelation("hop2")),
            (std::set<std::vector<int64_t>>{{1, 3}}));
}

// Property test: naive and semi-naive evaluation agree on random graphs.
class NaiveVsSeminaiveTest : public ::testing::TestWithParam<int> {};

TEST_P(NaiveVsSeminaiveTest, AgreeOnRandomGraphs) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<int> node(1, 12);
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 25; ++i) edges.emplace_back(node(rng), node(rng));

  Database db1 = MakeGraphDb(edges);
  Database db2 = MakeGraphDb(edges);
  EvalOptions naive;
  naive.seminaive = false;
  DatalogEngine eng_naive(naive);
  DatalogEngine eng_semi;
  ASSERT_TRUE(eng_naive.Run(Parse(kTc), &db1).ok());
  ASSERT_TRUE(eng_semi.Run(Parse(kTc), &db2).ok());
  EXPECT_EQ(NumericRows(**db1.GetRelation("tc")),
            NumericRows(**db2.GetRelation("tc")));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, NaiveVsSeminaiveTest,
                         ::testing::Range(0, 10));

// Property test: join order must not affect results.
class JoinOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinOrderTest, ReorderingPreservesResults) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 100);
  std::uniform_int_distribution<int> node(1, 10);
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 20; ++i) edges.emplace_back(node(rng), node(rng));

  constexpr char kTriangles[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tri(x: number, y: number, z: number)
.output tri
tri(x, y, z) :- edge(x, y), edge(y, z), edge(z, x).
)";
  Database db1 = MakeGraphDb(edges);
  Database db2 = MakeGraphDb(edges);
  EvalOptions ordered;
  ordered.reorder_atoms = false;
  DatalogEngine eng1(ordered);
  DatalogEngine eng2;
  ASSERT_TRUE(eng1.Run(Parse(kTriangles), &db1).ok());
  ASSERT_TRUE(eng2.Run(Parse(kTriangles), &db2).ok());
  EXPECT_EQ(NumericRows(**db1.GetRelation("tri")),
            NumericRows(**db2.GetRelation("tri")));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, JoinOrderTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace raqlet
