// Table-driven error-path coverage: every malformed program must fail
// with the right status code and a message pointing at the problem — a
// modder-facing language lives or dies by its diagnostics.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "engine/simulation.h"
#include "game/battle.h"
#include "scenario/scenario.h"
#include "sgl/analyzer.h"

namespace sgl {
namespace {

struct BadCase {
  const char* name;
  const char* source;
  StatusCode code;
  const char* message_fragment;
};

class Diagnostics : public ::testing::TestWithParam<BadCase> {};

TEST_P(Diagnostics, FailsWithUsefulMessage) {
  const BadCase& c = GetParam();
  auto script = CompileScript(c.source, BattleSchema());
  ASSERT_FALSE(script.ok()) << c.name << " unexpectedly compiled";
  EXPECT_EQ(c.code, script.status().code()) << script.status().ToString();
  EXPECT_NE(std::string::npos,
            script.status().message().find(c.message_fragment))
      << "message was: " << script.status().ToString();
}

const BadCase kBadCases[] = {
    // ---- lexer ----
    {"StrayCharacter", "function main(u) { let x = $3; }",
     StatusCode::kParseError, "unexpected character"},
    // ---- parser ----
    {"MissingSemicolon", "const A = 3", StatusCode::kParseError, "';'"},
    {"EmptyParamList", "function main() { }", StatusCode::kParseError,
     "at least the unit tuple"},
    {"UnterminatedBlock", "function main(u) { let x = 1;",
     StatusCode::kParseError, "statement"},
    {"BadAggregateFunction",
     "aggregate A(u) { select median(e.health) from E e; }\n"
     "function main(u) { let x = A(u); }",
     StatusCode::kParseError, "median"},
    {"SelectWithoutFrom",
     "aggregate A(u) { select count(*) where e.posx > 1; }\n"
     "function main(u) { let x = A(u); }",
     StatusCode::kParseError, "'from'"},
    {"UpdateWithoutSet",
     "action A(u) { update e where e.key = u.key; }\n"
     "function main(u) { perform A(u); }",
     StatusCode::kParseError, "'set'"},
    {"PerformWithoutParens", "function main(u) { perform Fire; }",
     StatusCode::kParseError, "'('"},
    {"DanglingElse", "function main(u) { else perform F(u); }",
     StatusCode::kParseError, "statement"},
    // ---- analyzer: names ----
    {"UnknownAttribute",
     "function main(u) { if u.wisdom > 3 then perform A(u); }\n"
     "action A(u) { update e where e.key = u.key set damage += 1; }",
     StatusCode::kAnalysisError, "wisdom"},
    {"UnknownLocal",
     "action A(u, v) { update e where e.key = u.key set damage += v; }\n"
     "function main(u) { perform A(u, ghost); }",
     StatusCode::kAnalysisError, "ghost"},
    {"UnknownAction", "function main(u) { perform Fireball(u); }",
     StatusCode::kAnalysisError, "Fireball"},
    {"UnknownAggregate", "function main(u) { let x = Census(u); }",
     StatusCode::kAnalysisError, "Census"},
    {"DuplicateConst", "const A = 1; const A = 2;\nfunction main(u) { ; }",
     StatusCode::kAnalysisError, "duplicate const"},
    {"DuplicateFunction",
     "function f(u) { ; }\nfunction f(u) { ; }\nfunction main(u) { ; }",
     StatusCode::kAnalysisError, "duplicate function"},
    // ---- analyzer: typing / tags ----
    {"EffectOnConst",
     "action A(u) { update e where e.key = u.key set health += 5; }\n"
     "function main(u) { perform A(u); }",
     StatusCode::kAnalysisError, "const state"},
    {"SumOpOnMaxAttr",
     "action A(u) { update e where e.key = u.key set inaura += 5; }\n"
     "function main(u) { perform A(u); }",
     StatusCode::kAnalysisError, "combine tag"},
    {"MaxOpOnSumAttr",
     "action A(u) { update e where e.key = u.key set damage max= 5; }\n"
     "function main(u) { perform A(u); }",
     StatusCode::kAnalysisError, "combine tag"},
    // ---- analyzer: structure ----
    {"RandomInAggregate",
     "aggregate A(u) { select sum(e.health) from E e "
     "where e.health > random(1) mod 5; }\n"
     "function main(u) { let x = A(u); }",
     StatusCode::kAnalysisError, "random"},
    {"AggregateInAggregateArg",
     "aggregate N(u) { select count(*) from E e; }\n"
     "aggregate M(u, t) { select count(*) from E e where e.health > t; }\n"
     "function main(u) { let x = M(u, N(u)); }",
     StatusCode::kAnalysisError, "aggregate"},
    {"SelfRecursion",
     "function main(u) { perform main(u); }",
     StatusCode::kAnalysisError, "recursive"},
    {"MutualRecursion",
     "function a(u) { perform b(u); }\nfunction b(u) { perform a(u); }\n"
     "function main(u) { perform a(u); }",
     StatusCode::kAnalysisError, "recursive"},
    {"ArityMismatch",
     "aggregate A(u, r) { select count(*) from E e where e.posx <= r; }\n"
     "function main(u) { let x = A(u); }",
     StatusCode::kAnalysisError, "expects"},
    {"TupleAsValue",
     "action A(u, v) { update e where e.key = u.key set damage += v; }\n"
     "function main(u) { perform A(u, u); }",
     StatusCode::kAnalysisError, "unit tuple"},
    {"ShadowedLet",
     "function main(u) { let a = 1; let a = 2; }",
     StatusCode::kAnalysisError, "shadow"},
    {"RowFuncWithSibling",
     "aggregate A(u) { select nearest(*), count(*) from E e; }\n"
     "function main(u) { let x = A(u); }",
     StatusCode::kAnalysisError, "only select item"},
    {"MainWithExtraParams",
     "function main(u, extra) { ; }",
     StatusCode::kAnalysisError, "exactly one parameter"},
};

INSTANTIATE_TEST_SUITE_P(
    Cases, Diagnostics, ::testing::ValuesIn(kBadCases),
    [](const ::testing::TestParamInfo<BadCase>& info) {
      return info.param.name;
    });

// Error messages carry source line numbers where available.
TEST(Diagnostics, ParseErrorsCarryLines) {
  auto r = CompileScript("function main(u) {\n\n  let = 1;\n}", BattleSchema());
  ASSERT_FALSE(r.ok());
  EXPECT_NE(std::string::npos, r.status().message().find("line 3"));
}

TEST(Diagnostics, AnalysisErrorsNameTheSchema) {
  auto r = CompileScript("function main(u) { if u.mana > 1 then ; }",
                         BattleSchema());
  ASSERT_FALSE(r.ok());
}

// ---- Explain(): the per-script "Bytecode" block ----

std::unique_ptr<Simulation> ExplainSim(EvaluatorMode mode) {
  SimulationConfig config;
  config.eval_mode = mode;
  auto sim = ScenarioRegistry::Global().BuildSimulation(
      "battle", ScenarioParams{80, 0.02, 5}, config);
  EXPECT_TRUE(sim.ok()) << sim.status().ToString();
  return sim.ok() ? std::move(*sim) : nullptr;
}

TEST(Diagnostics, ExplainShowsBytecodeDisassembly) {
  auto sim = ExplainSim(EvaluatorMode::kIndexed);
  ASSERT_NE(sim, nullptr);
  const std::string explain = sim->Explain();
  EXPECT_NE(std::string::npos, explain.find("compiled: on"));
  EXPECT_NE(std::string::npos, explain.find("-- Bytecode --"));
  // Static opcode accounting: batch vs scalar split, register budget, and
  // the hoisted-constant prologue annotation in the disassembly.
  EXPECT_NE(std::string::npos, explain.find("hoisted consts"));
  EXPECT_NE(std::string::npos, explain.find("batch"));
  EXPECT_NE(std::string::npos, explain.find("scalar"));
  EXPECT_NE(std::string::npos, explain.find("hoisted (unit-invariant)"));
  // Before any tick runs there is nothing to report under "executed:".
  EXPECT_EQ(std::string::npos, explain.find("executed:"));

  ASSERT_TRUE(sim->Run(2).ok());
  const std::string after = sim->Explain();
  EXPECT_NE(std::string::npos, after.find("executed:"));
  EXPECT_NE(std::string::npos, after.find("batch dispatches"));
}

TEST(Diagnostics, EvaluatorModeNamesRoundTrip) {
  for (EvaluatorMode mode :
       {EvaluatorMode::kReference, EvaluatorMode::kNaive,
        EvaluatorMode::kIndexed, EvaluatorMode::kAdaptive}) {
    auto parsed = ParseEvaluatorMode(EvaluatorModeName(mode));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(*parsed, mode);
  }
  auto bogus = ParseEvaluatorMode("interpreted");
  ASSERT_FALSE(bogus.ok());
  EXPECT_NE(std::string::npos, bogus.status().message().find("reference"));
}

TEST(Diagnostics, ExplainReportsReferenceEvaluator) {
  auto sim = ExplainSim(EvaluatorMode::kReference);
  ASSERT_NE(sim, nullptr);
  const std::string explain = sim->Explain();
  EXPECT_NE(std::string::npos, explain.find("evaluator: reference"));
  EXPECT_NE(std::string::npos, explain.find("compiled: off"));
  EXPECT_NE(std::string::npos, explain.find("reference evaluator"));
  EXPECT_EQ(std::string::npos, explain.find("compiled: on"));
}

}  // namespace
}  // namespace sgl
