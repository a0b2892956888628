// Compiled-evaluation lockstep: every scenario under every sharing
// evaluator mode and thread count must evolve bit-identically with the
// reference evaluator (the AST interpreter with no bytecode, memo or
// index) — the batch VM (src/vm/) against the interpreter oracle. Also
// pins down that the scenario scripts actually compile (no silent
// interpreter fallback), that the VM really executes (batch counters
// advance), that aggregates the sharing memo does not cover still run
// the VM's batch scan, and that runtime errors surface with the
// interpreter's exact message and effect-log prefix.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/simulation.h"
#include "scenario/scenario.h"
#include "sgl/analyzer.h"
#include "vm/compiler.h"

namespace sgl {
namespace {

constexpr int64_t kTicks = 10;

std::unique_ptr<Simulation> BuildScenario(const std::string& name,
                                          EvaluatorMode mode,
                                          int32_t threads) {
  ScenarioParams params;
  params.units = 60;
  params.density = 0.02;
  params.seed = 31;
  SimulationConfig config;
  config.eval_mode = mode;
  config.threads = threads;
  auto sim = ScenarioRegistry::Global().BuildSimulation(name, params, config);
  EXPECT_TRUE(sim.ok()) << name << ": " << sim.status().ToString();
  return sim.ok() ? std::move(*sim) : nullptr;
}

using VmCase = std::tuple<std::string, EvaluatorMode, int32_t>;

class VmLockstepTest : public ::testing::TestWithParam<VmCase> {};

TEST_P(VmLockstepTest, CompiledMatchesReferenceBitExactly) {
  const auto& [name, mode, threads] = GetParam();
  auto compiled = BuildScenario(name, mode, threads);
  auto reference = BuildScenario(name, EvaluatorMode::kReference, 1);
  ASSERT_NE(compiled, nullptr);
  ASSERT_NE(reference, nullptr);

  // Every scenario script must lower to bytecode — a conservative-bail
  // regression would silently turn this whole suite into a no-op.
  for (int32_t i = 0; i < compiled->NumScripts(); ++i) {
    EXPECT_NE(compiled->session(i).compiled, nullptr)
        << name << " script '" << compiled->session(i).name
        << "' fell back to the interpreter: "
        << compiled->session(i).compile_note;
    EXPECT_EQ(reference->session(i).compiled, nullptr);
  }

  for (int64_t tick = 0; tick < kTicks; ++tick) {
    ASSERT_TRUE(compiled->Tick().ok()) << name << " compiled tick " << tick;
    ASSERT_TRUE(reference->Tick().ok()) << name << " reference tick " << tick;
    ASSERT_TRUE(compiled->table().Equals(reference->table()))
        << name << " diverged at tick " << tick << " (mode "
        << EvaluatorModeName(mode) << ", " << threads << " threads):\n"
        << compiled->table().DiffString(reference->table());
  }

  // The VM must actually have run: at least one session dispatched
  // batches, and no batch fell back to the interpreter (scenario
  // scripts are error-free).
  int64_t batches = 0;
  int64_t fallbacks = 0;
  for (int32_t i = 0; i < compiled->NumScripts(); ++i) {
    const auto& prog = *compiled->session(i).compiled;
    batches += prog.batches->value();
    fallbacks += prog.interp_fallbacks->value();
  }
  EXPECT_GT(batches, 0) << name << ": the batch VM never executed";
  EXPECT_EQ(fallbacks, 0) << name << ": unexpected interpreter fallbacks";
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, VmLockstepTest,
    ::testing::Combine(
        ::testing::ValuesIn(ScenarioRegistry::Global().List()),
        ::testing::Values(EvaluatorMode::kNaive, EvaluatorMode::kIndexed,
                          EvaluatorMode::kAdaptive),
        ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<VmCase>& info) {
      return std::get<0>(info.param) +
             std::string("_") + EvaluatorModeName(std::get<1>(info.param)) +
             "_" + std::to_string(std::get<2>(info.param)) + "t";
    });

// Under the naive evaluator the sharing memo answers only the aggregates
// it memoizes; the per-unit and demoted ones must still run the VM's
// batch scan rather than a per-row interpreter call through the memo.
TEST(VmRouteTest, NaiveScansAggregatesTheMemoDoesNotCover) {
  auto sim = BuildScenario("battle", EvaluatorMode::kNaive, 1);
  ASSERT_NE(sim, nullptr);
  ASSERT_TRUE(sim->Run(5).ok());
  EXPECT_GT(sim->mutable_metrics()
                ->GetCounter("script.battle.vm.agg_scan_probes")
                ->value(),
            0);
  EXPECT_GT(sim->shared_hits(), 0);
  const std::string explain = sim->Explain();
  EXPECT_NE(explain.find("Aggregate sharing ("), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("hits "), std::string::npos) << explain;
}

// ------------------------------------------------ custom-script contracts

Schema VmSchema() {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("player", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("posx", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("posy", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("hp", CombineType::kConst).ok());
  EXPECT_TRUE(s.AddAttribute("damage", CombineType::kSum).ok());
  return s;
}

EnvironmentTable VmWorld(const Schema& s, int32_t units) {
  EnvironmentTable t(s);
  for (int32_t i = 0; i < units; ++i) {
    // (player, posx, posy, hp, damage); hp == 0 on key 7 only.
    EXPECT_TRUE(
        t.AddRow({static_cast<double>(i % 2), static_cast<double>(i % 13),
                  static_cast<double>(i % 11), i == 7 ? 0.0 : 10.0 + i, 0})
            .ok());
  }
  return t;
}

std::unique_ptr<Simulation> BuildCustom(const char* source, EvaluatorMode mode,
                                        int32_t units = 40) {
  Schema schema = VmSchema();
  auto script = CompileScript(source, schema);
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  SimulationConfig config;
  config.eval_mode = mode;
  config.move_x_attr = "";  // no movement attrs in this schema
  auto sim = SimulationBuilder()
                 .SetTable(VmWorld(schema, units))
                 .SetConfig(config)
                 .AddScript("vm", script.MoveValue())
                 .Build();
  EXPECT_TRUE(sim.ok()) << sim.status().ToString();
  return sim.ok() ? std::move(*sim) : nullptr;
}

// A data-dependent division by zero must abort the tick with the
// interpreter's exact error message, and both engines must have emitted
// the same effect-log prefix (units before the failing one).
TEST(VmErrorTest, RuntimeErrorsAreBitExact) {
  const char* source = R"(
    action Hit(u, amount) { update e where e.player != u.player
                            set damage += amount; }
    function main(u) {
      if u.posx > 1 then perform Hit(u, 100 / u.hp);
    }
  )";
  auto compiled = BuildCustom(source, EvaluatorMode::kNaive);
  auto interpreted = BuildCustom(source, EvaluatorMode::kReference);
  ASSERT_NE(compiled, nullptr);
  ASSERT_NE(interpreted, nullptr);
  ASSERT_NE(compiled->session(0).compiled, nullptr)
      << compiled->session(0).compile_note;

  Status vm_status = compiled->Tick();
  Status interp_status = interpreted->Tick();
  ASSERT_FALSE(vm_status.ok());
  ASSERT_FALSE(interp_status.ok());
  EXPECT_EQ(vm_status.ToString(), interp_status.ToString());
  EXPECT_NE(vm_status.ToString().find("division by zero"), std::string::npos)
      << vm_status.ToString();
}

// A runtime error inside an action's update expressions: the vectorized
// action scan must apply nothing, fall back to the interpreter's
// ExecAction, and surface its exact error.
TEST(VmErrorTest, ActionUpdateErrorsAreBitExact) {
  const char* source = R"(
    action Hit(u, amount) { update e where e.player != u.player
                            set damage += amount / e.hp; }
    function main(u) {
      if u.posx > 1 then perform Hit(u, 100);
    }
  )";
  auto compiled = BuildCustom(source, EvaluatorMode::kNaive);
  auto interpreted = BuildCustom(source, EvaluatorMode::kReference);
  ASSERT_NE(compiled, nullptr);
  ASSERT_NE(interpreted, nullptr);
  ASSERT_NE(compiled->session(0).compiled, nullptr)
      << compiled->session(0).compile_note;
  // The action itself must have lowered to a scan — the error path under
  // test is the scan's buffered-discard, not a compile-time decline.
  ASSERT_EQ(compiled->session(0).compiled->action_scans.size(), 1u);
  ASSERT_NE(compiled->session(0).compiled->action_scans[0], nullptr)
      << compiled->session(0).compiled->action_notes[0];

  Status vm_status = compiled->Tick();
  Status interp_status = interpreted->Tick();
  ASSERT_FALSE(vm_status.ok());
  ASSERT_FALSE(interp_status.ok());
  EXPECT_EQ(vm_status.ToString(), interp_status.ToString());
  EXPECT_NE(vm_status.ToString().find("division by zero"), std::string::npos)
      << vm_status.ToString();
  EXPECT_TRUE(compiled->table().Equals(interpreted->table()))
      << compiled->table().DiffString(interpreted->table());
}

// Row-returning aggregates (nearest/argmin) and the action's update scan
// must vectorize — and stay lockstep with the interpreter, including
// random() draws keyed by the scanned row inside the update.
TEST(VmLockstepTest, RowAggregatesAndActionScansVectorize) {
  const char* source = R"(
    aggregate Foe(u) { select nearest(*) from E e
                       where e.player != u.player; }
    aggregate Weakest(u) { select argmin(e.hp) from E e
                           where e.player != u.player; }
    action Drain(u, cap) { update e where e.player != u.player and
                                          e.hp <= cap
                           set damage += random(3) mod 5 + 1; }
    function main(u) {
      let f = Foe(u);
      let w = Weakest(u);
      if f.found = 1 and f.dist2 <= 64 then perform Drain(u, w.hp + 20);
    }
  )";
  auto compiled = BuildCustom(source, EvaluatorMode::kNaive, 80);
  auto interpreted = BuildCustom(source, EvaluatorMode::kReference, 80);
  ASSERT_NE(compiled, nullptr);
  ASSERT_NE(interpreted, nullptr);
  ASSERT_NE(compiled->session(0).compiled, nullptr)
      << compiled->session(0).compile_note;
  const auto& prog = *compiled->session(0).compiled;
  ASSERT_EQ(prog.agg_scans.size(), 2u);
  EXPECT_NE(prog.agg_scans[0], nullptr) << prog.agg_notes[0];
  EXPECT_NE(prog.agg_scans[1], nullptr) << prog.agg_notes[1];
  ASSERT_EQ(prog.action_scans.size(), 1u);
  EXPECT_NE(prog.action_scans[0], nullptr) << prog.action_notes[0];

  for (int64_t tick = 0; tick < 15; ++tick) {
    ASSERT_TRUE(compiled->Tick().ok()) << "tick " << tick;
    ASSERT_TRUE(interpreted->Tick().ok()) << "tick " << tick;
    ASSERT_TRUE(compiled->table().Equals(interpreted->table()))
        << "diverged at tick " << tick << ":\n"
        << compiled->table().DiffString(interpreted->table());
  }
  EXPECT_GT(prog.agg_scan_probes->value(), 0);
  EXPECT_GT(prog.action_scan_execs->value(), 0);
  const std::string disasm = prog.Disassemble();
  EXPECT_NE(disasm.find("best nearest"), std::string::npos) << disasm;
  EXPECT_NE(disasm.find("vectorized update scan"), std::string::npos)
      << disasm;
}

// Scripts the conservative compiler declines run through the interpreter,
// and Explain says why.
TEST(VmCompileTest, ConditionallyBoundLocalFallsBackToInterpreter) {
  const char* source = R"(
    action Mark(u, amount) { update e where e.player = u.player
                             set damage += amount; }
    function main(u) {
      if u.hp > 50 then let bonus = 2;
      if u.hp > 90 then perform Mark(u, bonus);
    }
  )";
  auto sim = BuildCustom(source, EvaluatorMode::kNaive);
  ASSERT_NE(sim, nullptr);
  EXPECT_EQ(sim->session(0).compiled, nullptr);
  EXPECT_NE(sim->session(0).compile_note.find("conditionally bound"),
            std::string::npos)
      << sim->session(0).compile_note;
  // The interpreter path still runs the simulation.
  auto interpreted = BuildCustom(source, EvaluatorMode::kReference);
  ASSERT_NE(interpreted, nullptr);
  ASSERT_TRUE(sim->Run(3).ok());
  ASSERT_TRUE(interpreted->Run(3).ok());
  EXPECT_TRUE(sim->table().Equals(interpreted->table()))
      << sim->table().DiffString(interpreted->table());
}

// random(), function inlining, vectors, aggregates, and nested control
// flow in one script: the VM's scalar opcodes must reproduce the
// interpreter's per-unit draw keys and aggregate results exactly.
TEST(VmLockstepTest, RandomAggregatesAndInliningStayLockstep) {
  const char* source = R"(
    aggregate Center(u) { select avg(e.posx) as cx, avg(e.posy) as cy
                          from E e where e.player != u.player; }
    aggregate Threat(u, r) { select count(*) as n from E e
                             where e.player != u.player and
                                   e.posx <= u.posx + r and
                                   e.posx >= u.posx - r; }
    action Push(u, amount) { update e where e.player != u.player
                             set damage += amount; }
    function strike(u, power) {
      let roll = random(1) mod 7;
      if roll >= power then perform Push(u, roll + power);
    }
    function main(u) {
      let c = Center(u);
      let d = (u.posx, u.posy) - c;
      let t = Threat(u, 3);
      if t > 2 or u.hp mod 2 = 0 then perform strike(u, d.x mod 5);
    }
  )";
  auto compiled = BuildCustom(source, EvaluatorMode::kNaive, 80);
  auto interpreted = BuildCustom(source, EvaluatorMode::kReference, 80);
  ASSERT_NE(compiled, nullptr);
  ASSERT_NE(interpreted, nullptr);
  ASSERT_NE(compiled->session(0).compiled, nullptr)
      << compiled->session(0).compile_note;
  for (int64_t tick = 0; tick < 20; ++tick) {
    ASSERT_TRUE(compiled->Tick().ok()) << "tick " << tick;
    ASSERT_TRUE(interpreted->Tick().ok()) << "tick " << tick;
    ASSERT_TRUE(compiled->table().Equals(interpreted->table()))
        << "diverged at tick " << tick << ":\n"
        << compiled->table().DiffString(interpreted->table());
  }
}

// The compiler's stated compile-time work is visible in the bytecode:
// folded constants land in the hoisted prologue, repeated attribute loads
// CSE to one instruction, and let-aliases cost nothing.
TEST(VmCompileTest, ConstantFoldingHoistingAndLoadCse) {
  const char* source = R"(
    action Tag(u, amount) { update e where e.player = u.player
                            set damage += amount; }
    function main(u) {
      let a = 2 * 3 + 4;
      let b = u.posx + u.posx + u.posx;
      perform Tag(u, a + b);
    }
  )";
  Schema schema = VmSchema();
  auto script = CompileScript(source, schema);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  auto prog = vm::CompileProgram(*script);
  ASSERT_TRUE(prog.ok()) << prog.status().ToString();

  // 2*3+4 folds to one hoisted constant (10).
  int32_t loads = 0;
  for (const auto& in : (*prog)->code) {
    if (in.op == vm::Op::kLoadAttr) ++loads;
  }
  EXPECT_EQ(loads, 1) << "u.posx should load once:\n" << (*prog)->Disassemble();
  EXPECT_GE((*prog)->num_hoisted, 1);
  bool has_ten = false;
  for (double c : (*prog)->consts) has_ten |= c == 10.0;
  EXPECT_TRUE(has_ten) << "2*3+4 was not folded:\n" << (*prog)->Disassemble();
  const std::string disasm = (*prog)->Disassemble();
  EXPECT_NE(disasm.find("hoisted"), std::string::npos) << disasm;
}

}  // namespace
}  // namespace sgl
