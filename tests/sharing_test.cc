// Aggregate-sharing tests: the cross-unit memoization layer
// (src/opt/sharing.h) must never change what a simulation computes —
// only how often the evaluators below it run. Every registered scenario
// runs 50 ticks in lockstep against the reference evaluator (no sharing
// layer) across all three sharing evaluator modes and {1, 4} worker
// threads; a compiler-declined script does the same under the indexed
// and adaptive modes (interpreter + memo + provider); classification is
// unit-tested per class; structurally identical aggregates in different
// scripts must dedup to one shared memo slot; the publish-once slot is
// hammered from four workers (the TSan CI job runs this suite); and the
// EXPLAIN transcript must name every class and counter.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/simulation.h"
#include "opt/sharing.h"
#include "opt/signature.h"
#include "scenario/scenario.h"
#include "sgl/analyzer.h"

namespace sgl {
namespace {

constexpr int64_t kTicks = 50;

ScenarioParams SmallParams() {
  ScenarioParams params;
  params.units = 150;
  params.density = 0.02;
  params.seed = 11;
  return params;
}

std::unique_ptr<Simulation> BuildOrDie(const std::string& name,
                                       const ScenarioParams& params,
                                       EvaluatorMode mode, int32_t threads) {
  SimulationConfig config;
  config.eval_mode = mode;
  config.threads = threads;
  auto sim = ScenarioRegistry::Global().BuildSimulation(name, params, config);
  EXPECT_TRUE(sim.ok()) << name << ": " << sim.status().ToString();
  return sim.ok() ? std::move(*sim) : nullptr;
}

Schema TestSchema() {
  Schema s;
  (void)s.AddAttribute("team", CombineType::kConst);
  (void)s.AddAttribute("posx", CombineType::kConst);
  (void)s.AddAttribute("posy", CombineType::kConst);
  (void)s.AddAttribute("gold", CombineType::kConst);
  (void)s.AddAttribute("hp", CombineType::kConst);
  (void)s.AddAttribute("dmg", CombineType::kSum);
  return s;
}

// ---------------------------------------------------------------- lockstep

/// The reference evaluator's table after each of `ticks` ticks.
std::vector<EnvironmentTable> ReferenceTrace(Simulation* reference,
                                             int64_t ticks) {
  std::vector<EnvironmentTable> trace;
  for (int64_t tick = 0; tick < ticks; ++tick) {
    const Status st = reference->Tick();
    EXPECT_TRUE(st.ok()) << "reference tick " << tick << ": "
                         << st.ToString();
    trace.push_back(reference->table().Clone());
  }
  return trace;
}

/// Tick `sim` in lockstep with a recorded reference trace.
void ExpectLockstep(Simulation* sim,
                    const std::vector<EnvironmentTable>& trace) {
  for (size_t tick = 0; tick < trace.size(); ++tick) {
    ASSERT_TRUE(sim->Tick().ok()) << "tick " << tick;
    ASSERT_TRUE(sim->table().Equals(trace[tick]))
        << "diverged at tick " << tick << ":\n"
        << sim->table().DiffString(trace[tick]);
  }
}

// Every sharing evaluator mode must be bit-exact with the reference
// evaluator after every tick, for every scenario and thread count.
TEST(SharingLockstepTest, EveryModeMatchesReference) {
  const ScenarioParams params = SmallParams();
  for (const std::string& scenario : ScenarioRegistry::Global().List()) {
    auto reference =
        BuildOrDie(scenario, params, EvaluatorMode::kReference, 1);
    ASSERT_NE(reference, nullptr);
    EXPECT_EQ(reference->sharing(), nullptr);
    const std::vector<EnvironmentTable> trace =
        ReferenceTrace(reference.get(), kTicks);
    for (EvaluatorMode mode :
         {EvaluatorMode::kNaive, EvaluatorMode::kIndexed,
          EvaluatorMode::kAdaptive}) {
      for (int32_t threads : {1, 4}) {
        SCOPED_TRACE(scenario + " / " + EvaluatorModeName(mode) + " / " +
                     std::to_string(threads) + " threads");
        auto sim = BuildOrDie(scenario, params, mode, threads);
        ASSERT_NE(sim, nullptr);
        ASSERT_NE(sim->sharing(), nullptr);
        ExpectLockstep(sim.get(), trace);
        ASSERT_TRUE(ScenarioRegistry::Global()
                        .CheckInvariants(scenario, params, *sim)
                        .ok());
      }
    }
  }
}

// A script the bytecode compiler declines keeps the interpreter, which
// then probes through the sharing memo and the physical provider — the
// one route no scenario script takes. It must match the reference too.
TEST(SharingLockstepTest, InterpretedScriptMatchesReference) {
  // The conditionally bound local makes the compiler decline; the three
  // aggregates cover the unit-invariant, partition-keyed and per-unit
  // classes.
  const char* kScript =
      "aggregate Total(u) { select sum(e.gold) from E e; }\n"
      "aggregate Mates(u) { select count(*) from E e "
      "where e.team = u.team; }\n"
      "aggregate Near(u) { select count(*) from E e "
      "where e.key <> u.key and e.posx >= u.posx - 4 and "
      "e.posx <= u.posx + 4; }\n"
      "action Hit(u, amount) { update e where e.team <> u.team and "
      "e.posx >= u.posx - 2 and e.posx <= u.posx + 2 set dmg += amount; }\n"
      "function main(u) {\n"
      "  if u.hp > 5 then let bonus = 2;\n"
      "  if u.hp > 8 then\n"
      "    perform Hit(u, bonus + Mates(u) + Total(u) mod 3 + Near(u));\n"
      "}";
  Schema schema = TestSchema();
  auto posx = schema.Require("posx");
  auto dmg = schema.Require("dmg");
  ASSERT_TRUE(posx.ok() && dmg.ok());
  const AttrId x = *posx;
  const AttrId d = *dmg;
  auto build = [&](EvaluatorMode mode,
                   int32_t threads) -> std::unique_ptr<Simulation> {
    auto script = CompileScript(kScript, schema);
    EXPECT_TRUE(script.ok()) << script.status().ToString();
    if (!script.ok()) return nullptr;
    EnvironmentTable table(schema);
    for (int32_t i = 0; i < 120; ++i) {
      EXPECT_TRUE(table
                      .AddRow({static_cast<double>(i % 3),
                               static_cast<double>((i * 7) % 50), 0,
                               static_cast<double>(1 + i % 9),
                               static_cast<double>(i % 12), 0})
                      .ok());
    }
    SimulationConfig config;
    config.eval_mode = mode;
    config.threads = threads;
    config.move_x_attr.clear();
    // Damage moves units along x, so the probes see a changing world.
    auto sim = SimulationBuilder()
                   .SetTable(std::move(table))
                   .SetConfig(config)
                   .AddScript("declined", script.MoveValue())
                   .OnApplyEffects([x, d](EnvironmentTable* t,
                                          const EffectBuffer&,
                                          const TickRandom&) {
                     for (RowId r = 0; r < t->NumRows(); ++r) {
                       t->Set(r, x,
                              std::fmod(t->Get(r, x) + t->Get(r, d), 50.0));
                     }
                     return Status::OK();
                   })
                   .Build();
    EXPECT_TRUE(sim.ok()) << sim.status().ToString();
    return sim.ok() ? std::move(*sim) : nullptr;
  };
  auto reference = build(EvaluatorMode::kReference, 1);
  ASSERT_NE(reference, nullptr);
  const std::vector<EnvironmentTable> trace =
      ReferenceTrace(reference.get(), 20);
  for (EvaluatorMode mode :
       {EvaluatorMode::kIndexed, EvaluatorMode::kAdaptive}) {
    for (int32_t threads : {1, 4}) {
      SCOPED_TRACE(std::string(EvaluatorModeName(mode)) + " / " +
                   std::to_string(threads) + " threads");
      auto sim = build(mode, threads);
      ASSERT_NE(sim, nullptr);
      ASSERT_EQ(sim->session(0).compiled, nullptr)
          << "the compiler accepted the script; the interpreter route is "
             "no longer covered";
      ExpectLockstep(sim.get(), trace);
      EXPECT_GT(sim->shared_hits(), 0);
    }
  }
}

// Published entry counts are pure per-tick key counts — identical for
// any worker-thread count (hit/compute splits may race; entries not).
TEST(SharingLockstepTest, MemoEntriesAreThreadCountInvariant) {
  const ScenarioParams params = SmallParams();
  for (const std::string& scenario : {"market", "epidemic", "ctf"}) {
    auto one = BuildOrDie(scenario, params, EvaluatorMode::kIndexed, 1);
    auto four = BuildOrDie(scenario, params, EvaluatorMode::kIndexed, 4);
    ASSERT_NE(one, nullptr);
    ASSERT_NE(four, nullptr);
    ASSERT_TRUE(one->Run(20).ok());
    ASSERT_TRUE(four->Run(20).ok());
    EXPECT_EQ(one->memo_entries(), four->memo_entries()) << scenario;
  }
}

// ---------------------------------------------------------- classification

/// Compile a script whose first aggregate is the declaration under test
/// and return its sharing plan.
SharingPlan PlanOf(const std::string& aggregate_decl) {
  const std::string source =
      aggregate_decl + "\nfunction main(u) { let x = Probe(u" +
      (aggregate_decl.find("Probe(u, p)") != std::string::npos ? ", 1" : "") +
      "); }\n";
  auto script = CompileScript(source, TestSchema());
  EXPECT_TRUE(script.ok()) << script.status().ToString();
  if (!script.ok()) return SharingPlan{};
  auto sig = ExtractSignature(*script, 0);
  EXPECT_TRUE(sig.ok()) << sig.status().ToString();
  if (!sig.ok()) return SharingPlan{};
  return ClassifySharing(*script, *sig);
}

TEST(SharingClassifyTest, GlobalSumIsUnitInvariant) {
  SharingPlan plan =
      PlanOf("aggregate Probe(u) { select sum(e.gold) from E e; }");
  EXPECT_EQ(plan.cls, SharingClass::kUnitInvariant);
  EXPECT_TRUE(plan.key_exprs.empty());
  EXPECT_TRUE(plan.key_params.empty());
}

TEST(SharingClassifyTest, BuildFilteredGlobalIsUnitInvariant) {
  SharingPlan plan = PlanOf(
      "aggregate Probe(u) { select count(*) from E e where e.hp > 2; }");
  EXPECT_EQ(plan.cls, SharingClass::kUnitInvariant);
}

TEST(SharingClassifyTest, ParamBoundKeysOnScalarArgument) {
  SharingPlan plan = PlanOf(
      "aggregate Probe(u, p) { select argmin(e.gold) from E e "
      "where e.hp >= p; }");
  EXPECT_EQ(plan.cls, SharingClass::kPartitionKeyed);
  EXPECT_TRUE(plan.key_exprs.empty());  // raw args beat re-evaluation
  ASSERT_EQ(plan.key_params.size(), 1u);
  EXPECT_EQ(plan.key_params[0], 0);
}

TEST(SharingClassifyTest, UnusedParamDoesNotKey) {
  SharingPlan plan =
      PlanOf("aggregate Probe(u, p) { select sum(e.gold) from E e; }");
  EXPECT_EQ(plan.cls, SharingClass::kUnitInvariant);
}

TEST(SharingClassifyTest, UnitBoxKeysOnEvaluatedBounds) {
  SharingPlan plan = PlanOf(
      "aggregate Probe(u) { select count(*) from E e "
      "where e.posx >= u.posx - 5 and e.posx <= u.posx + 5; }");
  EXPECT_EQ(plan.cls, SharingClass::kPartitionKeyed);
  EXPECT_EQ(plan.key_exprs.size(), 2u);  // the two bounds
  EXPECT_TRUE(plan.key_params.empty());
}

TEST(SharingClassifyTest, PartitionValueKeysOnUnitAttribute) {
  SharingPlan plan = PlanOf(
      "aggregate Probe(u) { select count(*) from E e "
      "where e.team = u.team; }");
  EXPECT_EQ(plan.cls, SharingClass::kPartitionKeyed);
  EXPECT_EQ(plan.key_exprs.size(), 1u);  // the partition value
}

TEST(SharingClassifyTest, SelfExclusionIsPerUnit) {
  SharingPlan plan = PlanOf(
      "aggregate Probe(u) { select count(*) from E e "
      "where e.key <> u.key; }");
  EXPECT_EQ(plan.cls, SharingClass::kPerUnit);
  EXPECT_NE(plan.reason.find("self-excluding"), std::string::npos);
}

TEST(SharingClassifyTest, NearestIsPerUnit) {
  SharingPlan plan =
      PlanOf("aggregate Probe(u) { select nearest(*) from E e; }");
  EXPECT_EQ(plan.cls, SharingClass::kPerUnit);
  EXPECT_NE(plan.reason.find("position"), std::string::npos);
}

TEST(SharingClassifyTest, NonIndexableWithoutUnitSharesToo) {
  // min + sum in one select forces the naive fallback — but the whole
  // declaration references no unit attribute, so the reference scan's
  // result is still unit-invariant and shareable.
  SharingPlan plan = PlanOf(
      "aggregate Probe(u) { select min(e.gold) as a, sum(e.gold) as b "
      "from E e; }");
  EXPECT_EQ(plan.cls, SharingClass::kUnitInvariant);
}

TEST(SharingClassifyTest, NonIndexableWithUnitIsPerUnit) {
  SharingPlan plan = PlanOf(
      "aggregate Probe(u) { select min(e.gold + u.gold) as a, "
      "sum(e.gold) as b from E e; }");
  EXPECT_EQ(plan.cls, SharingClass::kPerUnit);
}

TEST(SharingClassifyTest, FingerprintKeepsFullLiteralPrecision) {
  // Constants differing only beyond 6 significant digits must not merge
  // into one dedup group (one declaration's memoized value would be
  // served for the other): literals print with round-trip precision.
  auto a = CompileScript(
      "aggregate Probe(u) { select count(*) from E e "
      "where e.posx < 1000000.25; }\n"
      "function main(u) { let x = Probe(u); }",
      TestSchema());
  auto b = CompileScript(
      "aggregate Probe(u) { select count(*) from E e "
      "where e.posx < 1000000.75; }\n"
      "function main(u) { let x = Probe(u); }",
      TestSchema());
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(CanonicalAggregateFingerprint(*a, 0),
            CanonicalAggregateFingerprint(*b, 0));
}

TEST(SharingClassifyTest, CanonicalFingerprintIgnoresSpelling) {
  auto a = CompileScript(
      "aggregate TotalGold(u) { select sum(e.gold) from E e; }\n"
      "function main(u) { let g = TotalGold(u); }",
      TestSchema());
  auto b = CompileScript(
      "aggregate Wealth(v) { select sum(w.gold) from E w; }\n"
      "function main(v) { let g = Wealth(v); }",
      TestSchema());
  auto c = CompileScript(
      "aggregate Other(u) { select sum(e.hp) from E e; }\n"
      "function main(u) { let g = Other(u); }",
      TestSchema());
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(CanonicalAggregateFingerprint(*a, 0),
            CanonicalAggregateFingerprint(*b, 0));
  EXPECT_NE(CanonicalAggregateFingerprint(*a, 0),
            CanonicalAggregateFingerprint(*c, 0));
}

// ------------------------------------------------------- cross-script dedup

TEST(SharingDedupTest, IdenticalAggregatesAcrossScriptsShareOneSlot) {
  const char* kScriptA =
      "aggregate TotalGold(u) { select sum(e.gold) from E e; }\n"
      "function main(u) { let g = TotalGold(u); }";
  const char* kScriptB =
      "aggregate Wealth(v) { select sum(w.gold) from E w; }\n"
      "function main(v) { let g = Wealth(v); }";
  Schema schema = TestSchema();
  auto a = CompileScript(kScriptA, schema);
  auto b = CompileScript(kScriptB, schema);
  ASSERT_TRUE(a.ok() && b.ok());

  EnvironmentTable table(schema);
  constexpr int32_t kUnits = 40;
  for (int32_t i = 0; i < kUnits; ++i) {
    ASSERT_TRUE(
        table.AddRow({static_cast<double>(i % 2), static_cast<double>(i), 0,
                      static_cast<double>(1 + i % 5), 10, 0})
            .ok());
  }
  SimulationConfig config;
  config.eval_mode = EvaluatorMode::kIndexed;
  config.move_x_attr.clear();
  config.move_y_attr.clear();
  auto sim = SimulationBuilder()
                 .SetTable(std::move(table))
                 .SetConfig(config)
                 .DispatchBy("team")
                 .AddScript("alpha", std::move(*a), 0)
                 .AddScript("beta", std::move(*b), 1)
                 .Build();
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();

  const SharingContext* ctx = (*sim)->sharing();
  ASSERT_NE(ctx, nullptr);
  ASSERT_EQ(ctx->NumGroups(), 1);  // one dedup group across both scripts
  ASSERT_EQ(ctx->GroupMembers(0).size(), 2u);
  EXPECT_EQ(ctx->GroupMembers(0)[0], "alpha.TotalGold");
  EXPECT_EQ(ctx->GroupMembers(0)[1], "beta.Wealth");

  constexpr int64_t kRunTicks = 20;
  ASSERT_TRUE((*sim)->Run(kRunTicks).ok());
  // One compute per tick serves both scripts: units x ticks calls, one
  // published entry per tick, everything else a hit (single-threaded, so
  // the split is exact).
  EXPECT_EQ((*sim)->memo_entries(), kRunTicks);
  EXPECT_EQ((*sim)->shared_hits(),
            static_cast<int64_t>(kUnits) * kRunTicks - kRunTicks);
}

// ---------------------------------------------------------------- demotion

TEST(SharingDemotionTest, NearUniqueKeysDemoteToPerUnit) {
  // Every unit probes a box around its own distinct position: one key
  // per unit per tick. The first tick's (calls, entries) totals must
  // deterministically demote the group before tick 2.
  const char* kScript =
      "aggregate NearMe(u) { select count(*) from E e "
      "where e.posx >= u.posx - 1 and e.posx <= u.posx + 1; }\n"
      "function main(u) { let c = NearMe(u); }";
  Schema schema = TestSchema();
  auto script = CompileScript(kScript, schema);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EnvironmentTable table(schema);
  for (int32_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        table.AddRow({0, static_cast<double>(3 * i), 0, 1, 10, 0}).ok());
  }
  SimulationConfig config;
  config.eval_mode = EvaluatorMode::kIndexed;
  config.move_x_attr.clear();
  config.move_y_attr.clear();
  auto sim = SimulationBuilder()
                 .SetTable(std::move(table))
                 .SetConfig(config)
                 .AddScript("solo", std::move(*script))
                 .Build();
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  ASSERT_TRUE((*sim)->Run(3).ok());

  const std::string explain = (*sim)->Explain();
  EXPECT_NE(explain.find("demoted: keys nearly unique per probe"),
            std::string::npos)
      << explain;
  // Only tick 1 published entries; the demoted group stops memoizing.
  EXPECT_EQ((*sim)->memo_entries(), 200);
  EXPECT_EQ((*sim)->shared_hits(), 0);
}

// ------------------------------------------------------------ publish-once

TEST(SharingPublishOnceTest, ConcurrentWorkersAgreeOnOneSlot) {
  // A single unit-invariant aggregate probed by every unit from four
  // workers: all shards race to publish the slot on every tick; exactly
  // one entry per tick may win (TSan validates the synchronization).
  const char* kScript =
      "aggregate Total(u) { select sum(e.gold) as g, count(*) as n "
      "from E e; }\n"
      "action Tax(u, g) { update e where e.key = u.key set dmg += g; }\n"
      "function main(u) { let t = Total(u); perform Tax(u, t.g - t.g + 1); }";
  Schema schema = TestSchema();
  auto script = CompileScript(kScript, schema);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EnvironmentTable table(schema);
  for (int32_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        table.AddRow({0, static_cast<double>(i), 0, 2, 10, 0}).ok());
  }
  SimulationConfig config;
  config.eval_mode = EvaluatorMode::kIndexed;
  config.threads = 4;
  config.move_x_attr.clear();
  config.move_y_attr.clear();
  auto sim = SimulationBuilder()
                 .SetTable(std::move(table))
                 .SetConfig(config)
                 .AddScript("solo", std::move(*script))
                 .Build();
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  constexpr int64_t kRunTicks = 10;
  ASSERT_TRUE((*sim)->Run(kRunTicks).ok());
  EXPECT_EQ((*sim)->memo_entries(), kRunTicks);
}

// ----------------------------------------------------------------- explain

TEST(SharingExplainTest, TranscriptListsClassesAndCounters) {
  auto sim = BuildOrDie("market", SmallParams(), EvaluatorMode::kAdaptive, 1);
  ASSERT_NE(sim, nullptr);
  ASSERT_TRUE(sim->Run(10).ok());
  const std::string explain = sim->Explain();
  EXPECT_NE(explain.find("evaluator: adaptive"), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("Aggregate sharing ("), std::string::npos)
      << explain;
  EXPECT_NE(explain.find("[unit-invariant] market.Market"),
            std::string::npos)
      << explain;
  EXPECT_NE(explain.find("[partition-keyed] market.PoorestBuyer"),
            std::string::npos)
      << explain;
  EXPECT_NE(explain.find("calls "), std::string::npos) << explain;
  EXPECT_NE(explain.find("hits "), std::string::npos) << explain;
  // The reference evaluator has no sharing layer: the block disappears
  // and the header names the evaluator.
  auto reference =
      BuildOrDie("market", SmallParams(), EvaluatorMode::kReference, 1);
  ASSERT_NE(reference, nullptr);
  const std::string ref_explain = reference->Explain();
  EXPECT_NE(ref_explain.find("evaluator: reference"), std::string::npos)
      << ref_explain;
  EXPECT_EQ(ref_explain.find("Aggregate sharing ("), std::string::npos)
      << ref_explain;
}

TEST(SharingExplainTest, PerUnitAggregatesListTheirReason) {
  auto sim = BuildOrDie("battle", SmallParams(), EvaluatorMode::kIndexed, 1);
  ASSERT_NE(sim, nullptr);
  ASSERT_TRUE(sim->Run(5).ok());
  const std::string explain = sim->Explain();
  EXPECT_NE(explain.find("[per-unit]"), std::string::npos) << explain;
}

}  // namespace
}  // namespace sgl
