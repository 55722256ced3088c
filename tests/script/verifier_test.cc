#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/reflect.h"
#include "core/world.h"
#include "script/analyzer.h"
#include "script/bindings.h"
#include "script/builtins.h"
#include "script/host.h"
#include "script/lint_report.h"
#include "script/parser.h"
#include "script/triggers.h"
#include "views/maintainer.h"

// Tests for the multi-pass load-time verifier (script/analyzer.h Verify):
// phase safety, schema bindings, static cost and the multi-error
// DiagnosticSink contract. The historical fail-fast Analyze() surface keeps
// its own suite in analyzer_test.cc.

namespace gamedb::script {
namespace {

class VerifierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterStandardComponents();
    RegisterCoreBuiltins(&interp_);
    BindWorld(&interp_, &world_, nullptr, WorldBindOptions{});
    BindViews(&interp_, &catalog_);
    triggers_.InstallFireBuiltin();
  }

  /// Parses `src` and runs the full verifier into `sink`.
  VerifyReport Run(std::string_view src, VerifierOptions opts,
                   DiagnosticSink* sink) {
    auto parsed = Parse(src, "test.gsl");
    EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
    if (!opts.is_builtin) {
      opts.is_builtin = [this](const std::string& n) {
        return interp_.IsBuiltin(n);
      };
    }
    if (!opts.schema.has_component) opts.schema = ReflectionSchema();
    return Verify(*parsed, opts, sink);
  }

  static bool HasError(const DiagnosticSink& sink, DiagPass pass,
                       const std::string& needle) {
    for (const auto& d : sink.diagnostics()) {
      if (d.severity == Severity::kError && d.pass == pass &&
          d.message.find(needle) != std::string::npos) {
        return true;
      }
    }
    return false;
  }

  World world_;
  views::ViewCatalog catalog_{&world_};
  Interpreter interp_;
  TriggerSystem triggers_{&interp_};
};

// ---------------------------------------------------------------------------
// Phase pass

TEST_F(VerifierTest, DirectWriteRejectedInReadOnlyPhase) {
  const char* src = R"(fn t(e) {
  set(e, "Health", "hp", 0)
})";
  VerifierOptions opts;
  opts.phase = PhaseContext::kParallelReject;
  DiagnosticSink sink;
  Run(src, opts, &sink);
  ASSERT_TRUE(sink.has_errors());
  ASSERT_EQ(sink.diagnostics().size(), 1u);
  const Diagnostic& d = sink.diagnostics()[0];
  EXPECT_EQ(d.pass, DiagPass::kPhase);
  EXPECT_NE(d.message.find("read-only"), std::string::npos) << d.message;
  EXPECT_EQ(d.loc.line, 2);
  EXPECT_GT(d.loc.col, 0);
  EXPECT_EQ(d.origin, "test.gsl");

  // The identical script is fine where writes defer (gated) or run direct.
  for (PhaseContext ok_phase :
       {PhaseContext::kSequential, PhaseContext::kParallelDefer}) {
    VerifierOptions vo;
    vo.phase = ok_phase;
    DiagnosticSink clean;
    Run(src, vo, &clean);
    EXPECT_FALSE(clean.has_errors()) << clean.ToString();
  }
}

TEST_F(VerifierTest, SpawnRejectedInBothParallelPhases) {
  const char* src = "fn t(e) { spawn() }";
  for (PhaseContext phase :
       {PhaseContext::kParallelDefer, PhaseContext::kParallelReject}) {
    VerifierOptions opts;
    opts.phase = phase;
    DiagnosticSink sink;
    Run(src, opts, &sink);
    EXPECT_TRUE(HasError(sink, DiagPass::kPhase, "spawn()"))
        << PhaseContextName(phase) << ": " << sink.ToString();
    // Message mirrors the runtime rejection text designers already know.
    EXPECT_TRUE(HasError(sink, DiagPass::kPhase, "apply phase"));
  }
  VerifierOptions seq;
  seq.phase = PhaseContext::kSequential;
  DiagnosticSink sink;
  Run(src, seq, &sink);
  EXPECT_FALSE(sink.has_errors()) << sink.ToString();
}

TEST_F(VerifierTest, EffectsPropagateTransitivelyThroughHelpers) {
  // The write is two calls deep; only the effect analysis sees it.
  const char* src = R"(fn inner(e) { set(e, "Health", "hp", 1) }
fn outer(e) { inner(e) }
fn t(e) { outer(e) })";
  VerifierOptions opts;
  opts.phase = PhaseContext::kParallelReject;
  DiagnosticSink sink;
  VerifyReport report = Run(src, opts, &sink);
  EXPECT_TRUE(HasError(sink, DiagPass::kPhase, "read-only"))
      << sink.ToString();
  // Every entry point carries the transitive write in its effect set.
  for (const auto& entry : report.entries) {
    EXPECT_TRUE(entry.facts.effects & kEffectGatedWrite) << entry.name;
  }
  EXPECT_EQ(EffectSetName(report.effects), "write");
}

TEST_F(VerifierTest, TopLevelSideEffectsRejectedWhenPurityRequired) {
  const char* src = "emit(\"damage\", 1, 2)";
  VerifierOptions opts;
  opts.phase = PhaseContext::kParallelDefer;
  opts.top_level_must_be_pure = true;
  DiagnosticSink sink;
  Run(src, opts, &sink);
  EXPECT_TRUE(HasError(sink, DiagPass::kPhase, "top level"))
      << sink.ToString();
}

// ---------------------------------------------------------------------------
// Bindings pass

TEST_F(VerifierTest, UnknownComponentFieldAndViewAreErrors) {
  const char* src = R"(fn t(e) {
  let a = get(e, "Nope", "hp")
  let b = get(e, "Health", "mana")
  let c = view_count("ghost_view")
})";
  VerifierOptions opts;
  opts.schema = ReflectionSchema();
  opts.schema.has_view = [](const std::string&) { return false; };
  DiagnosticSink sink;
  Run(src, opts, &sink);
  EXPECT_TRUE(HasError(sink, DiagPass::kBindings, "unknown component 'Nope'"))
      << sink.ToString();
  EXPECT_TRUE(
      HasError(sink, DiagPass::kBindings, "component 'Health' has no field"))
      << sink.ToString();
  EXPECT_TRUE(HasError(sink, DiagPass::kBindings, "no view named"))
      << sink.ToString();
  EXPECT_EQ(sink.error_count(), 3u);
  // Findings land in source order with real positions.
  EXPECT_EQ(sink.diagnostics()[0].loc.line, 2);
  EXPECT_EQ(sink.diagnostics()[1].loc.line, 3);
  EXPECT_EQ(sink.diagnostics()[2].loc.line, 4);
}

TEST_F(VerifierTest, AbsentSchemaCallbacksSkipThatCheckFamily) {
  // Without a view catalog (gsl_lint standalone mode) view names pass.
  const char* src = "fn t(e) { let c = view_count(\"anything\") }";
  VerifierOptions opts;
  opts.schema = ReflectionSchema();  // has_view left unset
  DiagnosticSink sink;
  Run(src, opts, &sink);
  EXPECT_FALSE(sink.has_errors()) << sink.ToString();
}

TEST_F(VerifierTest, UnknownChannelAndUnhandledEventAreWarnings) {
  const char* src = R"(fn t(e) {
  emit("unwired", e, 1)
  fire("unhandled")
})";
  VerifierOptions opts;
  opts.schema = ReflectionSchema();
  opts.schema.has_channel = [](const std::string& c) { return c == "damage"; };
  opts.schema.has_event = [](const std::string&) { return false; };
  DiagnosticSink sink;
  Run(src, opts, &sink);
  EXPECT_FALSE(sink.has_errors()) << sink.ToString();
  EXPECT_EQ(sink.warning_count(), 2u) << sink.ToString();
}

TEST_F(VerifierTest, BadArityAndBadComparisonOperatorAreErrors) {
  const char* src = R"(fn t(e) {
  let a = get(e, "Health")
  let b = where("Health", "hp", "<>", 10)
})";
  DiagnosticSink sink;
  Run(src, VerifierOptions{}, &sink);
  EXPECT_TRUE(HasError(sink, DiagPass::kBindings, "expected 3 args"))
      << sink.ToString();
  EXPECT_TRUE(HasError(sink, DiagPass::kBindings, "'<>'")) << sink.ToString();
}

// ---------------------------------------------------------------------------
// Structure pass (multi-error surface; the fail-fast Analyze() contract is
// covered in analyzer_test.cc)

TEST_F(VerifierTest, RecursionDiagnosticAnchorsTheCycleClosingCall) {
  const char* src = R"(fn f(n) {
  if n > 0 {
    return f(n - 1)
  }
  return 0
})";
  VerifierOptions opts;
  opts.restriction = Restriction::kNoRecursion;
  DiagnosticSink sink;
  Run(src, opts, &sink);
  ASSERT_TRUE(sink.has_errors());
  const Diagnostic& d = sink.diagnostics()[0];
  EXPECT_EQ(d.pass, DiagPass::kStructure);
  EXPECT_NE(d.message.find("recursion involving 'f'"), std::string::npos)
      << d.message;
  EXPECT_EQ(d.loc.line, 3);  // the `f(n - 1)` call site, not the fn decl
  EXPECT_GT(d.loc.col, 0);
}

// ---------------------------------------------------------------------------
// Cost pass

TEST_F(VerifierTest, ScanLoopTripsTightBudgetAndFitsLooseOne) {
  const char* src = R"(fn t(e) {
  foreach x in entities_with("Health") {
    let hp = get(x, "Health", "hp")
  }
})";
  VerifierOptions tight;
  tight.cost_budget = 100;
  DiagnosticSink sink;
  VerifyReport report = Run(src, tight, &sink);
  EXPECT_TRUE(HasError(sink, DiagPass::kCost, "over the budget"))
      << sink.ToString();
  EXPECT_GT(report.max_entry_cost, 100.0);
  EXPECT_EQ(report.max_entry_name, "t");

  VerifierOptions loose;
  loose.cost_budget = 1e9;
  DiagnosticSink clean;
  Run(src, loose, &clean);
  EXPECT_FALSE(clean.has_errors()) << clean.ToString();

  // Budget <= 0 disables enforcement but the report still carries costs.
  DiagnosticSink off;
  VerifyReport unpriced = Run(src, VerifierOptions{}, &off);
  EXPECT_FALSE(off.has_errors()) << off.ToString();
  EXPECT_GT(unpriced.max_entry_cost, 0.0);
}

TEST_F(VerifierTest, RecursiveEntryIsUnboundedUnderAnyBudget) {
  const char* src = "fn f(n) { return f(n - 1) }";
  VerifierOptions opts;  // kFull: recursion structurally legal...
  opts.cost_budget = 1e12;
  DiagnosticSink sink;
  VerifyReport report = Run(src, opts, &sink);
  // ...but no finite budget can admit it.
  EXPECT_TRUE(HasError(sink, DiagPass::kCost, "statically unbounded"))
      << sink.ToString();
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_TRUE(report.entries[0].facts.cost_unbounded);
}

// ---------------------------------------------------------------------------
// Multi-error collection and ordering

TEST_F(VerifierTest, AllFindingsCollectedInPassThenSourceOrder) {
  const char* src = R"(fn a(e) { set(e, "Nope", "hp", 1) }
fn b(e) { spawn() })";
  VerifierOptions opts;
  opts.phase = PhaseContext::kParallelReject;
  DiagnosticSink sink;
  Run(src, opts, &sink);
  // One run, every problem: both phase violations and the bad component.
  ASSERT_EQ(sink.error_count(), 3u) << sink.ToString();
  const auto& diags = sink.diagnostics();
  EXPECT_EQ(diags[0].pass, DiagPass::kPhase);
  EXPECT_EQ(diags[0].loc.line, 1);
  EXPECT_EQ(diags[1].pass, DiagPass::kPhase);
  EXPECT_EQ(diags[1].loc.line, 2);
  EXPECT_EQ(diags[2].pass, DiagPass::kBindings);
  EXPECT_EQ(diags[2].loc.line, 1);
}

// ---------------------------------------------------------------------------
// Report facts

TEST_F(VerifierTest, ReportNamesEntriesEffectsAndHandlers) {
  const char* src = R"(fn t(e) {
  emit("damage", e, 1)
}
on killed(prey) {
  print("down")
})";
  DiagnosticSink sink;
  VerifyReport report = Run(src, VerifierOptions{}, &sink);
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_EQ(report.entries[0].name, "t");
  EXPECT_FALSE(report.entries[0].is_handler);
  EXPECT_EQ(report.entries[1].name, "on killed");
  EXPECT_TRUE(report.entries[1].is_handler);
  EXPECT_TRUE(report.effects & kEffectEmit);
  EXPECT_EQ(EffectSetName(0), "pure");
}

// ---------------------------------------------------------------------------
// Shipped assets: every .gsl pack in assets/scripts/ must verify clean

TEST_F(VerifierTest, EveryShippedAssetVerifiesClean) {
  const std::string self = __FILE__;
  const std::string suffix = "tests/script/verifier_test.cc";
  ASSERT_NE(self.size(), self.find(suffix));
  const std::filesystem::path assets =
      std::filesystem::path(self.substr(0, self.size() - suffix.size())) /
      "assets" / "scripts";
  ASSERT_TRUE(std::filesystem::is_directory(assets)) << assets;

  size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(assets)) {
    if (entry.path().extension() != ".gsl") continue;
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string source = buf.str();

    VerifierOptions opts;
    opts.restriction = Restriction::kNoRecursion;
    // Parallel-phase packs declare themselves via their lint directive.
    if (source.find("phase=parallel") != std::string::npos) {
      opts.phase = PhaseContext::kParallelDefer;
      opts.top_level_must_be_pure = true;
    }
    DiagnosticSink sink;
    VerifyReport report =
        Run(source, opts, &sink);
    EXPECT_FALSE(sink.has_errors())
        << entry.path().filename() << ":\n" << sink.ToString();
    EXPECT_FALSE(report.entries.empty()) << entry.path().filename();
    ++checked;
  }
  EXPECT_GE(checked, 3u);  // hunt, wolf_pack, loadgen_combat at minimum
}

// ---------------------------------------------------------------------------
// ScriptHost strictness regression: the same bad pack that used to fail only
// at runtime now fails at Load under kStrict, still loads (with findings)
// under kWarn, and under kWarn the historical runtime rejection is intact.

TEST_F(VerifierTest, HostStrictRejectsWhatWarnDefersToRuntime) {
  // Direct write in a read-only (kReject) parallel phase.
  const char* src = R"(fn t(e) {
  set(e, "Health", "hp", 0)
})";
  EntityId e = world_.Create();
  world_.Set(e, Health{50.0f, 100.0f});

  ScriptHostOptions warn_opts;
  warn_opts.mutations = MutationPolicy::kReject;
  warn_opts.strictness = Strictness::kWarn;  // the default
  ScriptHost warn_host(&world_, warn_opts);
  ASSERT_TRUE(warn_host.Load(src, "bad.gsl").ok());
  // The verifier saw the problem and kept it readable...
  EXPECT_TRUE(warn_host.diagnostics().has_errors());
  EXPECT_NE(warn_host.diagnostics().ToString().find("read-only"),
            std::string::npos);
  // ...and the runtime backstop still rejects the write mid-tick.
  auto stats = warn_host.RunTick("t", {e});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().script_errors, 1u);
  EXPECT_NE(stats.value().first_error.message().find("read-only"),
            std::string::npos)
      << stats.value().first_error.ToString();

  ScriptHostOptions strict_opts = warn_opts;
  strict_opts.strictness = Strictness::kStrict;
  ScriptHost strict_host(&world_, strict_opts);
  Status st = strict_host.Load(src, "bad.gsl");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("script verification failed"),
            std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("bad.gsl:2:"), std::string::npos)
      << st.ToString();
}

TEST_F(VerifierTest, HostStrictAcceptsCleanPackAndReportsFacts) {
  const char* src = R"(fn t(e) {
  emit("damage", e, get(e, "Combat", "attack"))
})";
  EntityId e = world_.Create();
  world_.Set(e, Combat{});
  ScriptHostOptions opts;
  opts.strictness = Strictness::kStrict;
  ScriptHost host(&world_, opts);
  host.OnChannel("damage", [](EntityId, double) {});
  ASSERT_TRUE(host.Load(src, "clean.gsl").ok());
  EXPECT_FALSE(host.diagnostics().has_errors());
  EXPECT_TRUE(host.verify_report().effects & kEffectEmit);
  EXPECT_EQ(host.verify_report().max_entry_name, "t");
}

// ---------------------------------------------------------------------------
// Access-summary dataflow pass

TEST_F(VerifierTest, SelfWritesSurviveHelperParameterSubstitution) {
  // The write is inside a helper, through the helper's own parameter; the
  // entry only ever passes its ticked entity, so the summary stays :self.
  const char* src = R"(fn hurt(x, amount) {
  set(x, "Health", "hp", amount)
}
fn t(e) {
  hurt(e, get(e, "Combat", "attack"))
})";
  DiagnosticSink sink;
  VerifyReport report = Run(src, VerifierOptions{}, &sink);
  ASSERT_FALSE(sink.has_errors()) << sink.ToString();
  const EntryFacts* t = nullptr;
  for (const auto& entry : report.entries) {
    if (entry.name == "t") t = &entry;
  }
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(AccessSummaryToString(t->facts.access),
            "reads{Combat.attack} writes{Health.hp:self} radius 0");
  EXPECT_TRUE(DirectWriteEligible(*t));
}

TEST_F(VerifierTest, AliasedEntityWritesDemoteToForeign) {
  // `let victim = e` breaks the parameter chain: the analysis is
  // flow-insensitive about locals, so the write conservatively counts as
  // foreign (any entity) and direct-write eligibility is lost.
  const char* src = R"(fn t(e) {
  let victim = e
  set(victim, "Health", "hp", 0)
})";
  DiagnosticSink sink;
  VerifyReport report = Run(src, VerifierOptions{}, &sink);
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(AccessSummaryToString(report.entries[0].facts.access),
            "reads{} writes{Health.hp:foreign} radius 0");
  std::string reason;
  EXPECT_FALSE(DirectWriteEligible(report.entries[0], &reason));
  EXPECT_NE(reason.find("other than the ticked entity"), std::string::npos)
      << reason;
}

TEST_F(VerifierTest, RecursionPoisonsSummaryToTop) {
  const char* src = "fn f(e) { return f(e) }";
  VerifierOptions opts;  // kFull: recursion is structurally legal
  DiagnosticSink sink;
  VerifyReport report = Run(src, opts, &sink);
  ASSERT_EQ(report.entries.size(), 1u);
  const AccessSummary& a = report.entries[0].facts.access;
  EXPECT_TRUE(a.unknown_read);
  EXPECT_TRUE(a.unknown_write);
  EXPECT_TRUE(a.radius_unbounded);
  EXPECT_EQ(AccessSummaryToString(a),
            "reads{*} writes{*} radius unbounded");
  EXPECT_FALSE(DirectWriteEligible(report.entries[0]));
}

TEST_F(VerifierTest, SpatialFootprintTakesMaxLiteralRadiusOrTop) {
  const char* bounded = R"(fn t(e) {
  let near = within(vec3(0, 0, 0), 5)
  let far = within(vec3(0, 0, 0), 40)
})";
  DiagnosticSink sink;
  VerifyReport report = Run(bounded, VerifierOptions{}, &sink);
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_EQ(report.entries[0].facts.access.radius, 40.0);
  EXPECT_FALSE(report.entries[0].facts.access.radius_unbounded);
  // within() reads positions.
  EXPECT_EQ(AccessSummaryToString(report.entries[0].facts.access),
            "reads{Position.value} writes{} radius 40");

  const char* dynamic = R"(fn t(e) {
  let r = get(e, "Combat", "range")
  let near = within(vec3(0, 0, 0), r)
})";
  DiagnosticSink sink2;
  VerifyReport report2 = Run(dynamic, VerifierOptions{}, &sink2);
  ASSERT_EQ(report2.entries.size(), 1u);
  EXPECT_TRUE(report2.entries[0].facts.access.radius_unbounded);
}

TEST_F(VerifierTest, ComputedComponentNameIsUnknownAccess) {
  const char* src = R"(fn t(e, comp) {
  set(e, comp, "hp", 0)
})";
  DiagnosticSink sink;
  VerifyReport report = Run(src, VerifierOptions{}, &sink);
  ASSERT_EQ(report.entries.size(), 1u);
  EXPECT_TRUE(report.entries[0].facts.access.unknown_write);
}

TEST_F(VerifierTest, ConflictGraphFlagsOverlapsAndClearsDisjointPairs) {
  const char* src = R"(fn writer(e) { set(e, "Health", "hp", 1) }
fn reader(e) { let hp = get(e, "Health", "hp") }
fn bystander(e) { let g = get(e, "Actor", "gold") })";
  DiagnosticSink sink;
  VerifyReport report = Run(src, VerifierOptions{}, &sink);
  ASSERT_EQ(report.entries.size(), 3u);
  // Exactly one edge: writer ~ reader on Health.hp. bystander touches a
  // disjoint table and pairs with nobody.
  ASSERT_EQ(report.conflicts.size(), 1u) << [&] {
    std::string all;
    for (const auto& c : report.conflicts) all += c.reason + "; ";
    return all;
  }();
  EXPECT_EQ(report.conflicts[0].a, 0u);
  EXPECT_EQ(report.conflicts[0].b, 1u);
  EXPECT_NE(report.conflicts[0].reason.find("Health.hp"), std::string::npos)
      << report.conflicts[0].reason;
}

TEST_F(VerifierTest, SpawnAndFireForceConflictsRegardlessOfFields) {
  const char* src = R"(fn spawner(e) { let s = spawn() }
fn unrelated(e) { let g = get(e, "Actor", "gold") })";
  DiagnosticSink sink;
  VerifyReport report = Run(src, VerifierOptions{}, &sink);
  ASSERT_EQ(report.conflicts.size(), 1u);
  EXPECT_NE(report.conflicts[0].reason.find("spawn()"), std::string::npos);
}

TEST_F(VerifierTest, DirectWriteEligibilityRules) {
  struct Case {
    const char* src;
    bool eligible;
    const char* reason_needle;  // nullptr when eligible
  };
  const Case cases[] = {
      // Read-only: trivially eligible.
      {"fn t(e) { let hp = get(e, \"Health\", \"hp\") }", true, nullptr},
      // Self-write of a field it does not read: eligible.
      {"fn t(e) { set(e, \"Health\", \"hp\", 1) }", true, nullptr},
      // emit alongside a write: channel applies would see mid-tick state.
      {"fn t(e) { set(e, \"Health\", \"hp\", 1) emit(\"damage\", e, 1) }",
       false, "emits effects while writing"},
      // Write overlaps its own read: tick-start snapshot would differ.
      {"fn t(e) { set(e, \"Health\", \"hp\", get(e, \"Health\", \"hp\")) }",
       false, "overlap reads"},
      // Structural.
      {"fn t(e) { destroy(e) }", false, "membership"},
      // Reads one field, writes a *different* field of the same table: the
      // keys are disjoint, so still eligible.
      {"fn t(e) { set(e, \"Health\", \"hp\", get(e, \"Health\", "
       "\"max_hp\")) }",
       true, nullptr},
  };
  for (const Case& c : cases) {
    DiagnosticSink sink;
    VerifyReport report = Run(c.src, VerifierOptions{}, &sink);
    ASSERT_EQ(report.entries.size(), 1u) << c.src;
    std::string reason;
    EXPECT_EQ(DirectWriteEligible(report.entries[0], &reason), c.eligible)
        << c.src << " -> " << reason;
    if (c.reason_needle != nullptr) {
      EXPECT_NE(reason.find(c.reason_needle), std::string::npos)
          << c.src << " -> " << reason;
    }
  }
}

// ---------------------------------------------------------------------------
// Golden access summaries for every shipped pack

TEST_F(VerifierTest, ShippedPackGoldenSummariesAndConflicts) {
  const std::string self = __FILE__;
  const std::string suffix = "tests/script/verifier_test.cc";
  ASSERT_NE(self.size(), self.find(suffix));
  const std::filesystem::path assets =
      std::filesystem::path(self.substr(0, self.size() - suffix.size())) /
      "assets" / "scripts";

  struct Golden {
    const char* entry;
    const char* summary;
  };
  struct Pack {
    const char* file;
    std::vector<Golden> entries;
    size_t conflict_edges;
  };
  const Pack packs[] = {
      {"hunt.gsl",
       {{"hunt_tick",
         "reads{Combat.attack, Health.hp} writes{Health.hp:foreign, *} "
         "structural radius 0"},
        {"on killed", "reads{Health.*} writes{} radius 0"}},
       1},  // hunt_tick fires "killed" -> forced edge to its handler
      {"loadgen_combat.gsl",
       {{"tick",
         "reads{Combat.attack, Combat.target, Health.hp} writes{} "
         "radius 0"}},
       0},
      {"wolf_pack.gsl",
       {{"pack_tick",
         "reads{Combat.attack, Combat.target, Health.hp} "
         "writes{Health.hp:self} radius 0"}},
       0},
  };
  for (const Pack& pack : packs) {
    std::ifstream in(assets / pack.file);
    ASSERT_TRUE(in.good()) << pack.file;
    std::stringstream buf;
    buf << in.rdbuf();
    VerifierOptions opts;
    opts.restriction = Restriction::kNoRecursion;
    DiagnosticSink sink;
    VerifyReport report = Run(buf.str(), opts, &sink);
    ASSERT_EQ(report.entries.size(), pack.entries.size()) << pack.file;
    for (size_t i = 0; i < pack.entries.size(); ++i) {
      EXPECT_EQ(report.entries[i].name, pack.entries[i].entry) << pack.file;
      EXPECT_EQ(AccessSummaryToString(report.entries[i].facts.access),
                pack.entries[i].summary)
          << pack.file << " " << report.entries[i].name;
    }
    EXPECT_EQ(report.conflicts.size(), pack.conflict_edges) << pack.file;
  }
}

// ---------------------------------------------------------------------------
// Did-you-mean suggestions (bindings pass)

TEST_F(VerifierTest, UnknownNamesGetDidYouMeanSuggestions) {
  const char* src = R"(fn t(e) {
  let a = get(e, "Helth", "hp")
  let b = get(e, "Health", "atack")
  let c = view_count("woonded")
  emit("damge", e, 1)
})";
  VerifierOptions opts;
  opts.schema = ReflectionSchema();
  opts.schema.has_view = [](const std::string& v) { return v == "wounded"; };
  opts.schema.view_names = []() {
    return std::vector<std::string>{"wounded"};
  };
  opts.schema.has_channel = [](const std::string& c) {
    return c == "damage";
  };
  opts.schema.channel_names = []() {
    return std::vector<std::string>{"damage"};
  };
  DiagnosticSink sink;
  Run(src, opts, &sink);
  EXPECT_TRUE(HasError(sink, DiagPass::kBindings,
                       "unknown component 'Helth'; did you mean 'Health'?"))
      << sink.ToString();
  // "atack" is edit distance 1 from Health's real field "attack"? No —
  // "attack" lives on Combat; Health offers hp/max_hp, neither within 2.
  // The field suggestion draws from the *resolved component's* fields, so
  // no suggestion fires here — just the plain error.
  EXPECT_TRUE(
      HasError(sink, DiagPass::kBindings, "component 'Health' has no field"))
      << sink.ToString();
  EXPECT_TRUE(HasError(sink, DiagPass::kBindings,
                       "did you mean 'wounded'?"))
      << sink.ToString();
  bool channel_hint = false;
  for (const auto& d : sink.diagnostics()) {
    channel_hint = channel_hint ||
                   d.message.find("did you mean 'damage'?") !=
                       std::string::npos;
  }
  EXPECT_TRUE(channel_hint) << sink.ToString();
}

TEST_F(VerifierTest, FieldSuggestionDrawsFromTheResolvedComponent) {
  const char* src = R"(fn t(e) {
  let a = get(e, "Combat", "atack")
  let b = get(e, "Health", "max_h")
})";
  DiagnosticSink sink;
  Run(src, VerifierOptions{}, &sink);
  EXPECT_TRUE(HasError(sink, DiagPass::kBindings, "did you mean 'attack'?"))
      << sink.ToString();
  EXPECT_TRUE(HasError(sink, DiagPass::kBindings, "did you mean 'max_hp'?"))
      << sink.ToString();
}

TEST_F(VerifierTest, NoSuggestionBeyondEditDistanceTwo) {
  const char* src = "fn t(e) { let a = get(e, \"Zebra\", \"hp\") }";
  DiagnosticSink sink;
  Run(src, VerifierOptions{}, &sink);
  ASSERT_TRUE(sink.has_errors());
  for (const auto& d : sink.diagnostics()) {
    EXPECT_EQ(d.message.find("did you mean"), std::string::npos)
        << d.message;
  }
}

// ---------------------------------------------------------------------------
// gsl_lint JSON document: emit -> validate round-trip

TEST_F(VerifierTest, LintJsonRoundTripsThroughItsValidator) {
  const char* src = R"(fn t(e) {
  set(e, "Health", "hp", get(e, "Combat", "attack"))
  emit("unwired", e, 1)
})";
  VerifierOptions opts;
  opts.schema = ReflectionSchema();
  opts.schema.has_channel = [](const std::string&) { return false; };
  DiagnosticSink sink;
  VerifyReport report = Run(src, opts, &sink);
  EXPECT_EQ(sink.warning_count(), 1u);  // unwired channel

  LintFileResult file;
  file.file = "test.gsl";
  file.phase = PhaseContext::kParallelDefer;
  file.diagnostics = sink.diagnostics();
  file.report = report;
  const std::string doc = RenderLintJson({file}, /*werror=*/true);
  EXPECT_TRUE(ValidateLintJson(doc).ok())
      << ValidateLintJson(doc).ToString() << "\n" << doc;

  // The document carries the facts consumers need.
  EXPECT_NE(doc.find("\"schema\": \"gamedb.gsl_lint.v1\""),
            std::string::npos);
  EXPECT_NE(doc.find("\"field\": \"Health.hp\""), std::string::npos);
  EXPECT_NE(doc.find("\"target\": \"self\""), std::string::npos);
  EXPECT_NE(doc.find("\"severity\": \"warning\""), std::string::npos);
  // Pack static cost estimate: total + most expensive entry.
  EXPECT_NE(doc.find("\"static_cost\": {\"total\": "), std::string::npos);
  EXPECT_NE(doc.find("\"max_entry\": \"t\""), std::string::npos);

  // Corruptions are rejected: bad severity, truncation, wrong schema tag,
  // and nesting deep enough to overflow an unbounded recursive parser.
  std::string bad = doc;
  size_t at = bad.find("\"warning\"");
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, 9, "\"whisper\"");
  EXPECT_FALSE(ValidateLintJson(bad).ok());
  EXPECT_FALSE(ValidateLintJson(doc.substr(0, doc.size() / 2)).ok());
  std::string wrong_tag = doc;
  at = wrong_tag.find("gamedb.gsl_lint.v1");
  wrong_tag.replace(at, 18, "gamedb.gsl_lint.v9");
  EXPECT_FALSE(ValidateLintJson(wrong_tag).ok());
  EXPECT_FALSE(ValidateLintJson("not json at all").ok());
  EXPECT_FALSE(ValidateLintJson(std::string(100000, '[')).ok());
}

TEST_F(VerifierTest, AccessReportRendersMatrixForConflictingPack) {
  const char* src = R"(fn writer(e) { set(e, "Health", "hp", 1) }
fn reader(e) { let hp = get(e, "Health", "hp") })";
  DiagnosticSink sink;
  VerifyReport report = Run(src, VerifierOptions{}, &sink);
  const std::string text = RenderAccessReport("pack.gsl", report);
  EXPECT_NE(text.find("conflict matrix (2 entries, 1 edges)"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("[0]x[1] writer ~ reader"), std::string::npos) << text;
  EXPECT_NE(text.find("direct-write: yes"), std::string::npos) << text;
  const std::string dot = RenderConflictDot("pack.gsl", report);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos) << dot;
  EXPECT_NE(dot.find("label=\"writer"), std::string::npos) << dot;
}

TEST_F(VerifierTest, HostCostBudgetGatesLoadUnderStrict) {
  const char* src = R"(fn t(e) {
  foreach x in entities_with("Health") {
    foreach y in entities_with("Health") {
      let hp = get(y, "Health", "hp")
    }
  }
})";
  ScriptHostOptions opts;
  opts.strictness = Strictness::kStrict;
  opts.script_cost_budget = 10000;  // the nested scan prices in the millions
  ScriptHost host(&world_, opts);
  Status st = host.Load(src, "hot.gsl");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("over the budget"), std::string::npos)
      << st.ToString();
}

}  // namespace
}  // namespace gamedb::script
