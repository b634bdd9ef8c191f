// Golden tests for the static-analysis engine: every diagnostic code
// fires on a minimal fixture and stays silent on the clean variant,
// the emitters produce well-shaped output, and the lint wrapper stays
// deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "analyze/analyze.hpp"
#include "cli/cli.hpp"
#include "core/lint.hpp"
#include "graph/serialize.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"
#include "workloads/designs.hpp"
#include "workloads/lu.hpp"

namespace banger::analyze {
namespace {

std::vector<Diagnostic> check(std::string_view pitl,
                              const AnalyzeOptions& options = {}) {
  return analyze_design(graph::parse_design(pitl), options);
}

bool fires(const std::vector<Diagnostic>& diags, std::string_view code) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

const Diagnostic& get(const std::vector<Diagnostic>& diags,
                      std::string_view code) {
  auto it = std::find_if(diags.begin(), diags.end(),
                         [&](const Diagnostic& d) { return d.code == code; });
  EXPECT_NE(it, diags.end()) << "expected " << code << " to fire";
  return *it;
}

// ---------------------------------------------------------------- catalog

TEST(Catalog, CodesAreSortedUniqueAndResolvable) {
  const auto& rules = diagnostic_rules();
  ASSERT_FALSE(rules.empty());
  for (std::size_t i = 1; i < rules.size(); ++i) {
    EXPECT_LT(rules[i - 1].code, rules[i].code);
  }
  for (const auto& rule : rules) {
    const DiagnosticRule* found = find_rule(rule.code);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->title, rule.title);
  }
  EXPECT_EQ(find_rule("BAN999"), nullptr);
}

TEST(Catalog, SortAndDedupeIsDeterministic) {
  Diagnostic err{"BAN104", Severity::Error, "task", "b", "boom", "", {3, 1}};
  Diagnostic warn{"BAN102", Severity::Warning, "task", "a", "dead", "", {1, 1}};
  std::vector<Diagnostic> diags{warn, err, warn};  // duplicate warning
  sort_and_dedupe(diags);
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].code, "BAN104");  // errors first
  EXPECT_EQ(diags[1].code, "BAN102");
}

// ------------------------------------------------------- interface layer

TEST(InterfaceRules, Ban001OutputsWithoutRoutine) {
  const auto diags = check("design d\ngraph g\n  task t out=r\n  store r\n"
                           "  arc t -> r var=r\n");
  EXPECT_TRUE(fires(diags, "BAN001"));
  EXPECT_EQ(get(diags, "BAN001").pos.line, 3);  // the task directive
  const auto clean = check(
      "design d\ngraph g\n  task t out=r\n  pits {\n    r := 1\n  }\n"
      "  store r\n  arc t -> r var=r\n");
  EXPECT_FALSE(fires(clean, "BAN001"));
}

TEST(InterfaceRules, Ban002SkeletonTask) {
  const std::string pitl = "design d\ngraph g\n  task todo\n";
  EXPECT_TRUE(fires(check(pitl), "BAN002"));
  AnalyzeOptions lax;
  lax.require_pits = false;
  EXPECT_FALSE(fires(check(pitl, lax), "BAN002"));
}

TEST(InterfaceRules, Ban003ParseFailureCarriesPosition) {
  const auto diags = check(
      "design d\ngraph g\n  task t out=r\n  pits {\n    r := := 1\n  }\n"
      "  store r\n  arc t -> r var=r\n");
  const Diagnostic& d = get(diags, "BAN003");
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_EQ(d.pos.line, 5);  // file line of the broken PITS statement
  EXPECT_FALSE(fires(check("design d\ngraph g\n  task t out=r\n  pits {\n"
                           "    r := 1\n  }\n  store r\n  arc t -> r var=r\n"),
                     "BAN003"));
}

TEST(InterfaceRules, Ban004UndeclaredRead) {
  const auto diags = check(
      "design d\ngraph g\n  task t out=r\n  pits {\n    r := mystery\n  }\n"
      "  store r\n  arc t -> r var=r\n");
  EXPECT_TRUE(fires(diags, "BAN004"));
  EXPECT_NE(get(diags, "BAN004").hint.find("in= list"), std::string::npos);
}

TEST(InterfaceRules, Ban005UnreadInput) {
  const auto diags = check(
      "design d\ngraph g\n  store a\n  task t in=a out=r\n  pits {\n"
      "    r := 1\n  }\n  store r\n  arc a -> t var=a\n  arc t -> r var=r\n");
  EXPECT_TRUE(fires(diags, "BAN005"));
}

TEST(InterfaceRules, Ban005SeesReadsOfAnInputNamedAfterAConstant) {
  // A declared input `pi` shadows the constant, so reading it is a read.
  EXPECT_FALSE(fires(
      check("design d\ngraph g\n  store pi\n  task t in=pi out=r\n"
            "  pits {\n    r := pi * 2\n  }\n  store r\n"
            "  arc pi -> t var=pi\n  arc t -> r var=r\n"),
      "BAN005"));
  // Undeclared, `pi` stays the constant: neither BAN004 nor BAN005.
  const auto constant = check(
      "design d\ngraph g\n  task t out=r\n  pits {\n    r := pi * 2\n"
      "  }\n  store r\n  arc t -> r var=r\n");
  EXPECT_FALSE(fires(constant, "BAN004"));
  EXPECT_FALSE(fires(constant, "BAN005"));
}

TEST(InterfaceRules, Ban006UnassignedOutput) {
  const auto diags = check(
      "design d\ngraph g\n  task t out=r\n  pits {\n    x := 1\n  }\n"
      "  store r\n  arc t -> r var=r\n");
  EXPECT_TRUE(fires(diags, "BAN006"));
}

TEST(InterfaceRules, Ban007WorkEstimate) {
  const std::string pitl =
      "design d\ngraph g\n  task t work=5000 out=r\n  pits {\n    r := 1\n"
      "  }\n  store r\n  arc t -> r var=r\n";
  AnalyzeOptions opts;
  opts.work_estimate_factor = 100.0;
  EXPECT_TRUE(fires(check(pitl, opts), "BAN007"));
  EXPECT_FALSE(fires(check(pitl), "BAN007"));  // off by default
}

TEST(InterfaceRules, Ban008DeadStore) {
  const auto diags = check(
      "design d\ngraph g\n  store orphan\n  task t out=r\n  pits {\n"
      "    r := 1\n  }\n  store r\n  arc t -> r var=r\n");
  EXPECT_TRUE(fires(diags, "BAN008"));
  EXPECT_EQ(get(diags, "BAN008").pos.line, 3);  // the store directive
}

TEST(InterfaceRules, Ban009UnboundInput) {
  const auto diags = check(
      "design d\ngraph g\n  task t in=a out=r\n  pits {\n    r := a\n  }\n"
      "  store r\n  arc t -> r var=r\n");
  EXPECT_TRUE(fires(diags, "BAN009"));
}

TEST(InterfaceRules, Ban010UnobservableWork) {
  const auto diags = check(
      "design d\ngraph g\n  task useful out=r\n  pits {\n    r := 1\n  }\n"
      "  task wasted\n  pits {\n    x := 1\n  }\n"
      "  store r\n  arc useful -> r var=r\n");
  EXPECT_TRUE(fires(diags, "BAN010"));
  EXPECT_EQ(get(diags, "BAN010").subject, "wasted");
}

// ------------------------------------------------- routine layer (BAN10x)

std::string routine_design(const std::string& body,
                           const std::string& io = "in=a out=r") {
  std::string pitl = "design d\ngraph g\n  store a\n  task t " + io +
                     "\n  pits {\n";
  std::istringstream lines(body);
  for (std::string line; std::getline(lines, line);) {
    pitl += "    " + line + "\n";
  }
  pitl += "  }\n  store r\n  arc a -> t var=a\n  arc t -> r var=r\n";
  return pitl;
}

TEST(PitsRules, Ban101UseBeforeDef) {
  const auto diags = check(routine_design(
      "if a > 0 then\n  s := 1\nend\nr := s"));
  const Diagnostic& d = get(diags, "BAN101");
  EXPECT_NE(d.message.find("`s`"), std::string::npos);
  EXPECT_EQ(d.pos.line, 9);  // `r := s` is file line 9
  EXPECT_FALSE(fires(check(routine_design(
                   "s := 0\nif a > 0 then\n  s := 1\nend\nr := s")),
               "BAN101"));
}

TEST(PitsRules, Ban101BothBranchesAssignIsClean) {
  EXPECT_FALSE(fires(check(routine_design(
                   "if a > 0 then\n  s := 1\nelse\n  s := 2\nend\nr := s")),
               "BAN101"));
}

TEST(PitsRules, Ban101ForLoopVarMayNotBeAssigned) {
  // Zero-iteration loops leave the loop variable unassigned afterwards.
  EXPECT_TRUE(fires(check(routine_design(
                  "for i := 1 to sum(a) do\n  x := i\nend\nr := i")),
              "BAN101"));
  EXPECT_FALSE(fires(check(routine_design(
                   "r := 0\nfor i := 1 to sum(a) do\n  r := r + i\nend")),
               "BAN101"));
}

TEST(PitsRules, Ban102DeadStore) {
  const auto diags = check(routine_design("unused := a\nr := 1"));
  EXPECT_TRUE(fires(diags, "BAN102"));
  EXPECT_NE(get(diags, "BAN102").message.find("`unused`"),
            std::string::npos);
  // Outputs are never dead.
  EXPECT_FALSE(fires(check(routine_design("r := a")), "BAN102"));
}

TEST(PitsRules, Ban103UnreachableAfterReturn) {
  const auto diags = check(routine_design("r := a\nreturn\nr := 0"));
  EXPECT_TRUE(fires(diags, "BAN103"));
  // A return guarded by `if` does not cut the rest of the block.
  EXPECT_FALSE(fires(check(routine_design(
                   "r := a\nif sum(a) > 0 then\n  return\nend\nr := 0")),
               "BAN103"));
}

TEST(PitsRules, Ban104DivisionByConstantZero) {
  EXPECT_TRUE(fires(check(routine_design("r := 1 / 0")), "BAN104"));
  // Constant propagation reaches the divisor through assignments.
  const auto diags = check(routine_design("n := 2 - 2\nr := a[0] mod n"));
  EXPECT_TRUE(fires(diags, "BAN104"));
  // A loop reassigning the divisor kills the constant.
  EXPECT_FALSE(fires(check(routine_design(
                   "n := 0\nfor i := 1 to 3 do\n  n := n + i\nend\n"
                   "r := 1 / n")),
               "BAN104"));
}

TEST(PitsRules, Ban105ConstantIndexOutOfRange) {
  const auto diags = check(routine_design("v := [1, 2, 3]\nr := v[3]"));
  const Diagnostic& d = get(diags, "BAN105");
  EXPECT_NE(d.message.find("[0,3)"), std::string::npos);
  EXPECT_FALSE(fires(check(routine_design("v := [1, 2, 3]\nr := v[2]")),
               "BAN105"));
}

TEST(PitsRules, Ban106UnknownFunctionSuggests) {
  const auto diags = check(routine_design("r := sqrtt(a)"));
  const Diagnostic& d = get(diags, "BAN106");
  EXPECT_NE(d.hint.find("sqrt"), std::string::npos);
  EXPECT_FALSE(fires(check(routine_design("r := sqrt(sum(a))")), "BAN106"));
}

TEST(PitsRules, Ban107ArityMismatch) {
  // Builtin, formula, and the `when` special form.
  EXPECT_TRUE(fires(check(routine_design("r := sqrt(a, 2)")), "BAN107"));
  EXPECT_TRUE(fires(check(routine_design(
                  "formula f(x, y) := x + y\nr := f(a)")),
              "BAN107"));
  EXPECT_TRUE(fires(check(routine_design("r := when(a)")), "BAN107"));
  EXPECT_FALSE(fires(check(routine_design(
                   "formula f(x, y) := x + y\n"
                   "r := when(sum(a) > 0, f(1, 2), sqrt(4))")),
               "BAN107"));
}

TEST(PitsRules, Ban108NonTerminatingWhile) {
  EXPECT_TRUE(fires(check(routine_design(
                  "x := 1\nwhile x > 0 do\n  r := x\nend")),
              "BAN108"));
  // Assigning a condition variable in the body is progress.
  EXPECT_FALSE(fires(check(routine_design(
                   "x := 1\nr := 0\nwhile x > 0 do\n  x := x - 1\n"
                   "  r := r + 1\nend")),
               "BAN108"));
  // A `return` inside the loop is also an exit.
  EXPECT_FALSE(fires(check(routine_design(
                   "x := 1\nr := 0\nwhile x > 0 do\n  return\nend")),
               "BAN108"));
}

TEST(PitsRules, Ban104FoldsOnlyConstantsNothingShadows) {
  // `e` is assigned in the routine, so the divisor is `a - e`, not the
  // calculator constant minus itself.
  EXPECT_FALSE(fires(check(routine_design(
                   "e := a\nr := 1 / (e - 2.71828182845904523536)")),
               "BAN104"));
  // A declared input named `pi` shadows the constant the same way.
  EXPECT_FALSE(fires(check(routine_design(
                   "r := 1 / (pi - 3.14159265358979323846)", "in=pi out=r")),
               "BAN104"));
  // Unshadowed, the constant folds.
  EXPECT_TRUE(fires(check(routine_design(
                  "r := a / (pi - 3.14159265358979323846)")),
              "BAN104"));
}

TEST(PitsRules, Ban104ConstantsDoNotLeaveLoops) {
  // The loop reassigns `k`, so its constant is dropped after the loop;
  // the zero is still proven, by the intervals.
  const auto diags = check(routine_design(
      "k := 1\nrepeat 3 times\n  k := 0\nend\nr := a / k"));
  EXPECT_FALSE(fires(diags, "BAN104"));
  EXPECT_TRUE(fires(diags, "BAN301"));
  // Straight-line constants survive an `if` whose arms agree.
  EXPECT_TRUE(fires(check(routine_design(
                  "if a > 0 then\n  d := 1\nelse\n  d := 1\nend\n"
                  "r := a / (d - 1)")),
              "BAN104"));
}

TEST(PitsRules, Ban108FollowsTheWalkersNanOrdering) {
  // inf - inf is NaN, and the walker orders NaN as equal: `n <= 0` is
  // true on every iteration.
  EXPECT_TRUE(fires(check(routine_design(
                  "n := 1e308 * 10 - 1e308 * 10\nr := a\nwhile n <= 0 do\n"
                  "  r := r + 1\nend")),
              "BAN108"));
}

TEST(PitsRules, ValueRulesStayQuietInDeadCode) {
  // After a `return` the syntactic rules still fire; the value rules
  // (BAN101, BAN104) only speak about code that can run.
  const auto diags = check(routine_design(
      "r := a\nreturn\ny := late\nlate := nosuch(1) + 1 / 0\n"
      "r := y + late"));
  EXPECT_TRUE(fires(diags, "BAN103"));
  EXPECT_TRUE(fires(diags, "BAN106"));
  EXPECT_FALSE(fires(diags, "BAN101"));
  EXPECT_FALSE(fires(diags, "BAN104"));
  // The side of `and` and the arm of `when` the walker never evaluates.
  EXPECT_FALSE(fires(check(routine_design(
                   "r := a + (0 and 1 / 0) + when(1, 2, 1 / 0)")),
               "BAN104"));
}

TEST(PitsRules, Ban101ElementAssignUsesDefiniteAssignment) {
  // The loop always runs, so `v` is assigned before its element is.
  EXPECT_FALSE(fires(check(routine_design(
                   "repeat 3 times\n  v := zeros(2)\nend\nv[0] := a\nr := v")),
               "BAN101"));
  EXPECT_TRUE(fires(check(routine_design(
                  "if a > 0 then\n  v := zeros(2)\nend\nv[0] := a\nr := v")),
              "BAN101"));
}

// ------------------------------------------------------ determinacy layer

const char* kRaceDesign =
    "design race\n"
    "graph main\n"
    "  task w1 out=x\n"
    "  pits {\n"
    "    x := 1\n"
    "  }\n"
    "  task w2 out=x\n"
    "  pits {\n"
    "    x := 2\n"
    "  }\n"
    "  task r in=x out=y\n"
    "  pits {\n"
    "    y := x + 1\n"
    "  }\n"
    "  store x\n"
    "  store y\n"
    "  arc w1 -> x var=x\n"
    "  arc w2 -> x var=x\n"
    "  arc x -> r var=x\n"
    "  arc r -> y var=y\n";

TEST(DeterminacyRules, Ban201UnorderedWritersToReadStore) {
  const auto diags = check(kRaceDesign);
  const Diagnostic& d = get(diags, "BAN201");
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_NE(d.message.find("`w1`"), std::string::npos);
  EXPECT_NE(d.message.find("`w2`"), std::string::npos);
  EXPECT_EQ(d.pos.line, 15);  // the store directive has a source span
}

TEST(DeterminacyRules, Ban201SilentWhenWritersOrdered) {
  // w1 -> m -> w2 orders the two writers of x.
  const auto diags = check(
      "design ordered\ngraph main\n"
      "  task w1 out=x,m\n  pits {\n    x := 1\n    m := 0\n  }\n"
      "  store m\n"
      "  task w2 in=m out=x\n  pits {\n    x := m + 1\n  }\n"
      "  task r in=x out=y\n  pits {\n    y := x\n  }\n"
      "  store x\n  store y\n"
      "  arc w1 -> m var=m\n  arc m -> w2 var=m\n"
      "  arc w1 -> x var=x\n  arc w2 -> x var=x\n"
      "  arc x -> r var=x\n  arc r -> y var=y\n");
  EXPECT_FALSE(fires(diags, "BAN201"));
  EXPECT_FALSE(fires(diags, "BAN203"));
}

TEST(DeterminacyRules, Ban203ScheduleDependentOutputMerge) {
  const auto diags = check(
      "design merge\ngraph main\n"
      "  task w1 out=x\n  pits {\n    x := 1\n  }\n"
      "  task w2 out=x\n  pits {\n    x := 2\n  }\n"
      "  store x\n"
      "  arc w1 -> x var=x\n  arc w2 -> x var=x\n");
  const Diagnostic& d = get(diags, "BAN203");
  EXPECT_EQ(d.severity, Severity::Warning);
  EXPECT_FALSE(fires(diags, "BAN201"));  // nobody reads x
}

TEST(DeterminacyRules, Ban202VarAliasedStores) {
  // Root store `x` and child store `x` alias one variable name; the root
  // reader is unordered with the child writer.
  const auto diags = check(
      "design alias\ngraph main\n"
      "  task w1 out=x\n  pits {\n    x := 1\n  }\n"
      "  store x\n"
      "  task r in=x out=y\n  pits {\n    y := x\n  }\n"
      "  store y\n"
      "  super sup graph=child\n"
      "  arc w1 -> x var=x\n  arc x -> r var=x\n  arc r -> y var=y\n"
      "graph child\n"
      "  task w2 out=x\n  pits {\n    x := 2\n  }\n"
      "  store x\n"
      "  arc w2 -> x var=x\n");
  EXPECT_TRUE(fires(diags, "BAN202"));
  // Distinct variable names: no aliasing, no conflict.
  const auto clean = check(
      "design alias\ngraph main\n"
      "  task w1 out=x\n  pits {\n    x := 1\n  }\n"
      "  store x\n"
      "  task r in=x out=y\n  pits {\n    y := x\n  }\n"
      "  store y\n"
      "  super sup graph=child\n"
      "  arc w1 -> x var=x\n  arc x -> r var=x\n  arc r -> y var=y\n"
      "graph child\n"
      "  task w2 out=z\n  pits {\n    z := 2\n  }\n"
      "  store z\n"
      "  arc w2 -> z var=z\n");
  EXPECT_FALSE(fires(clean, "BAN202"));
}

// -------------------------------------------------------------- emitters

TEST(Emitters, TextFormat) {
  const auto diags = check(kRaceDesign);
  EmitOptions opts;
  opts.file = "race.pitl";
  const std::string text = emit_text(diags, opts);
  EXPECT_NE(text.find("race.pitl:15:1: error[BAN201]"), std::string::npos);
  EXPECT_NE(text.find("hint:"), std::string::npos);
  EXPECT_NE(text.find("1 error(s)"), std::string::npos);
  EXPECT_NE(emit_text({}, opts).find("clean"), std::string::npos);
}

TEST(Emitters, JsonFormat) {
  const auto diags = check(kRaceDesign);
  EmitOptions opts;
  opts.file = "race.pitl";
  const std::string json = emit_json(diags, opts);
  EXPECT_NE(json.find("\"file\": \"race.pitl\""), std::string::npos);
  EXPECT_NE(json.find("\"code\": \"BAN201\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\": \"error\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 15"), std::string::npos);
  // Escaping: backticks are fine, but quotes/newlines must be escaped.
  Diagnostic tricky{"BAN104", Severity::Error, "task", "t",
                    "a \"quoted\"\nmessage", "", {1, 1}};
  const std::string escaped = emit_json({tricky}, {});
  EXPECT_NE(escaped.find("a \\\"quoted\\\"\\nmessage"), std::string::npos);
}

TEST(Emitters, SarifShape) {
  const auto diags = check(kRaceDesign);
  EmitOptions opts;
  opts.file = "race.pitl";
  const std::string sarif = emit_sarif(diags, opts);
  for (const char* needle :
       {"\"$schema\"", "sarif-2.1.0", "\"version\": \"2.1.0\"", "\"runs\"",
        "\"tool\"", "\"driver\"", "\"name\": \"banger\"", "\"rules\"",
        "\"results\"", "\"ruleId\": \"BAN201\"", "\"level\": \"error\"",
        "\"physicalLocation\"", "\"artifactLocation\"",
        "\"uri\": \"race.pitl\"", "\"startLine\": 15", "\"startColumn\": 1"}) {
    EXPECT_NE(sarif.find(needle), std::string::npos) << needle;
  }
  // The rules array carries the whole catalog, fired or not.
  EXPECT_NE(sarif.find("\"id\": \"BAN108\""), std::string::npos);
  // Empty runs still have the tool block and an empty results array.
  const std::string empty = emit_sarif({}, opts);
  EXPECT_NE(empty.find("\"results\": []"), std::string::npos);
}

// -------------------------------------------------- clean designs + wrapper

TEST(CleanDesigns, WorkloadsPassAllLayers) {
  using banger::workloads::lu3x3_design;
  using banger::workloads::montecarlo_design;
  using banger::workloads::polyeval_design;
  using banger::workloads::signal_pipeline_design;
  EXPECT_TRUE(analyze_design(lu3x3_design()).empty());
  EXPECT_TRUE(analyze_design(montecarlo_design(3, 10)).empty());
  EXPECT_TRUE(analyze_design(signal_pipeline_design(2)).empty());
  EXPECT_TRUE(analyze_design(polyeval_design(2)).empty());
}

TEST(LintWrapper, MatchesInterfaceLayerAndStaysDeterministic) {
  const std::string pitl =
      "design d\ngraph g\n  store dead1\n  store dead2\n"
      "  task t out=r\n  pits {\n    r := oops\n  }\n"
      "  store r\n  arc t -> r var=r\n";
  const auto design = graph::parse_design(pitl);
  const auto issues1 = lint_design(design);
  const auto issues2 = lint_design(design);
  ASSERT_EQ(issues1.size(), issues2.size());
  for (std::size_t i = 0; i < issues1.size(); ++i) {
    EXPECT_EQ(issues1[i].to_string(), issues2[i].to_string());
  }
  EXPECT_TRUE(has_errors(issues1));
  EXPECT_EQ(issues1.front().severity, LintSeverity::Error);
  // Same rules as the engine's interface layer.
  AnalyzeOptions iface;
  iface.pits_rules = false;
  iface.determinacy_rules = false;
  EXPECT_EQ(issues1.size(), analyze_design(design, iface).size());
}

// ------------------------------------------------------------------- CLI

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path =
      ::testing::TempDir() + "analyze_cli_" + name + ".pitl";
  std::ofstream out(path);
  out << text;
  return path;
}

int run_cli(const std::vector<std::string>& args, std::string* stdout_text) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::run(args, out, err);
  if (stdout_text != nullptr) *stdout_text = out.str();
  return code;
}

TEST(CheckCommand, RaceFailsAndCleanPassesInAllFormats) {
  const std::string race = write_temp("race", kRaceDesign);
  const std::string clean = write_temp(
      "clean",
      "design ok\ngraph g\n  store a\n  task t in=a out=r\n  pits {\n"
      "    r := sum(a)\n  }\n  store r\n  arc a -> t var=a\n"
      "  arc t -> r var=r\n");
  std::string out;
  EXPECT_EQ(run_cli({"check", race}, &out), 1);
  EXPECT_NE(out.find("BAN201"), std::string::npos);
  for (const char* format : {"text", "json", "sarif"}) {
    EXPECT_EQ(run_cli({"check", clean, "--format", format}, &out), 0)
        << format;
  }
}

TEST(CheckCommand, FailOnWarningTightensExit) {
  const std::string warn = write_temp(
      "warn",
      "design w\ngraph g\n  store a\n  task t in=a out=r\n  pits {\n"
      "    unused := a\n    r := 1\n  }\n  store r\n  arc a -> t var=a\n"
      "  arc t -> r var=r\n");
  std::string out;
  EXPECT_EQ(run_cli({"check", warn}, &out), 0);  // warnings pass by default
  EXPECT_NE(out.find("BAN102"), std::string::npos);
  EXPECT_EQ(run_cli({"check", warn, "--fail-on", "warning"}, &out), 1);
}

TEST(LintCommand, JsonOutput) {
  const std::string bad = write_temp(
      "lintjson",
      "design b\ngraph g\n  task t out=r\n  pits {\n    x := 1\n  }\n"
      "  store r\n  arc t -> r var=r\n");
  std::string out;
  EXPECT_EQ(run_cli({"lint", bad, "--json"}, &out), 1);
  EXPECT_NE(out.find("\"code\": \"BAN006\""), std::string::npos);
  EXPECT_NE(out.find("\"diagnostics\""), std::string::npos);
  // Interface layer only: no routine-layer codes in lint output.
  EXPECT_EQ(out.find("BAN102"), std::string::npos);
}

// ------------------------------------------------------ incremental check
//
// analyze_design memoises per-routine results process-wide. These tests
// pin that a memo hit is indistinguishable from analysing in place:
// same bytes on repeat, positions rebased when lines move, subjects
// rebound when tasks are renamed, and the same answer from any thread.

namespace fs = std::filesystem;

/// Walks up from the build directory to the repo root.
std::string repo_root() {
  fs::path dir = fs::current_path();
  for (int i = 0; i < 8 && !dir.empty(); ++i) {
    if (fs::exists(dir / "samples" / "analysis") &&
        fs::exists(dir / "tests" / "golden")) {
      return dir.string();
    }
    if (dir == dir.parent_path()) break;
    dir = dir.parent_path();
  }
  return {};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string replace_all(std::string text, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

/// Inserts `statement` as the first line of the `index`-th routine.
std::string edit_routine(const std::string& pitl, std::size_t index,
                         const std::string& statement) {
  std::size_t at = 0;
  for (std::size_t i = 0; i <= index; ++i) {
    at = pitl.find("pits {\n", at);
    EXPECT_NE(at, std::string::npos) << "no routine " << index;
    at += 7;
  }
  std::string edited = pitl;
  edited.insert(at, "    " + statement + "\n");
  return edited;
}

std::size_t routine_count(const graph::Design& design) {
  const auto flat = design.flatten();
  std::size_t n = 0;
  for (graph::TaskId t = 0; t < flat.graph.num_tasks(); ++t) {
    if (!util::trim(flat.graph.task(t).pits).empty()) ++n;
  }
  return n;
}

struct MemoCounts {
  double hits = 0;
  double misses = 0;
};

/// analyze_design under a private recorder, reporting the memo counters.
std::vector<Diagnostic> analyze_counted(const graph::Design& design,
                                        MemoCounts& counts) {
  obs::TraceRecorder rec;
  const obs::ScopedRecorder scope(rec);
  auto diags = analyze_design(design);
  counts.hits = rec.metric("analyze.memo.hits");
  counts.misses = rec.metric("analyze.memo.misses");
  return diags;
}

TEST(IncrementalCheck, RepeatRunsMatchGoldensByteForByte) {
  const std::string root = repo_root();
  ASSERT_FALSE(root.empty()) << "repo root not found from cwd";
  for (const char* name : {"absint_showcase", "shape_mismatch", "clean_loops",
                           "rules_corpus"}) {
    const std::string rel = std::string("samples/analysis/") + name + ".pitl";
    const auto design = graph::load_design(root + "/" + rel);
    EmitOptions options;
    options.file = rel;
    const std::string golden = root + "/tests/golden/analyze/" + name;
    if (const char* env = std::getenv("BANGER_UPDATE_GOLDEN");
        env != nullptr && env[0] == '1') {
      const auto diags = analyze_design(design);
      std::ofstream(golden + ".txt", std::ios::binary)
          << emit_text(diags, options);
      std::ofstream(golden + ".json", std::ios::binary)
          << emit_json(diags, options);
    }
    for (int run = 0; run < 2; ++run) {
      MemoCounts counts;
      const auto diags = analyze_counted(design, counts);
      EXPECT_EQ(emit_text(diags, options), slurp(golden + ".txt"))
          << name << " run " << run;
      EXPECT_EQ(emit_json(diags, options), slurp(golden + ".json"))
          << name << " run " << run;
      EXPECT_EQ(emit_sarif(diags, options), slurp(golden + ".sarif"))
          << name << " run " << run;
      EXPECT_EQ(counts.hits + counts.misses,
                static_cast<double>(routine_count(design)));
      if (run == 1) {
        EXPECT_EQ(counts.misses, 0.0) << name;
      }
    }
  }
}

TEST(IncrementalCheck, InsertedLineShiftsLaterTasksByOne) {
  const std::string root = repo_root();
  ASSERT_FALSE(root.empty()) << "repo root not found from cwd";
  const std::string pitl =
      slurp(root + "/samples/analysis/absint_showcase.pitl");
  const std::string edited = edit_routine(pitl, 0, "pad := 1");
  // The statement lands on the line after the first `pits {`.
  const int inserted_line = static_cast<int>(
      std::count(pitl.begin(), pitl.begin() + pitl.find("pits {\n") + 7,
                 '\n') + 1);

  const auto before = analyze_design(graph::parse_design(pitl));
  MemoCounts counts;
  const auto after = analyze_counted(graph::parse_design(edited), counts);
  EXPECT_EQ(counts.misses, 1.0);  // only the edited routine
  EXPECT_EQ(counts.hits, static_cast<double>(
                             routine_count(graph::parse_design(pitl)) - 1));

  auto others = [](std::vector<Diagnostic> diags) {
    std::erase_if(diags,
                  [](const Diagnostic& d) { return d.subject == "div_zero"; });
    return diags;
  };
  std::vector<Diagnostic> shifted = others(before);
  ASSERT_FALSE(shifted.empty());
  for (Diagnostic& d : shifted) {
    ASSERT_GT(d.pos.line, inserted_line) << d.to_string();
    ++d.pos.line;
  }
  const std::vector<Diagnostic> later = others(after);
  ASSERT_EQ(later.size(), shifted.size());
  for (std::size_t i = 0; i < later.size(); ++i) {
    EXPECT_EQ(later[i].to_string(), shifted[i].to_string());
    EXPECT_EQ(later[i].hint, shifted[i].hint);
    EXPECT_EQ(later[i].pos, shifted[i].pos);
  }
}

TEST(IncrementalCheck, RenamedTaskChangesOnlyTheSubject) {
  const std::string root = repo_root();
  ASSERT_FALSE(root.empty()) << "repo root not found from cwd";
  const std::string pitl =
      slurp(root + "/samples/analysis/absint_showcase.pitl");
  const std::string renamed = replace_all(pitl, "endless", "runaway");
  ASSERT_NE(renamed, pitl);

  auto expected = analyze_design(graph::parse_design(pitl));
  ASSERT_TRUE(fires(expected, "BAN304"));
  for (Diagnostic& d : expected) {
    if (d.subject == "endless") d.subject = "runaway";
  }
  sort_and_dedupe(expected);
  MemoCounts counts;
  const auto got = analyze_counted(graph::parse_design(renamed), counts);
  EXPECT_EQ(counts.misses, 0.0);  // same routines, new name: all hits
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].to_string(), expected[i].to_string());
    EXPECT_EQ(got[i].hint, expected[i].hint);
  }
}

TEST(IncrementalCheck, ConcurrentEditsAgreeAcrossThreads) {
  const std::string base = graph::to_pitl(workloads::heat_design(6, 3, 2));
  std::vector<std::string> designs{base};
  for (std::size_t k = 0; k < 8; ++k) {
    designs.push_back(edit_routine(
        base, 2 * k + 1, "memo_probe := " + std::to_string(k)));
  }
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<std::string>> seen(
      kThreads, std::vector<std::string>(designs.size()));
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Rotated orders, so the same fresh routine misses on several
      // threads at once.
      for (std::size_t n = 0; n < designs.size(); ++n) {
        const std::size_t d = (n + i) % designs.size();
        seen[i][d] = emit_json(analyze_design(graph::parse_design(designs[d])));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const std::string expected =
        emit_json(analyze_design(graph::parse_design(designs[d])));
    if (d > 0) {
      EXPECT_NE(expected.find("BAN102"), std::string::npos) << d;
    }
    for (std::size_t i = 0; i < kThreads; ++i) {
      EXPECT_EQ(seen[i][d], expected) << "thread " << i << " design " << d;
    }
  }
}

}  // namespace
}  // namespace banger::analyze
