// CLI tests: every command driven through cli::run with captured
// streams, exercising the tool exactly as a shell user would.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cli/cli.hpp"
#include "graph/serialize.hpp"
#include "machine/serialize.hpp"
#include "serve/json.hpp"
#include "workloads/lu.hpp"

namespace banger::cli {
namespace {

struct CliResult {
  int code = 0;
  std::string out;
  std::string err;
};

CliResult invoke(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  CliResult r;
  r.code = run(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

class CliFiles : public ::testing::Test {
 protected:
  void SetUp() override {
    design_path_ = testing::TempDir() + "/cli_lu.pitl";
    machine_path_ = testing::TempDir() + "/cli_cube.machine";
    graph::save_design(workloads::lu3x3_design(), design_path_);
    std::ofstream(machine_path_) << "machine cube4\n"
                                    "topology hypercube dim=2\n"
                                    "speed 1\n"
                                    "message_startup 0.05\n"
                                    "bandwidth 512\n";
  }
  std::string design_path_;
  std::string machine_path_;
};

TEST(Cli, NoArgsShowsUsageWithCode2) {
  const auto r = invoke({});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.out.find("usage: banger"), std::string::npos);
}

TEST(Cli, HelpExitsZero) {
  const auto r = invoke({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("commands:"), std::string::npos);
}

TEST(Cli, UnknownCommand) {
  const auto r = invoke({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, MissingFileIsUserError) {
  const auto r = invoke({"info", "/no/such/file.pitl"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("banger:"), std::string::npos);
}

TEST_F(CliFiles, Info) {
  const auto r = invoke({"info", design_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("leaf tasks: 9"), std::string::npos);
  EXPECT_NE(r.out.find("input stores: A b"), std::string::npos);
  EXPECT_NE(r.out.find("output stores: x"), std::string::npos);
}

TEST_F(CliFiles, Validate) {
  const auto r = invoke({"validate", design_path_});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("ok:"), std::string::npos);
}

TEST_F(CliFiles, Flatten) {
  const auto r = invoke({"flatten", design_path_});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("solve.back"), std::string::npos);
  EXPECT_NE(r.out.find("fan1"), std::string::npos);
}

TEST_F(CliFiles, DotToStdoutAndFile) {
  const auto r = invoke({"dot", design_path_});
  ASSERT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("digraph"), std::string::npos);

  const std::string path = testing::TempDir() + "/cli_out.dot";
  const auto r2 = invoke({"dot", design_path_, "-o", path});
  ASSERT_EQ(r2.code, 0);
  std::ifstream in(path);
  std::string first;
  std::getline(in, first);
  EXPECT_NE(first.find("digraph"), std::string::npos);
}

TEST(Cli, Topo) {
  const auto r = invoke({"topo", "mesh", "rows=2", "cols=3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("6 processors"), std::string::npos);
  EXPECT_NE(r.out.find("7 links"), std::string::npos);
}

TEST_F(CliFiles, ScheduleGantt) {
  const auto r = invoke({"schedule", design_path_, machine_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("Gantt chart"), std::string::npos);
  EXPECT_NE(r.out.find("makespan"), std::string::npos);
}

TEST_F(CliFiles, ScheduleTableAndSvg) {
  const auto table = invoke(
      {"schedule", design_path_, machine_path_, "--format", "table"});
  ASSERT_EQ(table.code, 0);
  EXPECT_NE(table.out.find("start"), std::string::npos);

  const auto svg = invoke(
      {"schedule", design_path_, machine_path_, "--format", "svg"});
  ASSERT_EQ(svg.code, 0);
  EXPECT_NE(svg.out.find("<svg"), std::string::npos);
}

TEST_F(CliFiles, ScheduleWithExplicitScheduler) {
  for (const char* name : {"mcp", "dsh", "cluster", "serial"}) {
    const auto r = invoke(
        {"schedule", design_path_, machine_path_, "--scheduler", name});
    EXPECT_EQ(r.code, 0) << name << ": " << r.err;
  }
  const auto bad = invoke(
      {"schedule", design_path_, machine_path_, "--scheduler", "nope"});
  EXPECT_EQ(bad.code, 1);
}

TEST_F(CliFiles, Speedup) {
  const auto r = invoke(
      {"speedup", design_path_, machine_path_, "--sizes", "1,2,4"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("procs"), std::string::npos);
  EXPECT_NE(r.out.find("ideal linear"), std::string::npos);
}

TEST_F(CliFiles, SpeedupRejectsBadSizes) {
  const auto r = invoke(
      {"speedup", design_path_, machine_path_, "--sizes", "1,zero"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("--sizes"), std::string::npos);
  EXPECT_NE(r.err.find("zero"), std::string::npos);
}

TEST_F(CliFiles, Simulate) {
  const auto r = invoke(
      {"simulate", design_path_, machine_path_, "--events", "5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("simulated makespan"), std::string::npos);
  EXPECT_NE(r.out.find("t="), std::string::npos);
}

TEST_F(CliFiles, SimulateWithContention) {
  const auto r = invoke(
      {"simulate", design_path_, machine_path_, "--contention"});
  ASSERT_EQ(r.code, 0) << r.err;
}

TEST_F(CliFiles, TrialRunSolvesSystem) {
  const auto r = invoke({"trial", design_path_, "--input",
                         "A=[4,3,2,8,8,5,4,7,9]", "--input", "b=[16,39,45]"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("x = [1, 2, 3]"), std::string::npos);
}

TEST_F(CliFiles, RunMatchesTrial) {
  const auto r = invoke({"run", design_path_, machine_path_, "--input",
                         "A=[4,3,2,8,8,5,4,7,9]", "--input", "b=[16,39,45]"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("x = [1, 2, 3]"), std::string::npos);
}

TEST_F(CliFiles, InputsAreFullPitsExpressions) {
  const auto r = invoke({"trial", design_path_, "--input",
                         "A=[4,3,2,8,8,5,4,7,9]", "--input",
                         "b=[2^4, 39, 40+5]"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("x = [1, 2, 3]"), std::string::npos);
}

TEST_F(CliFiles, TrialBatchFromInputsFile) {
  const std::string inputs_path = testing::TempDir() + "/cli_trials.txt";
  std::ofstream(inputs_path)
      << "# one trial per line\n"
      << "A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45]\n"
      << "\n"
      << "A=[4,3,2,8,8,5,4,7,9]; b=[32,78,90]\n";
  const auto r = invoke({"trial", design_path_, "--inputs", inputs_path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("=== trial 1 of 2 ==="), std::string::npos);
  EXPECT_NE(r.out.find("=== trial 2 of 2 ==="), std::string::npos);
  EXPECT_NE(r.out.find("x = [1, 2, 3]"), std::string::npos);
  EXPECT_NE(r.out.find("x = [2, 4, 6]"), std::string::npos);

  // Each block is byte-identical to the equivalent one-shot run.
  const auto one = invoke({"trial", design_path_, "--input",
                           "A=[4,3,2,8,8,5,4,7,9]", "--input",
                           "b=[16,39,45]"});
  EXPECT_NE(r.out.find(one.out), std::string::npos);
}

TEST_F(CliFiles, TrialBatchFailingTrialExitsOne) {
  const std::string inputs_path = testing::TempDir() + "/cli_trials_err.txt";
  std::ofstream(inputs_path)
      << "A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45]\n"
      << "A=[0,3,2,8,8,5,4,7,9]; b=[16,39,45]\n";  // zero pivot
  const auto r = invoke({"trial", design_path_, "--inputs", inputs_path});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("x = [1, 2, 3]"), std::string::npos);
  EXPECT_NE(r.out.find("error[runtime]:"), std::string::npos);
}

TEST_F(CliFiles, TrialBatchRejectsMalformedLine) {
  const std::string inputs_path = testing::TempDir() + "/cli_trials_bad.txt";
  std::ofstream(inputs_path) << "A=[1]; nonsense\n";
  const auto r = invoke({"trial", design_path_, "--inputs", inputs_path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("VAR=EXPR"), std::string::npos);
  EXPECT_NE(r.err.find("line 1"), std::string::npos);
}

TEST_F(CliFiles, TrialInputAndInputsFileAreExclusive) {
  const std::string inputs_path = testing::TempDir() + "/cli_trials_x.txt";
  std::ofstream(inputs_path) << "A=[1]\n";
  const auto r = invoke({"trial", design_path_, "--input", "A=[1]",
                         "--inputs", inputs_path});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("not both"), std::string::npos);
}

TEST_F(CliFiles, TrialMissingInputFails) {
  const auto r = invoke({"trial", design_path_});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("input store"), std::string::npos);
}

TEST_F(CliFiles, Codegen) {
  const auto r = invoke({"codegen", design_path_, machine_path_, "--input",
                         "A=[4,3,2,8,8,5,4,7,9]", "--input", "b=[16,39,45]"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("int main()"), std::string::npos);
  EXPECT_NE(r.out.find("task_0"), std::string::npos);
}

TEST_F(CliFiles, ScheduleTraceFormat) {
  const auto r = invoke(
      {"schedule", design_path_, machine_path_, "--format", "trace"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.front(), '[');
  EXPECT_NE(r.out.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(CliFiles, SimulateWritesTraceFile) {
  const std::string path = testing::TempDir() + "/cli_sim_trace.json";
  const auto r = invoke({"simulate", design_path_, machine_path_, "-o", path});
  ASSERT_EQ(r.code, 0) << r.err;
  std::ifstream in(path);
  std::string first;
  std::getline(in, first);
  EXPECT_EQ(first, "[");
}

TEST_F(CliFiles, LintCleanDesign) {
  const auto r = invoke({"lint", design_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("clean"), std::string::npos);
}

TEST(Cli, LintBrokenDesignExitsOne) {
  const std::string path = testing::TempDir() + "/cli_broken.pitl";
  std::ofstream(path) << "design broken\n"
                         "graph broken\n"
                         "  task t out=r\n"
                         "  pits {\n"
                         "    r := mystery\n"
                         "  }\n";
  const auto r = invoke({"lint", path});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("error:"), std::string::npos);
}

TEST_F(CliFiles, CompareListsAllHeuristics) {
  const auto r = invoke({"compare", design_path_, machine_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  for (const char* name : {"mh", "mcp", "etf", "dsh", "cluster", "serial"}) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
}

TEST_F(CliFiles, GrainSweep) {
  const auto r = invoke({"grain", design_path_, machine_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("min grain"), std::string::npos);
  EXPECT_NE(r.out.find("(none)"), std::string::npos);
}

TEST_F(CliFiles, ScheduleShowsUtilization) {
  const auto r = invoke({"schedule", design_path_, machine_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("processor utilisation"), std::string::npos);
}

TEST_F(CliFiles, ExplainReport) {
  const auto r = invoke({"explain", design_path_, machine_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("critical parent"), std::string::npos);
  EXPECT_NE(r.out.find("fan1"), std::string::npos);
  const auto one = invoke(
      {"explain", design_path_, machine_path_, "--task", "solve.back"});
  ASSERT_EQ(one.code, 0) << one.err;
  EXPECT_NE(one.out.find("solve.back"), std::string::npos);
}

TEST_F(CliFiles, ReportIsSelfContainedMarkdown) {
  const auto r = invoke({"report", design_path_, machine_path_, "--sizes",
                         "1,2,4"});
  ASSERT_EQ(r.code, 0) << r.err;
  for (const char* needle :
       {"# banger report: lu3x3", "## Design", "## Lint", "clean",
        "## Schedule", "## Speedup prediction", "## Heuristic comparison",
        "Gantt chart"}) {
    EXPECT_NE(r.out.find(needle), std::string::npos) << needle;
  }
}

TEST_F(CliFiles, SplitSweep) {
  const auto r = invoke({"split", design_path_, machine_path_});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("split threshold"), std::string::npos);
  EXPECT_NE(r.out.find("(none)"), std::string::npos);
}

TEST_F(CliFiles, HtmlReport) {
  const auto r = invoke({"report", design_path_, machine_path_, "--format",
                         "html", "--sizes", "1,2,4"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_EQ(r.out.rfind("<!DOCTYPE html>", 0), 0u);
  for (const char* needle :
       {"<svg", "Heuristic comparison", "Speedup prediction", "lu3x3",
        "</html>"}) {
    EXPECT_NE(r.out.find(needle), std::string::npos) << needle;
  }
  // Gantt SVG plus speedup SVG.
  std::size_t svgs = 0;
  for (auto pos = r.out.find("<svg"); pos != std::string::npos;
       pos = r.out.find("<svg", pos + 1)) {
    ++svgs;
  }
  EXPECT_EQ(svgs, 2u);
}

TEST_F(CliFiles, BadOptionIsUsageError) {
  const auto r = invoke({"info", design_path_, "--bogus"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown option"), std::string::npos);
}

TEST_F(CliFiles, BadInputSyntax) {
  const auto r = invoke({"trial", design_path_, "--input", "no_equals"});
  EXPECT_EQ(r.code, 2);
}

TEST(Cli, ServeFlagValidationNamesFlagAndValue) {
  struct Case {
    std::vector<std::string> args;
    const char* flag;
    const char* value;
  };
  const Case cases[] = {
      {{"serve", "--port", "70000"}, "--port", "70000"},
      {{"serve", "--port", "abc"}, "--port", "abc"},
      {{"serve", "--max-inflight", "0"}, "--max-inflight", "0"},
      {{"serve", "--deadline-ms", "-1"}, "--deadline-ms", "-1"},
      {{"serve", "--cache-cap", "0"}, "--cache-cap", "0"},
  };
  for (const auto& c : cases) {
    const auto r = invoke(c.args);
    EXPECT_EQ(r.code, 2) << c.flag;
    EXPECT_NE(r.err.find(c.flag), std::string::npos) << r.err;
    EXPECT_NE(r.err.find(c.value), std::string::npos) << r.err;
  }
}

TEST(Cli, ServeOnceAnswersOneRequest) {
  std::istringstream in("{\"id\":1,\"op\":\"ping\"}\n");
  std::ostringstream out;
  std::ostringstream err;
  const int code = run({"serve", "--once"}, in, out, err);
  EXPECT_EQ(code, 0) << err.str();
  EXPECT_NE(out.str().find("\"output\":\"pong\""), std::string::npos)
      << out.str();
  EXPECT_EQ(out.str().back(), '\n');
}

TEST_F(CliFiles, ServeStdioStreamMatchesCli) {
  // End-to-end through the CLI entry point: a two-request stdio
  // session whose schedule response must carry the same bytes as the
  // one-shot `banger schedule` command.
  const auto one_shot = invoke({"schedule", design_path_, machine_path_});
  ASSERT_EQ(one_shot.code, 0) << one_shot.err;

  std::ifstream design(design_path_);
  std::stringstream design_text;
  design_text << design.rdbuf();
  std::ostringstream request;
  request << "{\"id\":1,\"op\":\"ping\"}\n"
          << "{\"id\":2,\"op\":\"schedule\",\"design\":";
  // Reuse the serve JSON writer for correct escaping.
  request << serve::Json::string(design_text.str()).dump()
          << ",\"machine\":"
          << serve::Json::string(
                 "machine cube4\n"
                 "topology hypercube dim=2\n"
                 "speed 1\n"
                 "message_startup 0.05\n"
                 "bandwidth 512\n")
                 .dump()
          << "}\n";
  std::istringstream in(request.str());
  std::ostringstream out;
  std::ostringstream err;
  const int code = run({"serve"}, in, out, err);
  EXPECT_EQ(code, 0) << err.str();
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("pong"), std::string::npos);
  ASSERT_TRUE(std::getline(lines, line));
  const serve::Json resp = serve::Json::parse(line);
  const serve::Json* output = resp.find("output");
  ASSERT_NE(output, nullptr) << line;
  EXPECT_EQ(output->as_string(), one_shot.out);
}

// ---------------------------------------------------- hostile inputs
//
// Inputs a file can carry must end in a positioned error, never a crash
// or an internal assertion.

std::string write_file(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

/// One task whose routine nests `depth` parentheses around its input.
std::string nested_design(int depth) {
  return "design deep\ngraph deep\n  store x bytes=8\n  store y bytes=8\n"
         "  task t work=1 in=x out=y\n  pits {\n    y := " +
         std::string(static_cast<std::size_t>(depth), '(') + "x" +
         std::string(static_cast<std::size_t>(depth), ')') +
         "\n  }\n  arc x -> t var=x\n  arc t -> y var=y\n";
}

TEST(CliHostile, DeeplyNestedPitsIsAParseErrorNotACrash) {
  // 10,000 parentheses (about 20 KB) are enough to overflow the stack
  // of a pass that recurses over the AST; every command must report the
  // nesting limit instead.
  const std::string design = write_file("cli_deep.pitl", nested_design(10000));
  const std::string machine = write_file(
      "cli_deep.machine", "machine m\ntopology full procs=2\nspeed 1\n");

  const auto check = invoke({"check", design});
  EXPECT_EQ(check.code, 1) << check.err;
  EXPECT_NE(check.out.find("error[BAN003]"), std::string::npos) << check.out;
  EXPECT_NE(check.out.find("nesting is deeper than 256 levels"),
            std::string::npos)
      << check.out;
  EXPECT_NE(check.out.find("cli_deep.pitl:7:"), std::string::npos)
      << "BAN003 carries the file line of the routine";

  const auto trial = invoke({"trial", design, "--input", "x=2"});
  EXPECT_EQ(trial.code, 1);
  EXPECT_NE(trial.err.find("nesting is deeper"), std::string::npos)
      << trial.err;
  const auto run = invoke({"run", design, machine, "--input", "x=2"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("nesting is deeper"), std::string::npos) << run.err;

  // Just inside the limit the same shape checks clean and runs.
  const std::string ok = write_file("cli_deep_ok.pitl", nested_design(200));
  const auto clean = invoke({"check", ok});
  EXPECT_EQ(clean.code, 0) << clean.out;
  const auto ran = invoke({"trial", ok, "--input", "x=2"});
  EXPECT_EQ(ran.code, 0) << ran.err;
  EXPECT_NE(ran.out.find("y = 2"), std::string::npos) << ran.out;
}

TEST(CliHostile, Ban003NamesOnePosition) {
  // The diagnostic carries the file position; the parse error's own,
  // routine-relative one must not follow it into the message.
  const std::string design =
      write_file("cli_ban003.pitl", nested_design(10000));
  const auto check = invoke({"check", design});
  EXPECT_EQ(check.code, 1);
  EXPECT_NE(check.out.find("cli_ban003.pitl:7:265: error[BAN003]: task `t`: "
                           "PITS does not parse: nesting is deeper than 256 "
                           "levels\n"),
            std::string::npos)
      << check.out;
  EXPECT_EQ(check.out.find(" at 1:"), std::string::npos) << check.out;
}

TEST(CliHostile, ServeOnceAnswersDeeplyNestedJsonWithAnEnvelope) {
  // 60,000 nested arrays in a ping (about 120 KB) overflowed the JSON
  // parser's stack: exit 139 instead of an answer.
  std::istringstream in(R"({"id":1,"op":"ping","x":)" +
                        std::string(60000, '[') + std::string(60000, ']') +
                        "}\n");
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run({"serve", "--once"}, in, out, err), 0) << err.str();
  const serve::Json resp = serve::Json::parse(out.str());
  const serve::Json* ok = resp.find("ok");
  ASSERT_NE(ok, nullptr) << out.str();
  EXPECT_FALSE(ok->as_bool());
  const serve::Json* error = resp.find("error");
  ASSERT_NE(error, nullptr) << out.str();
  EXPECT_EQ(error->find("code")->as_string(), "parse");
  EXPECT_EQ(error->find("message")->as_string(),
            "json: nesting is deeper than 256 levels");
}

/// The `line:col` right after the first `marker` in `text`, or "".
std::string position_after(const std::string& text,
                           const std::string& marker) {
  const std::size_t at = text.find(marker);
  if (at == std::string::npos) return {};
  const std::size_t start = at + marker.size();
  std::string pos = text.substr(
      start, text.find_first_not_of("0123456789:", start) - start);
  if (!pos.empty() && pos.back() == ':') pos.pop_back();
  return pos;
}

/// One task whose routine (file lines 7 onwards) is `body`.
std::string routine_file(const std::string& name, const std::string& body) {
  return write_file(name,
                    "design d\ngraph g\n  store x bytes=8\n"
                    "  store y bytes=8\n  task t work=1 in=x out=y\n"
                    "  pits {\n" + body + "  }\n  arc x -> t var=x\n"
                    "  arc t -> y var=y\n");
}

TEST(CliHostile, CheckAndTrialReportTheSameFilePositions) {
  // `check` places routine findings in file coordinates; `trial`
  // re-raises a routine's parse and run-time errors in the same ones.
  const std::string deep = write_file("cli_pos_deep.pitl", nested_design(10000));
  const auto check_deep = invoke({"check", deep});
  const auto trial_deep = invoke({"trial", deep, "--input", "x=2"});
  EXPECT_EQ(position_after(check_deep.out, "cli_pos_deep.pitl:"), "7:265");
  EXPECT_EQ(position_after(trial_deep.err, " at "), "7:265") << trial_deep.err;

  // An out-of-range index on file line 8: both point at the index.
  const std::string index = routine_file(
      "cli_pos_index.pitl", "    v := [1, 2]\n    y := x + v[2]\n");
  const auto check_index = invoke({"check", index});
  const auto trial_index = invoke({"trial", index, "--input", "x=2"});
  EXPECT_NE(check_index.out.find("error[BAN105]"), std::string::npos)
      << check_index.out;
  EXPECT_EQ(position_after(check_index.out, "cli_pos_index.pitl:"), "8:16");
  EXPECT_EQ(position_after(trial_index.err, " at "), "8:16")
      << trial_index.err;

  // A division by zero on file line 8: BAN104 points at the divisor,
  // the run at the operator, both on the file's line.
  const std::string div =
      routine_file("cli_pos_div.pitl", "    z := 0\n    y := x / z\n");
  const auto check_div = invoke({"check", div});
  const auto trial_div = invoke({"trial", div, "--input", "x=2"});
  EXPECT_NE(check_div.out.find("error[BAN104]"), std::string::npos)
      << check_div.out;
  EXPECT_EQ(position_after(check_div.out, "cli_pos_div.pitl:"), "8:14");
  EXPECT_EQ(position_after(trial_div.err, " at "), "8:12") << trial_div.err;
}

TEST_F(CliFiles, NonFiniteMachineNumberIsAMachineError) {
  // A NaN startup reaching the scheduler trips its internal assertion
  // (`winner != nullptr`); the machine parser must refuse it first.
  for (const char* value : {"nan", "inf", "-inf"}) {
    const std::string machine = write_file(
        "cli_nan.machine", std::string("machine m\ntopology full procs=3\n"
                                       "speed 1\nmessage_startup ") +
                               value + "\nbandwidth 0\n");
    const auto r = invoke({"schedule", design_path_, machine});
    EXPECT_EQ(r.code, 1) << value;
    EXPECT_NE(r.err.find("machine error at 4:1"), std::string::npos)
        << value << ": " << r.err;
    EXPECT_NE(r.err.find("is not finite"), std::string::npos) << r.err;
  }
  // Zero bandwidth still means free transfer.
  const std::string free_links = write_file(
      "cli_free.machine",
      "machine m\ntopology full procs=3\nspeed 1\nbandwidth 0\n");
  EXPECT_EQ(invoke({"schedule", design_path_, free_links}).code, 0);
}

TEST(CliHostile, NonFiniteDesignNumberIsAPositionedParseError) {
  // `work=nan` passed `validate` and then tripped the list scheduler's
  // `best.proc >= 0` assertion (exit 134); `bytes=inf` on an arc or a
  // store is refused the same way.
  const std::string machine = testing::TempDir() + "/cli_star.machine";
  std::ofstream(machine) << "machine star\ntopology star procs=3\nspeed 1\n"
                            "message_startup 0.05\nbandwidth 512\n";
  const struct {
    const char* text;
    const char* where;
  } cases[] = {
      {"design d\ngraph d\n  task t work=nan\n", "3:1"},
      {"design d\ngraph d\n  task t work=-inf\n", "3:1"},
      {"design d\ngraph d\n  store s bytes=inf\n  task t in=s\n", "3:1"},
      {"design d\ngraph d\n  task a out=x\n  task b in=x\n"
       "  arc a -> b var=x bytes=inf\n",
       "5:1"},
  };
  for (const auto& c : cases) {
    const std::string design = testing::TempDir() + "/cli_nonfinite.pitl";
    std::ofstream(design) << c.text;
    for (const char* command : {"validate", "schedule"}) {
      std::vector<std::string> args{command, design};
      if (std::string(command) == "schedule") args.push_back(machine);
      const auto r = invoke(args);
      EXPECT_EQ(r.code, 1) << command << ": " << c.text;
      EXPECT_NE(r.err.find(std::string("parse error at ") + c.where),
                std::string::npos)
          << r.err;
      EXPECT_NE(r.err.find("is not finite"), std::string::npos) << r.err;
    }
  }
}

TEST_F(CliFiles, NonFiniteFaultNumberIsAPositionedParseError) {
  // `jitter=inf` passed the `>= 0` range check and tripped the repair
  // scheduler's `best.proc >= 0` assertion (exit 134).
  for (const char* line : {"msgdelay jitter=inf", "crash proc=1 at=nan",
                           "slow proc=0 from=0 to=inf factor=2"}) {
    const std::string plan = testing::TempDir() + "/cli_nonfinite.fault";
    std::ofstream(plan) << "faultplan p seed=1\n" << line << "\n";
    const auto r = invoke(
        {"faults", design_path_, machine_path_, "--fault-plan", plan});
    EXPECT_EQ(r.code, 1) << line;
    EXPECT_NE(r.err.find("parse error at 2:1"), std::string::npos)
        << line << ": " << r.err;
    EXPECT_NE(r.err.find("is not finite"), std::string::npos) << r.err;
  }
}

}  // namespace
}  // namespace banger::cli
