// Contract tests for the analysis binaries (vgprs_lint / vgprs_verify),
// run against the real built tools:
//
//  * exit-code contract: 0 clean, 1 findings, 2 usage/internal error;
//  * every rule family's --seed-defect produces findings (so each check
//    demonstrably bites), and --self-test passes across all families;
//  * --json and --sarif write well-formed structured reports.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

const std::string kLint = VGPRS_LINT_BIN;      // NOLINT(cert-err58-cpp)
const std::string kVerify = VGPRS_VERIFY_BIN;  // NOLINT(cert-err58-cpp)

constexpr const char* kLintFamilies[] = {
    "registry", "codec", "flows", "correlation",
    "retransmission", "fsm", "sharding", "dispatch"};
constexpr const char* kVerifyFamilies[] = {
    "unhandled", "deadlock", "dead-row", "timer", "flow-cover"};

int run(const std::string& cmd) {
  int rc = std::system((cmd + " > /dev/null 2>&1").c_str());
  EXPECT_TRUE(WIFEXITED(rc)) << cmd;
  return WEXITSTATUS(rc);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(AnalysisTools, CleanTreeExitsZero) {
  EXPECT_EQ(run(kLint), 0);
  EXPECT_EQ(run(kVerify), 0);
}

TEST(AnalysisTools, FindingsExitOne) {
  EXPECT_EQ(run(kLint + " --seed-defect fsm"), 1);
  EXPECT_EQ(run(kVerify + " --seed-defect deadlock"), 1);
}

TEST(AnalysisTools, UsageErrorsExitTwo) {
  EXPECT_EQ(run(kLint + " --bogus-flag"), 2);
  EXPECT_EQ(run(kVerify + " --bogus-flag"), 2);
  EXPECT_EQ(run(kVerify + " --seed-defect no-such-family"), 2);
  EXPECT_EQ(run(kVerify + " --json"), 2);  // missing operand
}

TEST(AnalysisTools, EveryFamilyCatchesItsSeededDefect) {
  for (const char* family : kLintFamilies) {
    EXPECT_EQ(run(kLint + " --seed-defect " + family), 1) << family;
  }
  for (const char* family : kVerifyFamilies) {
    EXPECT_EQ(run(kVerify + " --seed-defect " + family), 1) << family;
  }
  EXPECT_EQ(run(kLint + " --self-test"), 0);
  EXPECT_EQ(run(kVerify + " --self-test"), 0);
}

TEST(AnalysisTools, StructuredOutputsAreWellFormed) {
  const std::string json = "analysis_tools_test.json";
  const std::string sarif = "analysis_tools_test.sarif";
  EXPECT_EQ(run(kVerify + " --json " + json + " --sarif " + sarif), 0);

  const std::string j = slurp(json);
  ASSERT_FALSE(j.empty());
  EXPECT_EQ(j.front(), '{');
  EXPECT_NE(j.find("\"findings\""), std::string::npos);

  const std::string s = slurp(sarif);
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.front(), '{');
  EXPECT_NE(s.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(s.find("vgprs_verify"), std::string::npos);

  std::remove(json.c_str());
  std::remove(sarif.c_str());

  // A run with findings still writes the reports (exit 1, not 2).
  EXPECT_EQ(run(kLint + " --seed-defect fsm --json " + json), 1);
  const std::string jf = slurp(json);
  EXPECT_NE(jf.find("\"fsm:"), std::string::npos);
  std::remove(json.c_str());
}

}  // namespace
