// bench::Report (bench/report.h) and the report gate
// (bench/check_report.cmake): escaping checked by CMake's own JSON parser,
// non-finite numbers, exit status, the `# shape-check:` line bytes, and the
// gate's waiver and schema rules.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "report.h"

namespace {

using ecgf::bench::Json;
using ecgf::bench::Report;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream(path) << text;
}

int run_cmake(const std::string& args) {
  return std::system((std::string(ECGF_CMAKE_COMMAND) + " " + args +
                      " > /dev/null 2>&1")
                         .c_str());
}

/// Exit status of the report gate over `report`, checked against `source`.
int gate(const std::string& report, const std::string& source) {
  return run_cmake("-DREPORT=" + report + " -DSOURCE=" + source + " -P " +
                   ECGF_CHECK_REPORT_SCRIPT);
}

/// Each test writes its files into a directory of its own, removed after.
class BenchReport : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) /
           ("bench_report_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()) +
            "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string scratch(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// A source file that holds the schema literal the tests write.
  std::string schema_source() const {
    const std::string path = scratch("source.cpp");
    spit(path, "Report report(\"ecgf-test/1\", mode);\n");
    return path;
  }

 private:
  std::filesystem::path dir_;
};

TEST_F(BenchReport, StringsRoundTripThroughAJsonParser) {
  const std::string nasty = "quote \" backslash \\ newline \n bell \x07 end";
  Report report("ecgf-test/1", "smoke");
  report.set("text", nasty);
  report.check(nasty, true);
  const std::string path = scratch("strings.json");
  ASSERT_EQ(report.finish(path), 0);

  // CMake's string(JSON) decodes both strings back; they must match.
  const std::string script = scratch("decode.cmake");
  const std::string decoded = scratch("decoded.txt");
  spit(script,
       "file(READ \"" + path + "\" j)\n"
       "string(JSON a GET \"${j}\" text)\n"
       "string(JSON b GET \"${j}\" shape_checks 0 claim)\n"
       "file(WRITE \"" + decoded + "\" \"${a}|${b}\")\n");
  std::filesystem::remove(decoded);
  ASSERT_EQ(run_cmake("-P " + script), 0) << slurp(path);
  EXPECT_EQ(slurp(decoded), nasty + "|" + nasty);
  EXPECT_EQ(gate(path, schema_source()), 0);
}

TEST_F(BenchReport, NonFiniteNumberFailsTheReportAndIsNotWrittenAsNan) {
  Report report("ecgf-test/1", "smoke");
  report.set("ok", 1.5);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  report.set("arms", Json::array().push(Json::object().set("miss_ms", nan)));
  report.set("rate", Json::fixed(std::numeric_limits<double>::infinity(), 6));
  report.check("a claim that holds", true);
  const std::string path = scratch("nan.json");
  EXPECT_EQ(report.finish(path), 1);
  const std::string text = slurp(path);
  EXPECT_EQ(text.find("nan"), std::string::npos) << text;
  EXPECT_EQ(text.find("inf"), std::string::npos) << text;
  EXPECT_NE(text.find("\"miss_ms\": null"), std::string::npos) << text;
  EXPECT_NE(text.find("not: arms[0].miss_ms rate"), std::string::npos)
      << text;
  EXPECT_NE(gate(path, schema_source()), 0);
}

TEST_F(BenchReport, OneFailingCheckMakesTheExitStatusNonzero) {
  // Run in an empty directory: finish("") prints nothing and writes no file.
  const std::filesystem::path cwd = std::filesystem::current_path();
  const std::filesystem::path run_dir = scratch("run");
  std::filesystem::create_directories(run_dir);
  std::filesystem::current_path(run_dir);
  ::testing::internal::CaptureStdout();
  Report passing("ecgf-test/1", "full");
  passing.check("holds", true);
  const int passing_status = passing.finish("");
  Report failing("ecgf-test/1", "full");
  failing.check("holds", true);
  EXPECT_FALSE(failing.check("does not hold", false));
  failing.check("holds too", true);
  const int failing_status = failing.finish("");
  const std::string out = ::testing::internal::GetCapturedStdout();
  std::filesystem::current_path(cwd);

  EXPECT_EQ(passing_status, 0);
  EXPECT_EQ(failing_status, 1);
  const std::string dash = "\xE2\x80\x94";  // U+2014 EM DASH in UTF-8
  EXPECT_EQ(out, "# shape-check: PASS " + dash + " holds\n" +
                     "# shape-check: PASS " + dash + " holds\n" +
                     "# shape-check: FAIL " + dash + " does not hold\n" +
                     "# shape-check: PASS " + dash + " holds too\n");
  EXPECT_TRUE(std::filesystem::is_empty(run_dir));

  const std::string path = scratch("failing.json");
  EXPECT_EQ(failing.finish(path), 1);
  EXPECT_NE(gate(path, schema_source()), 0);
}

TEST_F(BenchReport, SkippedWaiverPassesTheGate) {
  Report report("ecgf-test/1", "smoke");
  report.skip("loopback sockets unavailable");
  report.set("entries", Json::array());
  const std::string path = scratch("skipped.json");
  ASSERT_EQ(report.finish(path), 0);
  EXPECT_EQ(gate(path, schema_source()), 0) << slurp(path);

  // A full report with no checks at all is not a waiver.
  Report empty("ecgf-test/1", "full");
  const std::string empty_path = scratch("empty.json");
  ASSERT_EQ(empty.finish(empty_path), 0);
  EXPECT_NE(gate(empty_path, schema_source()), 0);
}

TEST_F(BenchReport, SchemaMissingFromTheSourceFailsTheGate) {
  Report report("ecgf-test/2", "smoke");
  report.check("holds", true);
  const std::string path = scratch("schema.json");
  ASSERT_EQ(report.finish(path), 0);
  EXPECT_NE(gate(path, schema_source()), 0);  // the source says ecgf-test/1
}

}  // namespace
