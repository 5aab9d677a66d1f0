// Golden-file contract for the repro drivers: their stdout is a published
// artifact (the paper's tables next to our measurements), so it must not
// drift silently. Each test runs the real binary and byte-compares its
// output to tests/golden/<name>.txt.
//
// To refresh after an intentional change:
//   build/bench/repro_table1 > tests/golden/repro_table1.txt
// (same for the others), then review the diff like any code change.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace mdc {
namespace {

std::string RunAndCapture(const std::string& binary) {
  std::string command = std::string(MDC_REPRO_BIN_DIR) + "/" + binary;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "cannot launch " << command;
  if (pipe == nullptr) return "";
  std::string output;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    output += buffer;
  }
  int status = pclose(pipe);
  EXPECT_EQ(status, 0) << binary << " exited with " << status;
  return output;
}

std::string ReadGolden(const std::string& name) {
  std::string path = std::string(MDC_GOLDEN_DIR) + "/" + name + ".txt";
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Points at the first differing line so a drift is diagnosable from the
// ctest log without rerunning anything.
void ExpectMatchesGolden(const std::string& binary) {
  std::string got = RunAndCapture(binary);
  std::string want = ReadGolden(binary);
  if (got == want) return;

  std::istringstream got_lines(got);
  std::istringstream want_lines(want);
  std::string got_line;
  std::string want_line;
  size_t line = 0;
  while (true) {
    ++line;
    bool more_got = static_cast<bool>(std::getline(got_lines, got_line));
    bool more_want = static_cast<bool>(std::getline(want_lines, want_line));
    if (!more_got && !more_want) break;
    if (!more_got) got_line = "<end of output>";
    if (!more_want) want_line = "<end of golden>";
    if (got_line != want_line || more_got != more_want) {
      FAIL() << binary << " drifted from tests/golden/" << binary
             << ".txt at line " << line << "\n  golden: " << want_line
             << "\n  actual: " << got_line
             << "\nIf intentional, regenerate: build/bench/" << binary
             << " > tests/golden/" << binary << ".txt";
    }
  }
}

TEST(ReproGoldenTest, Table1) { ExpectMatchesGolden("repro_table1"); }

TEST(ReproGoldenTest, Table4Dominance) {
  ExpectMatchesGolden("repro_table4_dominance");
}

TEST(ReproGoldenTest, Theorem1) { ExpectMatchesGolden("repro_theorem1"); }

// The three figure drivers carry the packed-engine cross-check sections;
// pinning their stdout keeps both the paper numbers and the
// packed-vs-scalar "ok" lines from drifting.
TEST(ReproGoldenTest, Figure2Rank) {
  ExpectMatchesGolden("repro_figure2_rank");
}

TEST(ReproGoldenTest, Figure3CovSpr) {
  ExpectMatchesGolden("repro_figure3_cov_spr");
}

TEST(ReproGoldenTest, Figure4Hypervolume) {
  ExpectMatchesGolden("repro_figure4_hypervolume");
}

// The cross-family permutation-paradigm ranking (perturbative vs
// generalization releases on the same census sample). The driver avoids
// RNG-free-unstable paths (no Gaussian noise): every printed number is
// exact rank arithmetic, so the bytes are platform-stable.
TEST(ReproGoldenTest, Permutation) {
  ExpectMatchesGolden("repro_permutation");
}

// The drivers whose numbers come from per-class statistics of the
// original data: the §3 sensitive-count (ℓ-diversity) vector, the §5.5 LM
// utility vectors, the EXT-C query-error table, and EXT-A's distinct ℓ,
// equal-ground t-closeness and class-spread columns.
TEST(ReproGoldenTest, Section3Examples) {
  ExpectMatchesGolden("repro_section3_examples");
}

TEST(ReproGoldenTest, Section5Examples) {
  ExpectMatchesGolden("repro_section5_examples");
}

TEST(ReproGoldenTest, QueryError) { ExpectMatchesGolden("repro_query_error"); }

TEST(ReproGoldenTest, AlgorithmComparison) {
  ExpectMatchesGolden("repro_algorithm_comparison");
}

}  // namespace
}  // namespace mdc
