// The determinism contract of the full reproduction run: fanning the 20
// experiments across 4 threads must not change a byte of either artifact,
// and the run must reproduce the paper (every claim passes). The artifacts
// are the ones the suite's reproduction fixture writes -- ffc_repro at
// --jobs 1 and --jobs 4 into FFC_REPRO_ARTIFACTS/jobs{1,4} (root
// CMakeLists.txt) -- so the suite runs each reproduction once.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace {

std::string read_artifact(const std::string& run, const std::string& name) {
  const std::string path =
      std::string(FFC_REPRO_ARTIFACTS) + "/" + run + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(Reproduction, ClaimsJsonIsByteIdenticalAcrossJobs) {
  const std::string json1 = read_artifact("jobs1", "claims.json");
  ASSERT_FALSE(json1.empty());
  EXPECT_EQ(json1, read_artifact("jobs4", "claims.json"));
  EXPECT_EQ(read_artifact("jobs1", "REPRODUCTION.md"),
            read_artifact("jobs4", "REPRODUCTION.md"));

  // And the run itself reproduces the paper: claims.json's summary object.
  const std::size_t begin = json1.find("\"summary\": {");
  ASSERT_NE(begin, std::string::npos);
  const std::string summary =
      json1.substr(begin, json1.find('}', begin) - begin);
  EXPECT_NE(summary.find("\"all_passed\": true"), std::string::npos)
      << summary;
  EXPECT_NE(summary.find("\"experiments\": 20,"), std::string::npos)
      << summary;
}

}  // namespace
