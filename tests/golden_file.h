// Byte goldens pinned under bench/goldens/ in the source tree. A test
// computes the bytes its fixed recipe produces today and compares them with
// the committed file; after an intentional format change the goldens are
// regenerated by rerunning the test with DMT_UPDATE_GOLDENS=1 set.
#ifndef DMT_TESTS_GOLDEN_FILE_H_
#define DMT_TESTS_GOLDEN_FILE_H_

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace dmt::testgolden {

// Reads bench/goldens/<file_name> into `golden`. Under DMT_UPDATE_GOLDENS
// the file is instead rewritten from `bytes` and the test is marked
// skipped; callers return when IsSkipped() or HasFailure().
inline void ReadOrUpdateGolden(const std::string& file_name,
                               const std::string& bytes,
                               std::string* golden) {
  const std::string path =
      std::string(DMT_SOURCE_DIR) + "/bench/goldens/" + file_name;
  if (std::getenv("DMT_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    EXPECT_TRUE(out) << "cannot write " << path;
    out << bytes;
    GTEST_SKIP() << "regenerated " << path;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "missing golden " << path
                  << " -- regenerate with DMT_UPDATE_GOLDENS=1 ./dmt_tests";
    return;
  }
  std::stringstream golden_stream;
  golden_stream << in.rdbuf();
  *golden = golden_stream.str();
}

}  // namespace dmt::testgolden

#endif  // DMT_TESTS_GOLDEN_FILE_H_
