// Golden-image oracle: pins FingerprintImage for every Clack top at -O0, -O1
// and -O2, built at one and at eight compile jobs. A refactor of the optimizer
// or the linker that claims "no behaviour change" must keep every image bit for
// bit; these values say so without trusting any other build in the same run.
#include <gtest/gtest.h>

#include "src/clack/corpus.h"
#include "src/driver/knitc.h"

namespace knit {
namespace {

struct GoldenImage {
  const char* top;
  uint64_t fingerprint[3];  // indexed by opt level
};

constexpr GoldenImage kGoldens[] = {
    {"ClackRouter", {0xd2cda9504272e7b9ull, 0x5df8b62d63b8c443ull, 0xaed62ea02a49d535ull}},
    {"ClackRouterFlat", {0xbb2971ed531a1d04ull, 0x0d2116414c8aebccull, 0xcaf82454fa5eaa37ull}},
    {"HandRouter", {0x655f5edac5eb309bull, 0x16edf4a361c48190ull, 0x0e3e7fa6505581caull}},
    {"HandRouterFlat", {0xbab06e426d13ecfcull, 0x259eab0df9c75bb4ull, 0x0c144182fa3dd4b1ull}},
    {"ClackAllocRouter", {0xbfb9164821258602ull, 0x5bb75fd822944a3eull, 0x02459ed83fb42295ull}},
};

uint64_t BuildFingerprint(const std::string& top, const KnitcOptions& options) {
  Diagnostics diags;
  Result<KnitBuildResult> built = KnitBuild(ClackKnit(), ClackSources(), top, options, diags);
  EXPECT_TRUE(built.ok()) << top << ": " << diags.ToString();
  return built.ok() ? FingerprintImage(built.value().image) : 0;
}

TEST(GoldenImage, ClackTopsAtEveryLevelAndJobCount) {
  for (const GoldenImage& golden : kGoldens) {
    for (int level = 0; level <= 2; ++level) {
      for (int jobs : {1, 8}) {
        KnitcOptions options;
        options.opt_level = level;
        options.jobs = jobs;
        EXPECT_EQ(BuildFingerprint(golden.top, options), golden.fingerprint[level])
            << golden.top << " -O" << level << " jobs=" << jobs;
      }
    }
  }
}

TEST(GoldenImage, AllSwappableClackRouterAtO1) {
  KnitcOptions options;
  options.swappable = {"*"};
  EXPECT_EQ(BuildFingerprint("ClackRouter", options), 0x1437380e52a6417full);
}

}  // namespace
}  // namespace knit
