// Init/fini scheduler tests at the semantic level (paper §3.2): usability closure,
// conservative defaults, cycle breaking via fine-grained clauses, and finalizer
// mirroring. Includes a property sweep over random layered configurations.
#include <gtest/gtest.h>

#include <random>

#include "src/knitlang/parser.h"
#include "src/knitsem/elaborate.h"
#include "src/knitsem/instantiate.h"
#include "src/sched/init_sched.h"

namespace knit {
namespace {

struct SchedBuild {
  std::unique_ptr<Elaboration> elaboration;
  Configuration config;
  Schedule schedule;
  std::string error;
  bool ok = false;
};

SchedBuild BuildSchedule(const std::string& text, const std::string& top) {
  SchedBuild out;
  Diagnostics diags;
  Result<KnitProgram> program = ParseKnit(text, "t.knit", diags);
  if (!program.ok()) {
    out.error = diags.ToString();
    return out;
  }
  Result<Elaboration> elaboration = Elaborate(program.value(), diags);
  if (!elaboration.ok()) {
    out.error = diags.ToString();
    return out;
  }
  out.elaboration = std::make_unique<Elaboration>(std::move(elaboration.value()));
  Result<Configuration> config = Instantiate(*out.elaboration, top, diags);
  if (!config.ok()) {
    out.error = diags.ToString();
    return out;
  }
  out.config = std::move(config.value());
  Result<Schedule> schedule = ScheduleInitFini(out.config, diags);
  if (!schedule.ok()) {
    out.error = diags.ToString();
    return out;
  }
  out.schedule = std::move(schedule.value());
  out.ok = true;
  return out;
}

int PositionOf(const std::vector<InitCall>& calls, const Configuration& config,
               const std::string& path, const std::string& function) {
  for (size_t i = 0; i < calls.size(); ++i) {
    if (config.instances[calls[i].instance].path == path && calls[i].function == function) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

constexpr const char* kPrelude = "bundletype T = { f }\nbundletype S = { s }\n";

TEST(Scheduler, InitializerLevelNeedsOrders) {
  SchedBuild built = BuildSchedule(std::string(kPrelude) + R"(
unit Base = { exports [o : T]; initializer base_init for o; files {"b.c"}; }
unit User = {
  imports [i : T];
  exports [o : T];
  initializer user_init for o;
  depends { user_init needs i; o needs i; };
  files {"u.c"};
}
unit Top = {
  imports [];
  exports [o : T];
  link { [b] <- Base <- []; [o] <- User <- [b]; };
}
)",
                                   "Top");
  ASSERT_TRUE(built.ok) << built.error;
  int base = PositionOf(built.schedule.initializers, built.config, "Top/Base", "base_init");
  int user = PositionOf(built.schedule.initializers, built.config, "Top/User", "user_init");
  ASSERT_GE(base, 0);
  ASSERT_GE(user, 0);
  EXPECT_LT(base, user);
  // Finalizers mirror: the user must finalize before its supplier tears down.
  int base_fin = -1;
  int user_fin = -1;
  (void)base_fin;
  (void)user_fin;
}

TEST(Scheduler, ExportLevelNeedsAloneDoesNotOrderInitializers) {
  // The paper's subtlety: "serveLog needs stdio ... does not constrain the order of
  // initialization between the logging component and the standard I/O component".
  SchedBuild built = BuildSchedule(std::string(kPrelude) + R"(
unit Base = { exports [o : T]; initializer base_init for o; files {"b.c"}; }
unit User = {
  imports [i : T];
  exports [o : T];
  initializer user_init for o;
  depends { o needs i; user_init needs (); };
  files {"u.c"};
}
unit Top = {
  imports [];
  exports [o : T];
  link { [b] <- Base <- []; [o] <- User <- [b]; };
}
)",
                                   "Top");
  ASSERT_TRUE(built.ok) << built.error;
  // Both orders are legal; all we require is that scheduling succeeded with both
  // initializers present.
  EXPECT_EQ(built.schedule.initializers.size(), 2u);
}

TEST(Scheduler, UsabilityClosureIsTransitive) {
  // C's initializer needs B's bundle; B's bundle (export-level) needs A's bundle;
  // so A's initializer must precede C's.
  SchedBuild built = BuildSchedule(std::string(kPrelude) + R"(
unit A = { exports [o : T]; initializer a_init for o; files {"a.c"}; }
unit B = {
  imports [i : T];
  exports [o : T];
  depends { o needs i; };
  files {"b.c"};
}
unit C = {
  imports [i : T];
  exports [o : T];
  initializer c_init for o;
  depends { c_init needs i; o needs i; };
  files {"c.c"};
}
unit Top = {
  imports [];
  exports [o : T];
  link { [a] <- A <- []; [b] <- B <- [a]; [o] <- C <- [b]; };
}
)",
                                   "Top");
  ASSERT_TRUE(built.ok) << built.error;
  int a = PositionOf(built.schedule.initializers, built.config, "Top/A", "a_init");
  int c = PositionOf(built.schedule.initializers, built.config, "Top/C", "c_init");
  ASSERT_GE(a, 0);
  ASSERT_GE(c, 0);
  EXPECT_LT(a, c);
}

TEST(Scheduler, DefaultNeedsAreConservative) {
  // No depends clauses at all: the initializer needs every import, creating a
  // genuine cycle in a cyclic configuration.
  SchedBuild built = BuildSchedule(std::string(kPrelude) + R"(
unit P = { imports [i : T]; exports [o : T]; initializer p_init for o; files {"p.c"}; }
unit Q = { imports [i : T]; exports [o : T]; initializer q_init for o; files {"q.c"}; }
unit Top = {
  imports [];
  exports [o : T];
  link { [p] <- P <- [q]; [q] <- Q <- [p]; [o] <- P as front <- [p]; };
}
)",
                                   "Top");
  EXPECT_FALSE(built.ok);
  EXPECT_NE(built.error.find("cycle"), std::string::npos) << built.error;
}

TEST(Scheduler, FineGrainedClausesBreakCycles) {
  SchedBuild built = BuildSchedule(std::string(kPrelude) + R"(
unit P = {
  imports [i : T];
  exports [o : T];
  initializer p_init for o;
  depends { o needs i; p_init needs (); };
  files {"p.c"};
}
unit Top = {
  imports [];
  exports [o : T];
  link { [p] <- P <- [q]; [q] <- P as q <- [p]; [o] <- P as front <- [p]; };
}
)",
                                   "Top");
  EXPECT_TRUE(built.ok) << built.error;
  EXPECT_EQ(built.schedule.initializers.size(), 3u);
}

TEST(Scheduler, FinalizersRunBeforeTheirSuppliersTearDown) {
  SchedBuild built = BuildSchedule(std::string(kPrelude) + R"(
unit Base = { exports [o : T]; finalizer base_fini for o; files {"b.c"}; }
unit User = {
  imports [i : T];
  exports [o : T];
  finalizer user_fini for o;
  depends { user_fini needs i; o needs i; };
  files {"u.c"};
}
unit Top = {
  imports [];
  exports [o : T];
  link { [b] <- Base <- []; [o] <- User <- [b]; };
}
)",
                                   "Top");
  ASSERT_TRUE(built.ok) << built.error;
  int base = PositionOf(built.schedule.finalizers, built.config, "Top/Base", "base_fini");
  int user = PositionOf(built.schedule.finalizers, built.config, "Top/User", "user_fini");
  ASSERT_GE(base, 0);
  ASSERT_GE(user, 0);
  EXPECT_LT(user, base) << "user_fini still needs Base; it must run first";
}

TEST(Scheduler, MultipleInitializersPerUnit) {
  SchedBuild built = BuildSchedule(std::string(kPrelude) + R"(
unit Multi = {
  exports [o : T, p : S];
  initializer o_init for o;
  initializer p_init for p;
  files {"m.c"};
}
)",
                                   "Multi");
  ASSERT_TRUE(built.ok) << built.error;
  EXPECT_EQ(built.schedule.initializers.size(), 2u);
}

// Property sweep: layered random configurations (each unit imports only from lower
// layers, initializer-level needs on a random subset) must always schedule, and
// every declared initializer-level need must be satisfied by order.
class RandomLayeredConfigTest : public testing::TestWithParam<int> {};

TEST_P(RandomLayeredConfigTest, ScheduleRespectsDeclaredNeeds) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  int layers = 3 + static_cast<int>(rng() % 3);
  int per_layer = 1 + static_cast<int>(rng() % 3);

  std::string text = "bundletype T = { f }\n";
  std::string link;
  std::vector<std::string> lower;  // local names of lower layers
  std::vector<std::pair<std::string, std::string>> needs;  // (needer path, needed local)
  int counter = 0;
  std::vector<std::string> current;
  for (int layer = 0; layer < layers; ++layer) {
    current.clear();
    for (int k = 0; k < per_layer; ++k) {
      std::string name = std::string("U").append(std::to_string(counter++));
      std::string local = "l" + name;
      // Pick 0-2 imports from lower layers.
      std::vector<std::string> imports;
      if (!lower.empty()) {
        int import_count = static_cast<int>(rng() % 3);
        for (int m = 0; m < import_count; ++m) {
          imports.push_back(lower[rng() % lower.size()]);
        }
      }
      text += "unit " + name + " = { imports [";
      for (size_t m = 0; m < imports.size(); ++m) {
        text.append(m > 0 ? ", i" : "i").append(std::to_string(m)).append(" : T");
      }
      text += "]; exports [o : T]; initializer init_" + name + " for o;\n  depends { ";
      // Initializer needs a random subset of imports.
      std::string init_needs = "(";
      bool first = true;
      for (size_t m = 0; m < imports.size(); ++m) {
        if (rng() % 2 == 0) {
          init_needs.append(first ? "i" : " + i").append(std::to_string(m));
          first = false;
          needs.emplace_back(name, imports[m]);
        }
      }
      init_needs += ")";
      text += "init_" + name + " needs " + init_needs + "; ";
      if (!imports.empty()) {
        text += "o needs (";
        for (size_t m = 0; m < imports.size(); ++m) {
          text.append(m > 0 ? " + i" : "i").append(std::to_string(m));
        }
        text += "); ";
      }
      text += "};\n  files {\"u.c\"}; }\n";
      link += "    [" + local + "] <- " + name + " <- [";
      for (size_t m = 0; m < imports.size(); ++m) {
        link += (m > 0 ? ", " : "") + imports[m];
      }
      link += "];\n";
      current.push_back(local);
    }
    lower.insert(lower.end(), current.begin(), current.end());
  }
  text += "unit Top = {\n  imports [];\n  exports [o : T];\n  link {\n" + link;
  text += "    [o] <- U0 as topfront <- [";
  // U0 has no imports (layer 0)
  text += "];\n  };\n}\n";

  SchedBuild built = BuildSchedule(text, "Top");
  ASSERT_TRUE(built.ok) << built.error << "\n" << text;

  // Verify by instance path: the local "lU<k>" is supplied by instance "Top/U<k>"
  // (link lines without `as` use the unit name; only the extra front instance is
  // named "topfront").
  for (const auto& [needer, needed_local] : needs) {
    std::string needed_unit = needed_local.substr(1);  // "lU3" -> "U3"
    int needer_at = PositionOf(built.schedule.initializers, built.config, "Top/" + needer,
                               "init_" + needer);
    int needed_at = PositionOf(built.schedule.initializers, built.config,
                               "Top/" + needed_unit, "init_" + needed_unit);
    ASSERT_GE(needer_at, 0);
    ASSERT_GE(needed_at, 0);
    EXPECT_LT(needed_at, needer_at)
        << needer << " initializer ran before its requirement " << needed_unit;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLayeredConfigTest, testing::Range(1, 21));

TEST(Scheduler, CycleDiagnosticNamesInstancePathAndInitializer) {
  // The user-facing requirement: an unschedulable configuration must be reported in
  // terms of Knit components — instance path plus initializer function — not just
  // "cycle detected".
  SchedBuild built = BuildSchedule(std::string(kPrelude) + R"(
unit P = { imports [i : T]; exports [o : T]; initializer p_init for o; files {"p.c"}; }
unit Q = { imports [i : T]; exports [o : T]; initializer q_init for o; files {"q.c"}; }
unit Top = {
  imports [];
  exports [o : T];
  link { [p] <- P <- [q]; [q] <- Q <- [p]; [o] <- P as front <- [p]; };
}
)",
                                   "Top");
  ASSERT_FALSE(built.ok);
  EXPECT_NE(built.error.find("cycle"), std::string::npos) << built.error;
  // Must name at least one offending initializer and its instance path.
  bool names_initializer = built.error.find("p_init") != std::string::npos ||
                           built.error.find("q_init") != std::string::npos;
  EXPECT_TRUE(names_initializer) << built.error;
  bool names_instance = built.error.find("Top/P") != std::string::npos ||
                        built.error.find("Top/Q") != std::string::npos;
  EXPECT_TRUE(names_instance) << built.error;
  // And suggest the fix the paper prescribes: fine-grained needs clauses.
  EXPECT_NE(built.error.find("needs"), std::string::npos) << built.error;
}

TEST(Scheduler, InitializerCountsFollowInstanceOrder) {
  SchedBuild built = BuildSchedule(std::string(kPrelude) + R"(
unit Plain = { exports [o : T]; files {"n.c"}; }
unit One = { exports [o : T]; initializer one_init for o; files {"o.c"}; }
unit Top = {
  imports [];
  exports [o : T];
  link { [n] <- Plain <- []; [o] <- One <- []; };
}
)",
                                   "Top");
  ASSERT_TRUE(built.ok) << built.error;
  std::vector<int> counts = InitializerCounts(built.config);
  ASSERT_EQ(counts.size(), built.config.instances.size());
  int total = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    total += counts[i];
    const std::string& path = built.config.instances[i].path;
    if (path == "Top/Plain") {
      EXPECT_EQ(counts[i], 0);
    } else if (path == "Top/One") {
      EXPECT_EQ(counts[i], 1);
    }
  }
  EXPECT_EQ(total, static_cast<int>(built.schedule.initializers.size()));
}

}  // namespace
}  // namespace knit
