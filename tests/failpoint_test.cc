// Fault injection coverage: every site registered in failpoint.cc has a
// driver here that arms it, runs the library path through it, and proves
// the injected fault surfaces as a clean non-OK Status (no crash, no
// silent success). A guard test fails if a new site is added without a
// driver.

#include "common/failpoint.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "anonymize/clustering.h"
#include "anonymize/datafly.h"
#include "anonymize/incognito.h"
#include "anonymize/mondrian.h"
#include "anonymize/optimal_lattice.h"
#include "anonymize/pareto_lattice.h"
#include "anonymize/samarati.h"
#include "anonymize/stochastic.h"
#include "anonymize/top_down.h"
#include "common/csv.h"
#include "common/durable_io.h"
#include "core/property_matrix.h"
#include "core/report.h"
#include "hierarchy/spec_parser.h"
#include "paper/paper_data.h"
#include "service/service_core.h"
#include "service/transport.h"
#include "table/dataset.h"

namespace mdc {
namespace {

// Fixtures are memoized: building them runs through CSV parsing and row
// appends, which are themselves failpoint sites. Construction must happen
// once, before any site is armed, or the fixture build trips the very
// fault the driver under test is supposed to hit.
const std::shared_ptr<const Dataset>& Data() {
  static const std::shared_ptr<const Dataset> data = [] {
    auto table = paper::Table1();
    MDC_CHECK(table.ok());
    return *table;
  }();
  return data;
}

const HierarchySet& Hierarchies() {
  static const HierarchySet set = [] {
    auto built = paper::HierarchySetA();
    MDC_CHECK(built.ok());
    return std::move(built).value();
  }();
  return set;
}

// One driver per registered site: runs the library path containing the
// site and returns its Status. With the site armed, the returned Status
// must be the injected one.
std::map<std::string, std::function<Status()>> Drivers() {
  Data();          // Force fixture construction while nothing is armed.
  Hierarchies();
  std::map<std::string, std::function<Status()>> drivers;
  drivers["csv.parse"] = [] { return ParseCsv("a,b\n1,2\n").status(); };
  drivers["csv.read_file"] = [] {
    return ReadFileToString("/nonexistent").status();
  };
  drivers["csv.write_file"] = [] {
    return WriteStringToFile("/tmp/mdc_failpoint_test.csv", "a\n");
  };
  drivers["csv.read_short"] = [] {
    // The site is on the successful-read path, so the file must exist.
    MDC_CHECK(WriteStringToFile("/tmp/mdc_failpoint_read.csv", "a\n").ok());
    return ReadFileToString("/tmp/mdc_failpoint_read.csv").status();
  };
  drivers["io.tmp_write"] = [] {
    return DurableWriteFile("/tmp/mdc_failpoint_durable.txt", "x\n");
  };
  drivers["io.fsync"] = [] {
    return DurableWriteFile("/tmp/mdc_failpoint_durable.txt", "x\n");
  };
  drivers["io.rename"] = [] {
    return DurableWriteFile("/tmp/mdc_failpoint_durable.txt", "x\n");
  };
  drivers["io.probe_dir"] = [] {
    return EnsureWritableDir("/tmp/mdc_failpoint_dir");
  };
  drivers["spec.parse"] = [] {
    return ParseHierarchySpec(Data()->schema(), "").status();
  };
  drivers["dataset.from_csv"] = [] {
    return Dataset::FromCsv(Data()->schema(), Data()->ToCsv()).status();
  };
  drivers["dataset.append_row"] = [] {
    Dataset copy(Data()->schema());
    return copy.AppendRow(Data()->row(0));
  };
  drivers["full_domain.evaluate"] = [] {
    return EvaluateNode(Data(), Hierarchies(), {0, 0, 0}, 2, {}, "test")
        .status();
  };
  drivers["datafly.step"] = [] {
    return DataflyAnonymize(Data(), Hierarchies(), DataflyConfig{3, {}})
        .status();
  };
  drivers["samarati.evaluate"] = [] {
    return SamaratiAnonymize(Data(), Hierarchies(), SamaratiConfig{3, {}})
        .status();
  };
  drivers["incognito.node"] = [] {
    IncognitoConfig config;
    config.k = 3;
    return IncognitoAnonymize(Data(), Hierarchies(), config).status();
  };
  drivers["optimal.node"] = [] {
    OptimalSearchConfig config;
    config.k = 3;
    return OptimalLatticeSearch(Data(), Hierarchies(), config).status();
  };
  drivers["pareto.node"] = [] {
    return ParetoLatticeSearch(Data(), Hierarchies()).status();
  };
  drivers["mondrian.split"] = [] {
    return MondrianAnonymize(Data(), MondrianConfig{2}).status();
  };
  drivers["stochastic.evaluate"] = [] {
    StochasticConfig config;
    config.k = 3;
    config.restarts = 2;
    config.seed = 7;
    return StochasticAnonymize(Data(), Hierarchies(), config).status();
  };
  drivers["clustering.cluster"] = [] {
    return KMemberClusterAnonymize(Data(), ClusteringConfig{2}).status();
  };
  drivers["top_down.step"] = [] {
    return TopDownSpecialize(Data(), Hierarchies(), GreedyWalkConfig{3, {}})
        .status();
  };
  drivers["bottom_up.step"] = [] {
    return BottomUpGeneralize(Data(), Hierarchies(), GreedyWalkConfig{3, {}})
        .status();
  };
  drivers["report.compare"] = [] {
    auto mondrian = MondrianAnonymize(Data(), MondrianConfig{2});
    MDC_CHECK(mondrian.ok());
    auto datafly = DataflyAnonymize(Data(), Hierarchies(),
                                    DataflyConfig{2, {}});
    MDC_CHECK(datafly.ok());
    return CompareAnonymizations(datafly->evaluation.anonymization,
                                 datafly->evaluation.partition,
                                 mondrian->anonymization,
                                 mondrian->partition)
        .status();
  };
  drivers["cmp.read"] = [] {
    return PropertyMatrix::FromCsv("p0,1,2\np1,3,4\n").status();
  };
  drivers["svc.execute"] = [] {
    // The site fires once per service job attempt; run one job through a
    // fresh ServiceCore and surface its outcome as the driver Status.
    static int invocation = 0;
    service::ServiceConfig config;
    config.state_dir = "/tmp/mdc_failpoint_svc_" +
                       std::to_string(::getpid()) + "_" +
                       std::to_string(invocation++);
    config.max_retries = 0;  // One attempt: the outcome is the injection.
    config.backoff_base_ms = 0;
    auto core = service::ServiceCore::Start(
        config, [](const service::ServiceCore::ExecRequest&) {
          service::ServiceCore::ExecResult result;
          result.artifact = "probe artifact\n";
          return result;
        });
    MDC_CHECK(core.ok());
    service::JobSpec spec;
    spec.id = "probe";
    auto decision = (*core)->Submit(spec);
    MDC_CHECK(decision.ok());
    (*core)->WaitIdle();
    std::vector<service::JobOutcome> outcomes = (*core)->Outcomes();
    MDC_CHECK(outcomes.size() == 1);
    if (outcomes[0].state == service::JobState::kOk) return Status::Ok();
    return Status::Internal(outcomes[0].message);
  };
  // The net.* sites live in the socket front-end's guarded syscall
  // wrappers (service/transport.h); a socketpair stands in for a real
  // connection so each driver runs the genuine syscall path.
  drivers["net.accept"] = [] {
    int fds[2];
    MDC_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    auto accepted = service::GuardedAccept(fds[0]);
    ::close(fds[0]);
    ::close(fds[1]);
    if (accepted.ok() && *accepted >= 0) ::close(*accepted);
    return accepted.status();
  };
  drivers["net.read"] = [] {
    int fds[2];
    MDC_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    MDC_CHECK(::send(fds[1], "x", 1, 0) == 1);
    char buffer[8];
    auto n = service::GuardedRecv(fds[0], buffer, sizeof(buffer));
    ::close(fds[0]);
    ::close(fds[1]);
    return n.status();
  };
  drivers["net.write"] = [] {
    int fds[2];
    MDC_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    auto n = service::GuardedSend(fds[0], "x", 1);
    ::close(fds[0]);
    ::close(fds[1]);
    return n.status();
  };
  drivers["net.close"] = [] {
    int fds[2];
    MDC_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0);
    // GuardedClose closes the fd even when the site injects (leaking a
    // descriptor is never acceptable); only fds[1] still needs cleanup.
    Status status = service::GuardedClose(fds[0]);
    ::close(fds[1]);
    return status;
  };
  return drivers;
}

TEST(FailpointTest, RegistryListsSitesAndRejectsUnknownNames) {
  EXPECT_FALSE(failpoint::AllSites().empty());
  EXPECT_FALSE(failpoint::Arm("no.such.site", Status::Internal("x")));
  failpoint::ScopedFailpoint bogus("no.such.site", Status::Internal("x"));
  EXPECT_FALSE(bogus.armed());
}

TEST(FailpointTest, EveryRegisteredSiteHasADriver) {
  auto drivers = Drivers();
  for (const std::string& site : failpoint::AllSites()) {
    EXPECT_TRUE(drivers.count(site))
        << "site '" << site << "' has no driver in failpoint_test.cc";
  }
}

TEST(FailpointTest, EverySiteInjectsACleanError) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "library built with MDC_FAILPOINTS=OFF";
  }
  auto drivers = Drivers();
  for (const std::string& site : failpoint::AllSites()) {
    ASSERT_TRUE(drivers.count(site)) << site;
    // Baseline: the driver's path succeeds (or at least does not hit this
    // injection) when the site is disarmed.
    failpoint::DisarmAll();

    failpoint::ScopedFailpoint fp(
        site, Status::Internal("injected fault at " + site));
    ASSERT_TRUE(fp.armed()) << site;
    Status status = drivers[site]();
    EXPECT_FALSE(status.ok()) << "site '" << site << "' did not fire";
    EXPECT_EQ(status.code(), StatusCode::kInternal) << site << ": " << status.ToString();
    EXPECT_NE(status.message().find("injected fault at " + site),
              std::string::npos)
        << site << " surfaced a different error: " << status.ToString();
    EXPECT_GE(failpoint::HitCount(site), 1) << site;
  }
}

TEST(FailpointTest, FromCsvFiresItsSitesInOrder) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "library built with MDC_FAILPOINTS=OFF";
  }
  const std::string csv = Data()->ToCsv();
  {
    failpoint::ScopedFailpoint from_csv("dataset.from_csv",
                                        Status::Internal("from_csv"));
    failpoint::ScopedFailpoint parse("csv.parse", Status::Internal("parse"));
    EXPECT_EQ(Dataset::FromCsv(Data()->schema(), csv).status().message(),
              "from_csv");
    EXPECT_EQ(failpoint::HitCount("csv.parse"), 0);
  }
  {
    failpoint::ScopedFailpoint parse("csv.parse", Status::Internal("parse"));
    EXPECT_EQ(Dataset::FromCsv(Data()->schema(), csv).status().message(),
              "parse");
    EXPECT_EQ(failpoint::HitCount("csv.parse"), 1);
  }
  // Rows go straight into the columns, not through AppendRow.
  failpoint::ScopedFailpoint append("dataset.append_row",
                                    Status::Internal("append"));
  EXPECT_TRUE(Dataset::FromCsv(Data()->schema(), csv).ok());
}

TEST(FailpointTest, SkipAndCountArmNthPass) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "library built with MDC_FAILPOINTS=OFF";
  }
  // skip=2 count=1: passes 1-2 succeed, pass 3 fails, pass 4 succeeds.
  failpoint::ScopedFailpoint fp("csv.parse", Status::Internal("nth"),
                                /*skip=*/2, /*count=*/1);
  ASSERT_TRUE(fp.armed());
  EXPECT_TRUE(ParseCsv("a\n").ok());
  EXPECT_TRUE(ParseCsv("a\n").ok());
  EXPECT_FALSE(ParseCsv("a\n").ok());
  EXPECT_TRUE(ParseCsv("a\n").ok());
  EXPECT_EQ(failpoint::HitCount("csv.parse"), 1);
}

TEST(FailpointTest, PeriodArmsEveryNthPass) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "library built with MDC_FAILPOINTS=OFF";
  }
  // period=3: post-skip passes 3, 6, 9, ... fire; everything else passes.
  failpoint::ScopedFailpoint fp("csv.parse", Status::Internal("periodic"),
                                /*skip=*/0, /*count=*/-1, /*period=*/3);
  ASSERT_TRUE(fp.armed());
  for (int pass = 1; pass <= 9; ++pass) {
    bool should_fire = pass % 3 == 0;
    EXPECT_EQ(ParseCsv("a\n").ok(), !should_fire) << "pass " << pass;
  }
  EXPECT_EQ(failpoint::HitCount("csv.parse"), 3);
}

TEST(FailpointTest, PeriodComposesWithSkipAndCount) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "library built with MDC_FAILPOINTS=OFF";
  }
  // skip=2, period=2, count=2: passes 1-2 skipped, then post-skip passes
  // 2 and 4 fire (the count exhausts), everything after succeeds.
  failpoint::ScopedFailpoint fp("csv.parse", Status::Internal("composed"),
                                /*skip=*/2, /*count=*/2, /*period=*/2);
  ASSERT_TRUE(fp.armed());
  std::vector<bool> expected_ok = {true, true, true, false, true, false,
                                   true, true};
  for (size_t pass = 0; pass < expected_ok.size(); ++pass) {
    EXPECT_EQ(ParseCsv("a\n").ok(), expected_ok[pass]) << "pass " << pass;
  }
  EXPECT_EQ(failpoint::HitCount("csv.parse"), 2);
}

TEST(FailpointTest, ArmFromEnvSpecArmsEveryClause) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "library built with MDC_FAILPOINTS=OFF";
  }
  failpoint::DisarmAll();
  ASSERT_TRUE(failpoint::ArmFromEnvSpec(
                  "csv.parse=internal:skip=1:count=1; csv.write_file=notfound")
                  .ok());
  EXPECT_TRUE(ParseCsv("a\n").ok());  // skip=1
  Status injected = ParseCsv("a\n").status();
  EXPECT_EQ(injected.code(), StatusCode::kInternal);
  EXPECT_TRUE(ParseCsv("a\n").ok());  // count exhausted
  Status write = WriteStringToFile("/tmp/mdc_failpoint_env.csv", "a\n");
  EXPECT_EQ(write.code(), StatusCode::kNotFound);
  failpoint::DisarmAll();
}

TEST(FailpointTest, ArmFromEnvSpecAcceptsKillAction) {
  if (!failpoint::Enabled()) {
    GTEST_SKIP() << "library built with MDC_FAILPOINTS=OFF";
  }
  failpoint::DisarmAll();
  // Arm-only: triggering a kill site would SIGKILL this test process (the
  // torture harness exercises the firing path in a child).
  EXPECT_TRUE(
      failpoint::ArmFromEnvSpec("io.rename=kill:skip=1000000").ok());
  failpoint::DisarmAll();
}

TEST(FailpointTest, ArmFromEnvSpecRejectsMalformedSpecsAtomically) {
  failpoint::DisarmAll();
  EXPECT_EQ(failpoint::ArmFromEnvSpec("nonsense").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::ArmFromEnvSpec("no.such.site=internal").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::ArmFromEnvSpec("csv.parse=explode").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::ArmFromEnvSpec("csv.parse=internal:bogus=1").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::ArmFromEnvSpec("csv.parse=internal:skip=x").code(),
            StatusCode::kInvalidArgument);
  // Validation is all-or-nothing: the valid first clause of a spec with an
  // invalid second clause must not have been armed.
  EXPECT_EQ(
      failpoint::ArmFromEnvSpec("csv.parse=internal;no.such.site=kill").code(),
      StatusCode::kInvalidArgument);
  EXPECT_TRUE(ParseCsv("a\n").ok());
}

TEST(FailpointTest, ArmFromEnvSpecRejectsNegativeModifiers) {
  failpoint::DisarmAll();
  // -1 is the "unlimited" sentinel for count only. A negative skip or
  // period used to pass spec validation and then abort inside Arm() — the
  // regression this pins is that both are rejected as clean parse errors.
  EXPECT_EQ(failpoint::ArmFromEnvSpec("csv.parse=internal:skip=-1").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::ArmFromEnvSpec("csv.parse=internal:period=-1").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::ArmFromEnvSpec("csv.parse=kill:skip=-2").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(failpoint::ArmFromEnvSpec("csv.parse=internal:period=-5").code(),
            StatusCode::kInvalidArgument);
  // The unlimited-count sentinel stays valid.
  if (failpoint::Enabled()) {
    EXPECT_TRUE(
        failpoint::ArmFromEnvSpec("csv.parse=internal:count=-1:skip=1000000")
            .ok());
  }
  failpoint::DisarmAll();
}

TEST(FailpointTest, ArmFromEnvSpecTreatsEmptySpecsAsNoOps) {
  failpoint::DisarmAll();
  // The CLI passes MDC_FAILPOINTS through verbatim; an unset or empty
  // variable (and stray clause separators) must arm nothing and succeed.
  EXPECT_TRUE(failpoint::ArmFromEnvSpec("").ok());
  EXPECT_TRUE(failpoint::ArmFromEnvSpec(";").ok());
  EXPECT_TRUE(failpoint::ArmFromEnvSpec(";;").ok());
  EXPECT_TRUE(ParseCsv("a\n").ok());
  failpoint::DisarmAll();
}

TEST(FailpointTest, DisarmedSitesDoNotFire) {
  failpoint::DisarmAll();
  EXPECT_TRUE(ParseCsv("a,b\n").ok());
  EXPECT_TRUE(failpoint::Trigger("csv.parse").ok());
}

}  // namespace
}  // namespace mdc
