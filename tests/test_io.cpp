#include "src/sched/io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "src/sched/classics.h"
#include "src/sched/taillard.h"

namespace psga::sched {
namespace {

TEST(JobShopIo, RoundTripFt06) {
  const JobShopInstance& original = ft06().instance;
  const JobShopInstance parsed = parse_job_shop(format_job_shop(original));
  ASSERT_EQ(parsed.jobs, original.jobs);
  ASSERT_EQ(parsed.machines, original.machines);
  for (int j = 0; j < original.jobs; ++j) {
    for (int k = 0; k < original.ops_of(j); ++k) {
      EXPECT_EQ(parsed.op(j, k).machine, original.op(j, k).machine);
      EXPECT_EQ(parsed.op(j, k).duration, original.op(j, k).duration);
    }
  }
}

TEST(JobShopIo, ParsesStandardFormatWithComments) {
  const std::string text =
      "# Fisher-Thompson toy\n"
      "2 2\n"
      "0 3 1 2\n"
      "1 4 0 1\n";
  const JobShopInstance inst = parse_job_shop(text);
  EXPECT_EQ(inst.jobs, 2);
  EXPECT_EQ(inst.machines, 2);
  EXPECT_EQ(inst.op(0, 0).machine, 0);
  EXPECT_EQ(inst.op(0, 0).duration, 3);
  EXPECT_EQ(inst.op(1, 1).machine, 0);
  EXPECT_EQ(inst.op(1, 1).duration, 1);
}

TEST(JobShopIo, RejectsMalformedInput) {
  EXPECT_THROW(parse_job_shop(""), std::invalid_argument);
  EXPECT_THROW(parse_job_shop("2 2\n0 3 1"), std::invalid_argument);
  EXPECT_THROW(parse_job_shop("2 2\n0 3 9 2\n1 4 0 1"),
               std::invalid_argument);  // machine id 9 out of range
  EXPECT_THROW(parse_job_shop("0 5"), std::invalid_argument);
  EXPECT_THROW(parse_job_shop("1 1\n0 -4"), std::invalid_argument);
  // Values outside int's range are errors, not wrapped to 1.
  EXPECT_THROW(parse_job_shop("4294967297 1\n0 3"), std::invalid_argument);
  EXPECT_THROW(parse_job_shop("1 4294967297\n0 3"), std::invalid_argument);
  EXPECT_THROW(parse_job_shop("1 2\n4294967297 3 0 2"),
               std::invalid_argument);
}

TEST(FlowShopIo, RoundTripTaillard) {
  const FlowShopInstance original = taillard_flow_shop(20, 5, 873654221);
  const FlowShopInstance parsed = parse_flow_shop(format_flow_shop(original));
  EXPECT_EQ(parsed.jobs, original.jobs);
  EXPECT_EQ(parsed.machines, original.machines);
  EXPECT_EQ(parsed.proc, original.proc);
}

TEST(FlowShopIo, ParsesTaillardFormat) {
  const std::string text =
      "# toy flow shop\n"
      "3 2\n"
      "5 1 3\n"
      "2 4 6\n";
  const FlowShopInstance inst = parse_flow_shop(text);
  EXPECT_EQ(inst.jobs, 3);
  EXPECT_EQ(inst.machines, 2);
  EXPECT_EQ(inst.processing(0, 1), 1);
  EXPECT_EQ(inst.processing(1, 2), 6);
}

TEST(FlowShopIo, RejectsMalformedInput) {
  EXPECT_THROW(parse_flow_shop("3 2\n5 1 3\n2 4"), std::invalid_argument);
  EXPECT_THROW(parse_flow_shop("-1 2"), std::invalid_argument);
  EXPECT_THROW(parse_flow_shop("4294967297 1\n5"), std::invalid_argument);
  EXPECT_THROW(parse_flow_shop("1 4294967297\n5"), std::invalid_argument);
}

TEST(FileIo, SaveAndLoadJobShop) {
  const std::string path = "/tmp/psga_test_ft06.jsp";
  save_job_shop(ft06().instance, path);
  const JobShopInstance loaded = load_job_shop(path);
  EXPECT_EQ(loaded.jobs, 6);
  EXPECT_EQ(loaded.machines, 6);
  EXPECT_EQ(loaded.op(5, 5).duration, ft06().instance.op(5, 5).duration);
  std::remove(path.c_str());
}

TEST(FileIo, SaveAndLoadFlowShop) {
  const std::string path = "/tmp/psga_test_ta.fsp";
  const FlowShopInstance original = taillard_flow_shop(10, 5, 12345);
  save_flow_shop(original, path);
  EXPECT_EQ(load_flow_shop(path).proc, original.proc);
  std::remove(path.c_str());
}

TEST(FileIo, MissingFileThrows) {
  EXPECT_THROW(load_job_shop("/nonexistent/x.jsp"), std::runtime_error);
  EXPECT_THROW(load_flow_shop("/nonexistent/x.fsp"), std::runtime_error);
}

}  // namespace
}  // namespace psga::sched
