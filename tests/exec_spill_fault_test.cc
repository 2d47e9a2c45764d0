// Partition spill under injected faults: `spill.write` and `spill.read`
// fire once per partition, a failed spill leaves no file and keeps the
// frame in memory so it can be retried, and the fault names its site.
// A fault in the middle of the file write is the LFC writer's to clean
// up (LfcTest.InjectedWriteFaultLeavesNoPartialFile).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/fault.h"
#include "dataframe/ops.h"
#include "exec/partition.h"

namespace lafp::exec {
namespace {

namespace fs = std::filesystem;
using df::Column;
using df::DataFrame;

class SpillFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "spill_fault_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::Global()->Clear();
    fs::remove_all(dir_);
  }

  DataFrame SampleFrame() {
    auto ints = *Column::MakeInt({1, 2, 3, 4}, {1, 0, 1, 1}, &tracker_);
    auto strs = *Column::MakeString({"aa", "", "cc", "dddd"}, {}, &tracker_);
    auto dbls = *Column::MakeDouble({0.5, -1.25, 3.5, 8.0}, {}, &tracker_);
    return *DataFrame::Make({"i", "s", "d"}, {ints, strs, dbls});
  }

  std::string dir_;
  MemoryTracker tracker_{0};
};

// One hit per partition, however many columns it has.
TEST_F(SpillFaultTest, SitesFireOncePerPartition) {
  FaultScope scope("spill.write:nth=2;spill.read:nth=2");
  Partition part(SampleFrame());
  ASSERT_TRUE(part.SpillTo(dir_, "p0").ok());
  ASSERT_TRUE(part.Load(&tracker_).ok());
  EXPECT_EQ(FaultInjector::Global()->hits("spill.write"), 1);
  EXPECT_EQ(FaultInjector::Global()->hits("spill.read"), 1);
}

TEST_F(SpillFaultTest, InjectedReadFaultSurfacesCleanly) {
  Partition part(SampleFrame());
  ASSERT_TRUE(part.SpillTo(dir_, "read").ok());
  FaultScope scope("spill.read:nth=1");
  EXPECT_TRUE(part.Load(&tracker_).status().IsIOError());
  // Single-shot: the retry succeeds.
  EXPECT_TRUE(part.Load(&tracker_).ok());
}

TEST_F(SpillFaultTest, PartitionSpillIsRetrySafeAfterFault) {
  auto part = std::make_shared<Partition>(SampleFrame());
  {
    FaultScope scope("spill.write:nth=1");
    EXPECT_FALSE(part->SpillTo(dir_, "p0").ok());
  }
  // The partition kept its in-memory frame and left no file behind; a
  // later spill works and the frame still loads from disk.
  EXPECT_FALSE(part->spilled());
  EXPECT_TRUE(fs::is_empty(dir_));
  ASSERT_TRUE(part->SpillTo(dir_, "p0").ok());
  EXPECT_TRUE(part->spilled());
  auto frame = part->Load(&tracker_);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->num_rows(), 4u);
}

TEST_F(SpillFaultTest, InjectedWriteErrorMentionsSite) {
  Partition part(SampleFrame());
  FaultScope scope("spill.write:nth=1");
  Status st = part.SpillTo(dir_, "named");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("spill.write"), std::string::npos)
      << st.ToString();
}

}  // namespace
}  // namespace lafp::exec
