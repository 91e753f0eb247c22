// Tests for the offline workload analyzer.
#include <gtest/gtest.h>

#include "wl/analyze.hpp"
#include "wl/workloads.hpp"

namespace dpar::wl {
namespace {

TEST(Analyze, IorIsFullySequential) {
  IorConfig c;
  c.file_size = 64 << 20;
  auto prog = make_ior(c);
  const AccessPattern p = analyze(*prog, 2, 8);
  EXPECT_DOUBLE_EQ(p.sequentiality(), 1.0);
  EXPECT_EQ(p.read_bytes, (64u << 20) / 8);
  EXPECT_EQ(p.write_bytes, 0u);
  EXPECT_EQ(p.min_segment, 32u * 1024);
  EXPECT_EQ(p.max_segment, 32u * 1024);
}

TEST(Analyze, DemoIsStridedNotSequential) {
  DemoConfig c;
  c.file_size = 16 << 20;
  c.segment_size = 4096;
  auto prog = make_demo(c);
  const AccessPattern p = analyze(*prog, 1, 8);
  EXPECT_DOUBLE_EQ(p.sequentiality(), 0.0);
  // Stride between a rank's consecutive segments: nprocs * segment size,
  // minus the segment already consumed by last_end.
  EXPECT_EQ(p.dominant_stride, 7u * 4096);
  EXPECT_EQ(p.read_bytes, (16u << 20) / 8);
}

TEST(Analyze, BtioMixesBarriersAndWrites) {
  BtioConfig c;
  c.total_bytes = 4 << 20;
  c.write_steps = 4;
  c.read_back = true;
  auto prog = make_btio(c);
  const AccessPattern p = analyze(*prog, 0, 16);
  EXPECT_GT(p.write_bytes, 0u);
  EXPECT_EQ(p.write_bytes, p.read_bytes);  // read-back re-reads everything
  EXPECT_GT(p.barriers, 0u);
  EXPECT_EQ(p.min_segment, 10240u / 16);
}

TEST(Analyze, EmptyProgramIsAllZeros) {
  DemoConfig c;
  c.file_size = 0;
  auto prog = make_demo(c);
  const AccessPattern p = analyze(*prog, 0, 4);
  EXPECT_EQ(p.calls, 0u);
  EXPECT_EQ(p.segments, 0u);
  EXPECT_EQ(p.min_segment, 0u);
  EXPECT_DOUBLE_EQ(p.mean_segment(), 0.0);
  EXPECT_DOUBLE_EQ(p.sequentiality(), 0.0);
}

TEST(Analyze, DescribeMentionsTheNumbers) {
  DemoConfig c;
  c.file_size = 1 << 20;
  c.segment_size = 4096;
  auto prog = make_demo(c);
  const std::string text = describe(analyze(*prog, 0, 8));
  EXPECT_NE(text.find("segments"), std::string::npos);
  EXPECT_NE(text.find("sequentiality"), std::string::npos);
}

}  // namespace
}  // namespace dpar::wl
