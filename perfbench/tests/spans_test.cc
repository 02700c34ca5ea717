#include "driver/spans.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace perfbench {
namespace {

SpanRecord Span(const char* name, int64_t start, int64_t end, int parent) {
  return SpanRecord{name, start, end, parent, 1};
}

TEST(SpansTest, LayerIsTheNamePrefix) {
  EXPECT_EQ(LayerOf("chase.run"), "chase");
  EXPECT_EQ(LayerOf("snapshot.apply_vocabulary"), "snapshot");
  EXPECT_EQ(LayerOf("bench"), "bench");
}

TEST(SpansTest, SelfTimeSubtractsDirectChildrenOnly) {
  // job [0,100) > checkpoint [10,60) > make [10,30), encode [35,50)
  //            > run [70,90)
  const std::vector<SpanRecord> spans = {
      Span("bench.job", 0, 100, -1),
      Span("snapshot.checkpoint", 10, 60, 0),
      Span("snapshot.make", 10, 30, 1),
      Span("snapshot.encode", 35, 50, 1),
      Span("chase.run", 70, 90, 0),
  };
  const std::vector<int64_t> self = SelfNanos(spans);
  EXPECT_EQ(self, (std::vector<int64_t>{30, 15, 20, 15, 20}));

  const auto by_layer = SelfSecondsByLayer(spans);
  EXPECT_NEAR(by_layer.at("bench"), 30e-9, 1e-15);
  EXPECT_NEAR(by_layer.at("snapshot"), 50e-9, 1e-15);
  EXPECT_NEAR(by_layer.at("chase"), 20e-9, 1e-15);
}

TEST(SpansTest, OverlappingAndOverhangingChildrenCountOnce) {
  const std::vector<SpanRecord> spans = {
      Span("bench.job", 100, 200, -1),
      Span("hom.contains", 90, 130, 0),   // starts before its parent
      Span("hom.minimize", 120, 150, 0),  // overlaps the previous child
      Span("hom.contains", 190, 260, 0),  // ends after its parent
  };
  const std::vector<int64_t> self = SelfNanos(spans);
  // Covered: [100,150) and [190,200) -> 60 of 100.
  EXPECT_EQ(self[0], 40);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 70);
}

TEST(SpansTest, ScopesNestAndNullLogRecordsNothing) {
  SpanLog log;
  log.set_job(7);
  {
    SpanLog::Scope outer(&log, "bench.job");
    { SpanLog::Scope inner(&log, "chase.run"); }
    { SpanLog::Scope none(nullptr, "chase.run"); }
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[1].job, 7);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_LE(log.spans()[1].end_ns, log.spans()[0].end_ns);

  const std::string trace = log.ToChromeTrace("{\"k\":1}");
  EXPECT_NE(trace.find("\"metadata\":{\"k\":1}"), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"chase.run\",\"cat\":\"chase\""),
            std::string::npos);
}

}  // namespace
}  // namespace perfbench
