#include "core/significance.h"

#include <gtest/gtest.h>

#include "core/motif.h"
#include "core/motif_catalog.h"
#include "gen/presets.h"
#include "test_util.h"

namespace flowmotif {
namespace {

Motif M33() { return *Motif::FromSpanningPath({0, 1, 2, 0}, "M(3,3)"); }

SignificanceAnalyzer::Options SmallOptions() {
  SignificanceAnalyzer::Options options;
  options.num_random_graphs = 8;
  options.seed = 7;
  options.delta = 10;
  options.phi = 7.0;
  return options;
}

TEST(SignificanceTest, ReportFieldsArePopulated) {
  TimeSeriesGraph g = testing_util::PaperFig2Graph();
  SignificanceAnalyzer analyzer(g, SmallOptions());
  SignificanceAnalyzer::MotifReport report = analyzer.Analyze(M33());
  EXPECT_EQ(report.motif_name, "M(3,3)");
  EXPECT_EQ(report.real_count, 2);  // the two Fig. 4 instances
  EXPECT_EQ(report.random_counts.size(), 8u);
  EXPECT_EQ(report.random_summary.count, 8u);
  EXPECT_GE(report.p_value, 0.0);
  EXPECT_LE(report.p_value, 1.0);
}

TEST(SignificanceTest, DeterministicGivenSeed) {
  TimeSeriesGraph g = testing_util::PaperFig2Graph();
  SignificanceAnalyzer analyzer(g, SmallOptions());
  SignificanceAnalyzer::MotifReport a = analyzer.Analyze(M33());
  SignificanceAnalyzer::MotifReport b = analyzer.Analyze(M33());
  EXPECT_EQ(a.random_counts, b.random_counts);
  EXPECT_EQ(a.z_score, b.z_score);
}

TEST(SignificanceTest, RealExceedsRandomOnCascadeData) {
  // The generators emit flow-conserving cascades, so real flow motifs
  // should out-count the flow-permuted graphs (the Fig. 14 effect).
  TimeSeriesGraph g = GenerateDataset(GetPreset(DatasetKind::kFacebook),
                                      /*scale=*/0.08);
  SignificanceAnalyzer::Options options;
  options.num_random_graphs = 5;
  options.seed = 3;
  options.delta = 600;
  options.phi = 3.0;
  SignificanceAnalyzer analyzer(g, options);
  SignificanceAnalyzer::MotifReport report =
      analyzer.Analyze(*MotifCatalog::ByName("M(3,2)"));
  EXPECT_GT(report.real_count, 0);
  EXPECT_GT(report.z_score, 0.0);
  EXPECT_GT(static_cast<double>(report.real_count),
            report.random_summary.mean);
}

TEST(SignificanceTest, AnalyzeAllCoversMotifSet) {
  TimeSeriesGraph g = testing_util::PaperFig2Graph();
  SignificanceAnalyzer analyzer(g, SmallOptions());
  std::vector<Motif> motifs{*MotifCatalog::ByName("M(3,2)"), M33()};
  std::vector<SignificanceAnalyzer::MotifReport> reports =
      analyzer.AnalyzeAll(motifs);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].motif_name, "M(3,2)");
  EXPECT_EQ(reports[1].motif_name, "M(3,3)");
}

TEST(SignificanceTest, PermutationCountsAreBoundedByStructure) {
  // With phi = 0, flow permutation cannot change the instance count at
  // all (the paper: "putting aside the flow constraint, the motif
  // instances in the two graphs will be the same").
  TimeSeriesGraph g = testing_util::PaperFig7Graph();
  SignificanceAnalyzer::Options options;
  options.num_random_graphs = 4;
  options.seed = 13;
  options.delta = 10;
  options.phi = 0.0;
  SignificanceAnalyzer analyzer(g, options);
  SignificanceAnalyzer::MotifReport report = analyzer.Analyze(M33());
  for (double count : report.random_counts) {
    EXPECT_EQ(count, static_cast<double>(report.real_count));
  }
  EXPECT_EQ(report.z_score, 0.0);
}

}  // namespace
}  // namespace flowmotif
