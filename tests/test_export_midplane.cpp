// Tests for the figure-data CSV exporters and the §V-B midplane-level fits.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "coral/common/csv.hpp"
#include "coral/common/error.hpp"
#include "coral/core/export.hpp"
#include "coral/core/markdown.hpp"
#include "coral/core/midplane.hpp"
#include "coral/synth/intrepid.hpp"
#include "coral/synth/packs.hpp"

namespace coral::core {
namespace {

struct Fixture {
  synth::SynthResult data;
  CoAnalysisResult r;
};

const Fixture& fx() {
  static const Fixture f = [] {
    Fixture out;
    out.data = synth::generate(synth::small_scenario(101, 45));
    out.r = run_coanalysis(out.data.ras, out.data.jobs);
    return out;
  }();
  return f;
}

std::vector<std::vector<std::string>> parse_csv(const std::string& text) {
  std::istringstream in(text);
  CsvReader reader(in);
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  while (reader.read_row(row)) {
    if (row.size() == 1 && row[0].empty()) continue;
    rows.push_back(row);
  }
  return rows;
}

TEST(Export, CdfCsvIsMonotone) {
  std::ostringstream out;
  export_cdf_csv(out, fx().r.fatal_before_jobfilter);
  const auto rows = parse_csv(out.str());
  ASSERT_GT(rows.size(), 10u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"interarrival_s", "empirical", "weibull",
                                               "exponential"}));
  double prev_x = -1, prev_p = -1;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const double x = std::stod(rows[i][0]);
    const double p = std::stod(rows[i][1]);
    EXPECT_GE(x, prev_x);
    EXPECT_GE(p, prev_p);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev_x = x;
    prev_p = p;
  }
  EXPECT_NEAR(std::stod(rows.back()[1]), 1.0, 1e-9);
}

TEST(Export, MidplaneCsvHas80Rows) {
  std::ostringstream out;
  export_midplane_csv(out, fx().r);
  const auto rows = parse_csv(out.str());
  ASSERT_EQ(rows.size(), 81u);  // header + 80 midplanes
  EXPECT_EQ(rows[1][0], "R00-M0");
  EXPECT_EQ(rows[80][0], "R39-M1");
}

TEST(Export, DailyCsvSumsToInterruptions) {
  std::ostringstream out;
  export_daily_csv(out, fx().r);
  const auto rows = parse_csv(out.str());
  long total = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) total += std::stol(rows[i][1]);
  EXPECT_EQ(static_cast<std::size_t>(total), fx().r.interruption_count());
}

TEST(Export, GridCsvMatchesGrid) {
  std::ostringstream out;
  export_grid_csv(out, fx().r);
  const auto rows = parse_csv(out.str());
  ASSERT_EQ(rows.size(), 1u + 9u * 4u);
  long total = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) total += std::stol(rows[i][3]);
  EXPECT_EQ(static_cast<std::size_t>(total), fx().r.vulnerability.grid.total.total);
}

TEST(Export, GridRowsCarryTheMachineLadderOnBgq) {
  // BG/Q's ladder is {1, 2, 4, 8, 16, 32, 64, 96}: eight rows, labelled with
  // its own sizes in the CSV and the markdown report.
  const synth::SynthResult data =
      synth::generate(synth::base_scenario(machine::bgq_model(), 11, 7));
  const CoAnalysisResult r = run_coanalysis(data.ras, data.jobs);
  std::ostringstream out;
  export_grid_csv(out, r);
  const auto rows = parse_csv(out.str());
  ASSERT_EQ(rows.size(), 1u + 8u * 4u);
  std::vector<std::string> sizes;
  long total = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (i % 4 == 1) sizes.push_back(rows[i][0]);
    total += std::stol(rows[i][3]);
  }
  EXPECT_EQ(sizes, (std::vector<std::string>{"1", "2", "4", "8", "16", "32", "64", "96"}));
  EXPECT_EQ(static_cast<std::size_t>(total), r.vulnerability.grid.total.total);

  const std::string md = render_markdown_report(r, data.ras.summary(), data.jobs.summary());
  const std::span<const int> ladder = grid_row_sizes(r.machine());
  for (std::size_t row = 0; row < ladder.size(); ++row) {
    const std::string label = "| " + std::to_string(ladder[row]) + " |";
    EXPECT_EQ(md.find(label) != std::string::npos,
              r.vulnerability.grid.row_sums[row].total != 0)
        << label;
  }
  EXPECT_EQ(md.find("| 48 |"), std::string::npos);
  EXPECT_EQ(md.find("| 80 |"), std::string::npos);
}

TEST(Export, ResubmissionCsvHasSixRows) {
  std::ostringstream out;
  export_resubmission_csv(out, fx().r);
  const auto rows = parse_csv(out.str());
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[1][0], "system");
  EXPECT_EQ(rows[4][0], "application");
}

TEST(Export, ExportAllWritesEightFiles) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "coral_export_test").string();
  std::filesystem::create_directories(dir);
  EXPECT_EQ(export_all(dir, fx().r), 8);
  for (const char* name :
       {"fig3a_fatal_cdf_before.csv", "fig4_midplanes.csv", "fig5_daily.csv",
        "fig7_resubmissions.csv", "table6_grid.csv"}) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + name)) << name;
  }
  std::filesystem::remove_all(dir);
}

TEST(Export, ExportAllThrowsOnBadDirectory) {
  EXPECT_THROW(export_all("/nonexistent/nope", fx().r), coral::Error);
}

TEST(MidplaneFits, FitsWhereDataSuffices) {
  const MidplaneFits fits = fit_midplane_interarrivals(fx().r.filtered);
  EXPECT_GT(fits.fitted_count, 5u);
  EXPECT_LE(fits.fitted_count, 80u);
  // §V-B: Weibull keeps winning at midplane level.
  EXPECT_GT(fits.weibull_preferred_fraction(), 0.6);
  for (const auto& fit : fits.fits) {
    if (!fit) continue;
    EXPECT_GE(fit->samples_sec.size() + 1, 12u);
    EXPECT_GT(fit->weibull.shape(), 0.0);
  }
}

TEST(MidplaneFits, MinEventsRespected) {
  MidplaneFitConfig config;
  config.min_events = 100000;  // absurd: nothing qualifies
  const MidplaneFits fits = fit_midplane_interarrivals(fx().r.filtered, config);
  EXPECT_EQ(fits.fitted_count, 0u);
}

}  // namespace
}  // namespace coral::core
