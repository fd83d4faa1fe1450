/**
 * @file
 * Shape-regression tests: small-trace versions of the paper's
 * headline results. These pin the *qualitative* relationships the
 * benches reproduce at full scale, so a mechanism regression is
 * caught in seconds rather than by eyeballing bench output.
 */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "sim/experiment.hh"
#include "workloads/registry.hh"

namespace stems {
namespace {

/** One functional run of the three engines over a workload. */
WorkloadResult
runEngines(const std::string &workload, std::size_t records,
           bool timing = false)
{
    ExperimentConfig cfg;
    cfg.traceRecords = records;
    cfg.enableTiming = timing;
    ExperimentRunner runner(cfg);
    auto w = makeWorkload(workload);
    EXPECT_NE(w, nullptr);
    return runner.runWorkload(
        *w, std::vector<std::string>{"tms", "sms", "stems"});
}

TEST(Regression, Em3dTemporalOrdering)
{
    // Paper Figure 9: TMS essentially perfect on em3d; STeMS falls
    // between SMS and TMS.
    auto r = runEngines("em3d", 700'000);
    double tms = r.find("tms")->coverage;
    double sms = r.find("sms")->coverage;
    double stems_cov = r.find("stems")->coverage;
    EXPECT_GT(tms, 0.9);
    EXPECT_GT(stems_cov, sms - 0.05);
    EXPECT_LT(stems_cov, tms + 0.02);
}

TEST(Regression, DssStemsMatchesSms)
{
    // Paper Section 5.5: in DSS, STeMS achieves essentially the same
    // coverage as SMS while TMS is ineffective.
    auto r = runEngines("dss-qry17", 600'000);
    double tms = r.find("tms")->coverage;
    double sms = r.find("sms")->coverage;
    double stems_cov = r.find("stems")->coverage;
    EXPECT_LT(tms, 0.15);
    EXPECT_GT(sms, 0.5);
    EXPECT_NEAR(stems_cov, sms, 0.06);
}

TEST(Regression, CommercialStemsDominatesTms)
{
    // STeMS must capture far more than TMS alone on OLTP/web (it
    // adds the spatial dimension TMS lacks).
    auto r = runEngines("web-apache", 800'000);
    EXPECT_GT(r.find("stems")->coverage,
              r.find("tms")->coverage + 0.15);
}

TEST(Regression, CommercialOverpredictionInBand)
{
    // Paper: STeMS overpredicts ~29% on average; our commercial
    // workloads land in the 10-40% band.
    auto r = runEngines("oltp-db2", 800'000);
    double over = r.find("stems")->overprediction;
    EXPECT_GT(over, 0.05);
    EXPECT_LT(over, 0.45);
}

TEST(Regression, SparseScientificOrdering)
{
    // Paper Figure 10 sparse: TMS > STeMS > SMS.
    auto r = runEngines("sparse", 900'000, /*timing=*/true);
    double tms = r.find("tms")->speedup;
    double sms = r.find("sms")->speedup;
    double stems_sp = r.find("stems")->speedup;
    EXPECT_GT(tms, stems_sp);
    EXPECT_GT(stems_sp, sms);
    EXPECT_GT(tms, 1.5); // "a factor of four or more" at full scale
}

TEST(Regression, DssTemporalSpeedupIsNil)
{
    // Paper Section 5.6: temporal predictions have virtually no
    // performance impact in DSS.
    auto r = runEngines("dss-qry2", 500'000, /*timing=*/true);
    EXPECT_NEAR(r.find("tms")->speedup, 1.0, 0.05);
    EXPECT_GT(r.find("sms")->speedup, 1.02);
}

TEST(Regression, StemsBestOrTiedOnWeb)
{
    // Paper Figure 10: STeMS achieves a slight speedup advantage in
    // web serving.
    auto r = runEngines("web-zeus", 800'000, /*timing=*/true);
    double stems_sp = r.find("stems")->speedup;
    EXPECT_GE(stems_sp + 0.01, r.find("tms")->speedup);
    EXPECT_GE(stems_sp + 0.01, r.find("sms")->speedup);
    EXPECT_GT(stems_sp, 1.0);
}

TEST(Regression, NaiveHybridShape)
{
    // Paper Section 5.5: the side-by-side combination approaches the
    // joint coverage. (The paper's 2-3x overprediction blow-up does
    // not fully reproduce in this substrate: our SMS prefetches into
    // the L2 and thereby pre-filters TMS's miss stream, dampening
    // the interference — see "Deviations" in docs/REPRODUCING.md.
    // We pin the coverage property and that the hybrid is at least
    // as wasteful as its cleaner constituent.)
    ExperimentConfig cfg;
    cfg.traceRecords = 800'000;
    ExperimentRunner runner(cfg);
    auto w = makeWorkload("web-apache");
    auto r = runner.runWorkload(
        *w,
        std::vector<std::string>{"tms+sms", "stems", "sms"});
    const EngineResult *hybrid = r.find("tms+sms");
    const EngineResult *stems_r = r.find("stems");
    const EngineResult *sms = r.find("sms");
    EXPECT_GT(hybrid->coverage, stems_r->coverage - 0.08);
    EXPECT_GT(hybrid->overprediction,
              sms->overprediction * 1.5);
}

} // namespace
} // namespace stems
