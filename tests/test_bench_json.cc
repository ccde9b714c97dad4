#include "../bench/bench_util.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace dstc {
namespace {

TEST(BenchJson, FieldsKeepOrderAndPrecision)
{
    const std::string s = bench::JsonObject()
                              .integer("m", 128)
                              .number("sparsity", 0.899999, 2)
                              .number("us", 1.0 / 3.0, 4)
                              .flag("bitwise_equal", true)
                              .text("dtype", "int8")
                              .str();
    EXPECT_EQ(s, "{\"m\": 128, \"sparsity\": 0.90, \"us\": 0.3333, "
                 "\"bitwise_equal\": true, \"dtype\": \"int8\"}");
    EXPECT_EQ(bench::JsonObject().str(), "{}");
}

TEST(BenchJson, EscapesStrings)
{
    EXPECT_EQ(bench::JsonObject::quoted("a\"b\\c\n\x01"),
              "\"a\\\"b\\\\c\\u000a\\u0001\"");
    EXPECT_EQ(bench::JsonObject::quoted("crash@500:d1;transient:p0.02"),
              "\"crash@500:d1;transient:p0.02\"");
}

TEST(BenchJson, WritesConfigAndArrays)
{
    const std::string path =
        ::testing::TempDir() + "dstc_bench_json_test.json";
    bench::BenchArgs args;
    args.out = path.c_str();
    args.reps = 2;
    args.quick = true;
    bench::BenchJson json("micro_test", args, "note \"quoted\"");
    const std::vector<int> points = {1, 2};
    json.array("points", points, [](int v) {
        return bench::JsonObject().integer("v", v);
    });
    json.array("precision_points", std::vector<int>{},
               [](int v) { return bench::JsonObject().integer("v", v); });
    json.write();

    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::remove(path.c_str());
    const std::string doc = text.str();
    EXPECT_EQ(doc.rfind("{\n  \"bench\": \"micro_test\",\n", 0), 0u);
    EXPECT_NE(doc.find("\"reps\": 2, \"quick\": true, "
                       "\"host_note\": \"note \\\"quoted\\\"\"}"),
              std::string::npos);
    EXPECT_NE(doc.find(",\n  \"points\": [\n    {\"v\": 1},\n"
                       "    {\"v\": 2}\n  ],\n"
                       "  \"precision_points\": []\n}\n"),
              std::string::npos);
}

TEST(BenchJsonDeathTest, UnwritablePathExits)
{
    // The config block starts the shared pool; fork-only death tests
    // cannot run its destructor in the child.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    bench::BenchArgs args;
    args.out = "/nonexistent-dir/out.json";
    const bench::BenchJson json("micro_test", args);
    EXPECT_EXIT(json.write(), ::testing::ExitedWithCode(1),
                "cannot write /nonexistent-dir/out.json");
}

} // namespace
} // namespace dstc
