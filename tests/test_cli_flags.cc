/**
 * @file
 * The CLI validation layer (dstc_sim's declared flags): malformed,
 * out-of-range, unknown and repeated flags must be *returned* as
 * errors, never exit the process from an accessor, and the typed
 * accessors must be total functions after validation. dstc_sim's own
 * vocabulary is exercised end to end by tools/test_dstc_sim_cli.py.
 */
#include "common/cli_flags.h"

#include <gtest/gtest.h>

namespace dstc {
namespace {

CliArgs
parse(std::vector<std::string> tokens,
      const std::set<std::string> &boolean_flags = {"a100", "batched",
                                                    "retry"})
{
    std::vector<char *> argv = {const_cast<char *>("dstc_sim")};
    for (auto &t : tokens)
        argv.push_back(t.data());
    return parseCliArgs(static_cast<int>(argv.size()), argv.data(),
                        boolean_flags);
}

/** Whether `--<spec.name> <value>` validates against @p spec alone.
 *  Built directly: parseCliArgs never takes "-1" as a value. */
bool
accepts(const ArgSpec &spec, const std::string &value)
{
    CliArgs args;
    args.positional = {"x"};
    args.flags = {{spec.name, value}};
    return args.validateFlags("x", {spec});
}

const ArgSpec kInt = {"hw", ArgKind::Int};
const ArgSpec kU64 = {"seed", ArgKind::U64};
const ArgSpec kNumber = {"wsp", ArgKind::Number};

TEST(CliFlags, ParsesPositionalsAndFlags)
{
    CliArgs args = parse({"gemm", "64", "64", "64", "--a-sparsity",
                          "0.7", "--batched"});
    ASSERT_EQ(args.positional.size(), 4u);
    EXPECT_EQ(args.positional[0], "gemm");
    EXPECT_TRUE(args.hasFlag("batched"));
    EXPECT_DOUBLE_EQ(args.flagD("a-sparsity", 0.0), 0.7);
    EXPECT_DOUBLE_EQ(args.flagD("b-sparsity", 0.25), 0.25);
}

TEST(CliFlags, BooleanFlagsDoNotConsumeTokens)
{
    CliArgs args = parse({"--a100", "model", "resnet18"});
    ASSERT_EQ(args.positional.size(), 2u);
    EXPECT_EQ(args.positional[0], "model");
    EXPECT_TRUE(args.hasFlag("a100"));
    EXPECT_EQ(args.flag("a100", "x"), "");

    CliArgs serve = parse({"serve", "mix", "--retry", "--rate", "500"});
    EXPECT_TRUE(serve.validateFlags(
        "serve", {{"retry", ArgKind::Presence}, {"rate", ArgKind::Number}},
        {{"model", ArgKind::Text}}));
    EXPECT_TRUE(serve.hasFlag("retry"));
    EXPECT_FALSE(serve.hasFlag("hedge"));
    EXPECT_DOUBLE_EQ(serve.flagD("rate", 0.0), 500.0);
}

TEST(CliFlags, UnknownFlagFailsValidation)
{
    CliArgs args = parse({"conv", "--in-c", "8", "--typo", "3"});
    EXPECT_FALSE(args.validateFlags("conv", {{"in-c", ArgKind::Int}}));
    EXPECT_TRUE(args.validateFlags(
        "conv", {{"in-c", ArgKind::Int}, {"typo", ArgKind::Int}}));
}

TEST(CliFlags, RepeatedFlagFailsValidation)
{
    // The first value used to win silently.
    EXPECT_FALSE(parse({"gemm", "--seed", "1", "--seed", "2"})
                     .validateFlags("gemm", {kU64}));
    EXPECT_FALSE(parse({"model", "--batched", "--batched"})
                     .validateFlags("model",
                                    {{"batched", ArgKind::Presence}}));
    EXPECT_TRUE(parse({"gemm", "--seed", "1", "--hw", "2"})
                    .validateFlags("gemm", {kU64, kInt}));
}

TEST(CliFlags, IntegerOutOfIntRangeIsRejectedNotExited)
{
    // The old flagI accessor would std::exit(2) on this; now the
    // validation layer reports it and the accessor stays total.
    CliArgs args = parse({"conv", "--hw", "99999999999"});
    EXPECT_FALSE(args.validateFlags("conv", {kInt}));
    EXPECT_EQ(args.flagI("hw", -1), -1);
}

TEST(CliFlags, IntegerMustBeWholeDecimal)
{
    EXPECT_FALSE(accepts(kU64, "1e3"));
    EXPECT_FALSE(accepts(kInt, "1e3"));
    EXPECT_FALSE(accepts(kInt, "12.5"));
    EXPECT_FALSE(accepts(kInt, "abc"));
    EXPECT_TRUE(accepts(kInt, "28"));
    EXPECT_TRUE(accepts(kInt, "-3"));
}

TEST(CliFlags, UnsignedRejectsNegativeAndOverflow)
{
    EXPECT_FALSE(accepts(kU64, "-3"));
    EXPECT_FALSE(accepts(kU64, "99999999999999999999999"));
    CliArgs ok = parse({"x", "--seed", "12345678901"});
    EXPECT_TRUE(ok.validateFlags("x", {kU64}));
    EXPECT_EQ(ok.flagU64("seed", 0), 12345678901ull);
}

TEST(CliFlags, NumericMustBeFinite)
{
    EXPECT_FALSE(accepts(kNumber, "nan"));
    EXPECT_FALSE(accepts(kNumber, "inf"));
    EXPECT_FALSE(accepts(kNumber, "0.7x"));
    EXPECT_FALSE(accepts(kNumber, "soon"));
    EXPECT_TRUE(accepts(kNumber, "0.75"));
    EXPECT_TRUE(accepts(kNumber, "-2"));
}

TEST(CliFlags, ValuelessValueFlagFailsInsteadOfDefaulting)
{
    // "--hw --out-c 4": --hw refuses to consume the next flag token
    // and must fail validation, not silently read as the default.
    CliArgs args = parse({"conv", "--hw", "--out-c", "4"});
    EXPECT_FALSE(args.validateFlags(
        "conv", {kInt, {"out-c", ArgKind::Int}}));
    // Every value kind, text included, needs a value.
    for (const ArgSpec &spec :
         {kInt, kU64, kNumber, ArgSpec{"faults", ArgKind::Text}})
        EXPECT_FALSE(accepts(spec, "")) << spec.name;
}

TEST(CliFlags, DeclaredRangesIncludeTheirBounds)
{
    const ArgSpec fraction = {"wsp", ArgKind::Number, ArgRange::Fraction};
    EXPECT_TRUE(accepts(fraction, "0"));
    EXPECT_TRUE(accepts(fraction, "1.0"));
    EXPECT_FALSE(accepts(fraction, "-0.1"));
    EXPECT_FALSE(accepts(fraction, "1.5"));

    const ArgSpec cluster = {"cluster", ArgKind::Number,
                             ArgRange::AtLeastOne};
    EXPECT_TRUE(accepts(cluster, "1"));
    EXPECT_FALSE(accepts(cluster, "0.5"));

    const ArgSpec rate = {"rate", ArgKind::Number, ArgRange::Positive};
    EXPECT_TRUE(accepts(rate, "400"));
    EXPECT_TRUE(accepts(rate, "1e-6"));
    EXPECT_FALSE(accepts(rate, "0"));
    EXPECT_FALSE(accepts(rate, "-3"));

    const ArgSpec depth = {"depth", ArgKind::Int, ArgRange::Positive};
    EXPECT_TRUE(accepts(depth, "1"));
    EXPECT_FALSE(accepts(depth, "0"));

    const ArgSpec pad = {"pad", ArgKind::Int, ArgRange::NonNegative};
    EXPECT_TRUE(accepts(pad, "0"));
    EXPECT_FALSE(accepts(pad, "-1"));
}

TEST(CliFlags, DeclaredChoicesAreExact)
{
    const ArgSpec policy = {"policy", ArgKind::Text, ArgRange::Any,
                            {"deadline", "cost", "rr"}};
    EXPECT_TRUE(accepts(policy, "deadline"));
    EXPECT_TRUE(accepts(policy, "rr"));
    EXPECT_FALSE(accepts(policy, "shard"));
    EXPECT_FALSE(accepts(policy, ""));
    EXPECT_FALSE(accepts(policy, "Deadline"));
    EXPECT_TRUE(accepts({"faults", ArgKind::Text}, "crash@500:d1"));
}

TEST(CliFlags, FormMatchesRequiredFlagsAndPositionalCount)
{
    const std::vector<ArgSpec> mnk = {
        {"M", ArgKind::Int, ArgRange::Positive, {}, true},
        {"N", ArgKind::Int, ArgRange::Positive, {}, true},
        {"K", ArgKind::Int, ArgRange::Positive, {}, true}};
    EXPECT_TRUE(parse({"gemm", "8", "8", "8"}).matchesForm(mnk, {}));
    EXPECT_FALSE(parse({"gemm", "8", "8"}).matchesForm(mnk, {}));
    EXPECT_FALSE(parse({"gemm", "8", "8", "8", "8"}).matchesForm(mnk, {}));

    // A trailing optional positional.
    const std::vector<ArgSpec> file = {
        {"FILE.mtx", ArgKind::Text, ArgRange::Any, {}, true},
        {"N", ArgKind::Int, ArgRange::Positive}};
    EXPECT_TRUE(parse({"spmm", "a.mtx"}).matchesForm(file, {}));
    EXPECT_TRUE(parse({"spmm", "a.mtx", "8"}).matchesForm(file, {}));
    EXPECT_FALSE(parse({"spmm"}).matchesForm(file, {}));

    // A required flag selects the form; stray positionals do not fit.
    const std::vector<ArgSpec> mtx = {
        {"mtx", ArgKind::Text, ArgRange::Any, {}, true},
        {"n", ArgKind::Int}};
    EXPECT_TRUE(parse({"backends", "--mtx", "a.mtx"}).matchesForm({}, mtx));
    EXPECT_FALSE(parse({"backends", "--n", "8"}).matchesForm({}, mtx));
    EXPECT_FALSE(parse({"backends", "--mtx", "a.mtx", "stray"})
                     .matchesForm({}, mtx));
}

TEST(CliFlags, PositionalsValidateAgainstTheirDeclarations)
{
    const std::vector<ArgSpec> dims = {
        {"M", ArgKind::Int, ArgRange::Positive, {}, true},
        {"N", ArgKind::Int, ArgRange::Positive}};
    EXPECT_TRUE(parse({"gemm", "8", "4"}).validateFlags("gemm", {}, dims));
    EXPECT_TRUE(parse({"gemm", "8"}).validateFlags("gemm", {}, dims));
    EXPECT_FALSE(parse({"gemm", "0", "4"}).validateFlags("gemm", {}, dims));
    EXPECT_FALSE(parse({"gemm", "8", "x"}).validateFlags("gemm", {}, dims));

    const std::vector<ArgSpec> model = {
        {"model", ArgKind::Text, ArgRange::Any, {"vgg16", "rnn"}, true}};
    EXPECT_TRUE(parse({"model", "rnn"}).validateFlags("model", {}, model));
    EXPECT_FALSE(
        parse({"model", "resnet19"}).validateFlags("model", {}, model));
}

TEST(CliFlags, AccessorsAfterValidationAreExact)
{
    CliArgs args = parse({"conv", "--in-c", "64", "--hw", "28",
                          "--wsp", "0.9", "--seed", "7"});
    ASSERT_TRUE(args.validateFlags(
        "conv", {{"in-c", ArgKind::Int}, kInt, kNumber, kU64}));
    EXPECT_EQ(args.flagI("in-c", 0), 64);
    EXPECT_EQ(args.flagI("hw", 0), 28);
    EXPECT_DOUBLE_EQ(args.flagD("wsp", 0.0), 0.9);
    EXPECT_EQ(args.flagU64("seed", 1), 7u);
    EXPECT_EQ(args.flagI("absent", 42), 42);
}

} // namespace
} // namespace dstc
