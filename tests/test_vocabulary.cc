/**
 * @file
 * Every vocabulary table (common/vocabulary.h): unique non-empty
 * tokens, parse inverting the token lookup, rejection of unknown,
 * empty and upper-cased tokens, and the display names reports and
 * the CLI print.
 */
#include "common/vocabulary.h"

#include <gtest/gtest.h>

#include <cctype>
#include <set>
#include <string>

#include "conv/spconv.h"
#include "core/kernel_request.h"
#include "serve/serving.h"

namespace dstc {
namespace {

/** One table, as a type the typed tests run over. */
template <const auto &Table>
struct Vocabulary
{
    static constexpr const auto &table = Table;
};

template <class V>
class VocabularyTest : public ::testing::Test
{
};

using Tables = ::testing::Types<
    Vocabulary<kMethods>, Vocabulary<kSpmmFormats>,
    Vocabulary<kDataTypes>, Vocabulary<kConvMethods>,
    Vocabulary<kPlacementPolicies>, Vocabulary<kServePolicies>,
    Vocabulary<kAdmissionPolicies>, Vocabulary<kTrafficPatterns>,
    Vocabulary<kDeadlineClasses>>;
TYPED_TEST_SUITE(VocabularyTest, Tables);

TYPED_TEST(VocabularyTest, TokensAreUniqueAndNonEmpty)
{
    std::set<std::string> tokens;
    for (const auto &term : TypeParam::table) {
        EXPECT_STRNE(term.token, "");
        EXPECT_STRNE(term.name, "");
        EXPECT_TRUE(tokens.insert(term.token).second)
            << "duplicate token " << term.token;
    }
}

TYPED_TEST(VocabularyTest, ParseInvertsToken)
{
    const auto &table = TypeParam::table;
    for (const auto &term : table) {
        const auto parsed = parseToken(table, tokenOf(table, term.value));
        ASSERT_TRUE(parsed.has_value()) << term.token;
        EXPECT_TRUE(*parsed == term.value) << term.token;
    }
}

TYPED_TEST(VocabularyTest, RejectsUnknownEmptyAndUpperCasedTokens)
{
    const auto &table = TypeParam::table;
    EXPECT_FALSE(parseToken(table, "").has_value());
    EXPECT_FALSE(parseToken(table, "no-such-token").has_value());
    for (const auto &term : table) {
        std::string upper = term.token;
        for (char &c : upper)
            c = static_cast<char>(std::toupper(c));
        EXPECT_FALSE(parseToken(table, upper).has_value()) << upper;
    }
}

TEST(Vocabulary, DisplayNamesAreUnchanged)
{
    EXPECT_STREQ(nameOf(kConvMethods, ConvMethod::DualSparseImplicit),
                 "Dual Sparse Implicit");
    EXPECT_STREQ(nameOf(kConvMethods, ConvMethod::DenseImplicit),
                 "Dense Implicit");
    EXPECT_STREQ(nameOf(kConvMethods, ConvMethod::DenseExplicit),
                 "Dense Explicit");
    EXPECT_STREQ(nameOf(kMethods, Method::DualSparse),
                 "Dual-Side Sparse TC");
    EXPECT_STREQ(nameOf(kDataTypes, DataType::Int8),
                 "INT8 (symmetric, int32 accumulate)");
    EXPECT_STREQ(nameOf(kMethods, Method::Auto), "Auto");
    // A row without a display name shows its token.
    EXPECT_STREQ(nameOf(kDeadlineClasses, DeadlineClass::Interactive),
                 "interactive");
}

// listsEveryValue, which every table states in a static_assert,
// rejects a table with a row missing or out of order.
constexpr Term<DeadlineClass> kSwapped[] = {
    {DeadlineClass::Standard, "standard"},
    {DeadlineClass::Interactive, "interactive"},
    {DeadlineClass::Batch, "batch"}};
constexpr Term<DeadlineClass> kNoMiddle[] = {
    {DeadlineClass::Interactive, "interactive"},
    {DeadlineClass::Batch, "batch"}};
constexpr Term<DeadlineClass> kNoLast[] = {
    {DeadlineClass::Interactive, "interactive"},
    {DeadlineClass::Standard, "standard"}};
static_assert(!listsEveryValue(kSwapped, DeadlineClass::Batch));
static_assert(!listsEveryValue(kNoMiddle, DeadlineClass::Batch));
static_assert(!listsEveryValue(kNoLast, DeadlineClass::Batch));

} // namespace
} // namespace dstc
