/**
 * @file
 * Vocabularies: the named values of an enum (or of any other value
 * set the CLI spells out), each declared once as one row of a
 * constant table — the value, its CLI token and its display name.
 *
 *   inline constexpr Term<DataType> kDataTypes[] = {
 *       {DataType::Fp32, "fp32", "FP32"}, ...};
 *   static_assert(listsEveryValue(kDataTypes, DataType::Int4));
 *
 * The lookups below read the table, so a token, a display name, a
 * parser or a CLI choice list is never written out a second time.
 * An enum's table lists its enumerators in declaration order, which
 * listsEveryValue checks at compile time: deleting or reordering a
 * row fails the build.
 */
#ifndef DSTC_COMMON_VOCABULARY_H
#define DSTC_COMMON_VOCABULARY_H

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/logging.h"

namespace dstc {

/** One row of a vocabulary: a value, its CLI token and its display
 *  name (the token itself when the row names none). */
template <class T>
struct Term
{
    T value;
    const char *token;
    const char *name = token;
};

/**
 * True when the rows of @p table hold the enumerators of their enum
 * in declaration order, from the first (0) to @p last: row i holds
 * value i and the table ends at @p last. Tables state it in a
 * static_assert.
 */
template <class Row, size_t N>
constexpr bool
listsEveryValue(const Row (&table)[N], decltype(Row::value) last)
{
    for (size_t i = 0; i < N; ++i)
        if (static_cast<size_t>(table[i].value) != i)
            return false;
    return static_cast<size_t>(last) + 1 == N;
}

/** The row of @p table holding @p value; panics when none does. */
template <class Row, size_t N>
const Row &
rowOf(const Row (&table)[N], decltype(Row::value) value)
{
    for (const Row &row : table)
        if (row.value == value)
            return row;
    panic("value missing from its vocabulary table");
}

/** CLI token of @p value. */
template <class T, size_t N>
const char *
tokenOf(const Term<T> (&table)[N], std::type_identity_t<T> value)
{
    return rowOf(table, value).token;
}

/** Display name of @p value. */
template <class T, size_t N>
const char *
nameOf(const Term<T> (&table)[N], std::type_identity_t<T> value)
{
    return rowOf(table, value).name;
}

/** The value @p token names; nullopt when no row has that token. */
template <class T, size_t N>
std::optional<T>
parseToken(const Term<T> (&table)[N], std::string_view token)
{
    for (const Term<T> &term : table)
        if (token == term.token)
            return term.value;
    return std::nullopt;
}

/** Every token of @p table, in row order (a CLI choice list). */
template <class T, size_t N>
std::vector<std::string>
tokensOf(const Term<T> (&table)[N])
{
    std::vector<std::string> tokens;
    for (const Term<T> &term : table)
        tokens.push_back(term.token);
    return tokens;
}

} // namespace dstc

#endif // DSTC_COMMON_VOCABULARY_H
