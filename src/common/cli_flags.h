/**
 * @file
 * Flag parsing and validation for the CLI front ends (dstc_sim).
 *
 * A command form declares each of its flags and positionals once, as
 * an ArgSpec: name, value kind, and the vocabulary or numeric range
 * the value must fall in. The contract is validate-then-read:
 * `validateFlags` checks every given flag and positional against
 * those declarations — unknown or repeated names, malformed numbers,
 * non-finite values, integers outside int range, values off the
 * vocabulary or out of range all *return* errors (printed to stderr)
 * instead of exiting, so the caller owns the exit path and tests can
 * exercise every rejection. After a successful validation the typed
 * accessors (`flagI`, `flagD`, `flagU64`) cannot fail; called on
 * unvalidated input they fall back to the default rather than
 * terminating.
 */
#ifndef DSTC_COMMON_CLI_FLAGS_H
#define DSTC_COMMON_CLI_FLAGS_H

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace dstc {

/** How a declared value is read and checked. */
enum class ArgKind
{
    Presence, ///< a switch that never takes a value
    Text,     ///< a non-empty string (one of `choices`, if given)
    Number,   ///< a finite decimal number
    Int,      ///< a whole decimal in int range
    U64,      ///< an unsigned decimal (seeds)
};

/** The valid range of a Number, Int or U64 value. */
enum class ArgRange
{
    Any,
    Fraction,    ///< [0, 1]: sparsities
    AtLeastOne,  ///< >= 1: cluster factors
    Positive,    ///< > 0: dimensions, rates, durations, depths
    NonNegative, ///< >= 0: padding
};

/** One declared flag (`--name`) or positional of a command form. */
struct ArgSpec
{
    std::string name;
    ArgKind kind = ArgKind::Text;
    ArgRange range = ArgRange::Any;
    /** Text only: the closed vocabulary (empty: any non-empty). */
    std::vector<std::string> choices = {};
    /** A required flag or positional; it selects the form. */
    bool required = false;
};

/** Parsed command line: positionals plus --name[ated] flags. */
struct CliArgs
{
    std::vector<std::string> positional;
    std::vector<std::pair<std::string, std::string>> flags;

    bool hasFlag(const std::string &name) const;

    /** Raw flag value, or @p fallback when absent. */
    std::string flag(const std::string &name,
                     const std::string &fallback) const;

    /** Numeric flag; @p fallback when absent, on malformed input
     *  (pre-validation callers) the parseable prefix like atof. */
    double flagD(const std::string &name, double fallback) const;

    /**
     * Integer flag. Values outside int range return @p fallback —
     * validateFlags has already rejected them for every validated
     * command, so this accessor never terminates the process.
     */
    int flagI(const std::string &name, int fallback) const;

    uint64_t flagU64(const std::string &name,
                     uint64_t fallback) const;

    /**
     * Whether these arguments have the shape of a command form: every
     * required flag of @p flags is present and the positionals after
     * the command (positional[0]) number at least the required and at
     * most all of @p positionals. Values are not checked.
     */
    bool matchesForm(const std::vector<ArgSpec> &positionals,
                     const std::vector<ArgSpec> &flags) const;

    /**
     * Validate every flag against @p flags — reject a name not
     * declared there or given twice, and a value that does not fit
     * its declaration — and every positional after the command
     * against @p positionals, in order. A Text value must be
     * non-empty and in the vocabulary;
     * a Number must parse fully as a finite number, an Int as a
     * whole decimal in int range (so "--seed 1e3" cannot silently
     * atoi to 1 and "--hw 99999999999" cannot overflow an
     * accessor), a U64 as an unsigned decimal, each within its
     * range. Errors print to stderr and the function returns false —
     * it never exits.
     */
    bool validateFlags(const char *command,
                       const std::vector<ArgSpec> &flags,
                       const std::vector<ArgSpec> &positionals = {})
        const;
};

/**
 * Split argv into positionals and flags. Flags in @p boolean_flags
 * are presence-only and never consume a following token (else
 * "--explicit bogus" would silently eat the stray argument).
 * Value-bearing flags keep an empty value when none follows, which
 * validateFlags then rejects instead of silently defaulting.
 */
CliArgs parseCliArgs(int argc, char **argv,
                     const std::set<std::string> &boolean_flags);

} // namespace dstc

#endif // DSTC_COMMON_CLI_FLAGS_H
