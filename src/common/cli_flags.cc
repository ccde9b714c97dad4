#include "common/cli_flags.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dstc {

namespace {

/** Full-token strtoll with range reporting. */
bool
parseWholeLl(const std::string &v, long long *out)
{
    char *end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(v.c_str(), &end, 10);
    if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE)
        return false;
    *out = parsed;
    return true;
}

/** The text of @p range when @p value lies outside it, else null. */
const char *
outsideRange(ArgRange range, double value)
{
    switch (range) {
    case ArgRange::Any:
        return nullptr;
    case ArgRange::Fraction:
        return value >= 0.0 && value <= 1.0 ? nullptr : "in [0, 1]";
    case ArgRange::AtLeastOne:
        return value >= 1.0 ? nullptr : ">= 1";
    case ArgRange::Positive:
        return value > 0.0 ? nullptr : "> 0";
    case ArgRange::NonNegative:
        return value >= 0.0 ? nullptr : ">= 0";
    }
    return nullptr;
}

/** Check one value against its declaration; @p label names it. */
bool
checkValue(const std::string &label, const ArgSpec &spec,
           const std::string &v)
{
    const char *needs = nullptr;
    double number = 0.0;
    char *end = nullptr;
    switch (spec.kind) {
    case ArgKind::Presence:
        return true;
    case ArgKind::Text:
        if (v.empty())
            needs = "a value";
        break;
    case ArgKind::Number:
        number = std::strtod(v.c_str(), &end);
        if (v.empty() || end != v.c_str() + v.size() ||
            !std::isfinite(number))
            needs = "a finite numeric value";
        break;
    case ArgKind::Int: {
        long long parsed = 0;
        if (!parseWholeLl(v, &parsed) || parsed < INT_MIN ||
            parsed > INT_MAX)
            needs = "an integer value in range";
        number = static_cast<double>(parsed);
        break;
    }
    case ArgKind::U64:
        errno = 0;
        number = static_cast<double>(std::strtoull(v.c_str(), &end, 10));
        if (v.empty() || v[0] == '-' || end != v.c_str() + v.size() ||
            errno == ERANGE)
            needs = "an unsigned integer value";
        break;
    }
    if (needs) {
        std::fprintf(stderr, "error: %s needs %s, got '%s'\n",
                     label.c_str(), needs, v.c_str());
        return false;
    }
    const auto &choices = spec.choices;
    if (!choices.empty() &&
        std::find(choices.begin(), choices.end(), v) == choices.end()) {
        std::string valid;
        for (const std::string &choice : choices)
            valid += (valid.empty() ? "" : ", ") + choice;
        std::fprintf(stderr,
                     "error: %s must be one of {%s}, got '%s'\n",
                     label.c_str(), valid.c_str(), v.c_str());
        return false;
    }
    if (const char *range = outsideRange(spec.range, number)) {
        std::fprintf(stderr, "error: %s must be %s, got %s\n",
                     label.c_str(), range, v.c_str());
        return false;
    }
    return true;
}

} // namespace

bool
CliArgs::hasFlag(const std::string &name) const
{
    for (const auto &[k, v] : flags)
        if (k == name)
            return true;
    return false;
}

std::string
CliArgs::flag(const std::string &name, const std::string &fallback) const
{
    for (const auto &[k, v] : flags)
        if (k == name)
            return v;
    return fallback;
}

double
CliArgs::flagD(const std::string &name, double fallback) const
{
    for (const auto &[k, v] : flags)
        if (k == name)
            return std::atof(v.c_str());
    return fallback;
}

int
CliArgs::flagI(const std::string &name, int fallback) const
{
    for (const auto &[k, v] : flags) {
        if (k != name)
            continue;
        long long parsed = 0;
        if (!parseWholeLl(v, &parsed) || parsed < INT_MIN ||
            parsed > INT_MAX)
            return fallback; // validateFlags already rejected it
        return static_cast<int>(parsed);
    }
    return fallback;
}

uint64_t
CliArgs::flagU64(const std::string &name, uint64_t fallback) const
{
    for (const auto &[k, v] : flags)
        if (k == name)
            return std::strtoull(v.c_str(), nullptr, 10);
    return fallback;
}

bool
CliArgs::matchesForm(const std::vector<ArgSpec> &positionals,
                     const std::vector<ArgSpec> &declared) const
{
    for (const ArgSpec &spec : declared)
        if (spec.required && !hasFlag(spec.name))
            return false;
    size_t required = 0;
    for (const ArgSpec &spec : positionals)
        required += spec.required;
    const size_t given = positional.empty() ? 0 : positional.size() - 1;
    return given >= required && given <= positionals.size();
}

bool
CliArgs::validateFlags(const char *command,
                       const std::vector<ArgSpec> &declared,
                       const std::vector<ArgSpec> &positionals) const
{
    bool ok = true;
    for (auto it = flags.begin(); it != flags.end(); ++it) {
        const std::string &name = it->first;
        const auto spec =
            std::find_if(declared.begin(), declared.end(),
                         [&](const ArgSpec &s) { return s.name == name; });
        if (spec == declared.end()) {
            std::string valid;
            for (const ArgSpec &s : declared)
                valid += (valid.empty() ? "--" : ", --") + s.name;
            std::fprintf(stderr,
                         "error: unknown flag '--%s' for command "
                         "'%s' (valid: %s)\n",
                         name.c_str(), command, valid.c_str());
            ok = false;
        } else if (std::any_of(flags.begin(), it, [&](const auto &f) {
                       return f.first == name;
                   })) {
            std::fprintf(stderr, "error: flag '--%s' given twice\n",
                         name.c_str());
            ok = false;
        } else if (!checkValue("--" + name, *spec, it->second)) {
            ok = false;
        }
    }
    for (size_t i = 0; i < positionals.size() && i + 1 < positional.size();
         ++i)
        if (!checkValue(positionals[i].name, positionals[i],
                        positional[i + 1]))
            ok = false;
    return ok;
}

CliArgs
parseCliArgs(int argc, char **argv,
             const std::set<std::string> &boolean_flags)
{
    CliArgs args;
    for (int i = 1; i < argc; ++i) {
        std::string token = argv[i];
        if (token.rfind("--", 0) == 0) {
            std::string name = token.substr(2);
            // Valueless flags keep an empty value: boolean flags
            // only test presence, and value-bearing flags fail
            // validation instead of silently defaulting.
            std::string value;
            if (!boolean_flags.count(name) && i + 1 < argc &&
                argv[i + 1][0] != '-')
                value = argv[++i];
            args.flags.emplace_back(std::move(name),
                                    std::move(value));
        } else {
            args.positional.push_back(std::move(token));
        }
    }
    return args;
}

} // namespace dstc
