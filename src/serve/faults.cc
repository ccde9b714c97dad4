#include "serve/faults.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/logging.h"
#include "common/rng.h"

namespace dstc {

namespace {

/** splitmix64 finalizer — the transient draw's stateless hash. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** A finite decimal number: "nan" and "inf" are no time, duration,
 *  factor or probability. */
bool
parseDouble(const std::string &text, double *out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size() ||
        !std::isfinite(value))
        return false;
    *out = value;
    return true;
}

bool
parseDeviceSuffix(const std::string &text, size_t *device)
{
    // ":d<idx>" — a non-negative whole decimal device index.
    if (text.size() < 2 || text[0] != 'd')
        return false;
    for (size_t i = 1; i < text.size(); ++i)
        if (text[i] < '0' || text[i] > '9')
            return false;
    *device = static_cast<size_t>(
        std::strtoull(text.c_str() + 1, nullptr, 10));
    return true;
}

bool
tokenError(const std::string &token, const std::string &expected,
           std::string *error)
{
    if (error)
        *error = "malformed fault token '" + token + "': expected " +
                 expected;
    return false;
}

bool
parseToken(const std::string &token, FaultSpec *out,
           std::string *error)
{
    if (token.rfind("crash@", 0) == 0) {
        const std::string body = token.substr(6);
        const size_t colon = body.find(":");
        if (colon == std::string::npos)
            return tokenError(token, "crash@<t_us>:d<device>", error);
        FaultEvent event;
        event.kind = FaultKind::Crash;
        if (!parseDouble(body.substr(0, colon), &event.time_us) ||
            event.time_us < 0.0 ||
            !parseDeviceSuffix(body.substr(colon + 1), &event.device))
            return tokenError(token, "crash@<t_us>:d<device>", error);
        out->events.push_back(event);
        return true;
    }
    if (token.rfind("slow@", 0) == 0) {
        const std::string usage =
            "slow@<t_us>+<dur_us>x<factor>:d<device>";
        const std::string body = token.substr(5);
        const size_t plus = body.find('+');
        const size_t x = body.find('x', plus == std::string::npos
                                           ? 0
                                           : plus + 1);
        const size_t colon = body.find(':', x == std::string::npos
                                                ? 0
                                                : x + 1);
        if (plus == std::string::npos || x == std::string::npos ||
            colon == std::string::npos)
            return tokenError(token, usage, error);
        FaultEvent event;
        event.kind = FaultKind::Slowdown;
        if (!parseDouble(body.substr(0, plus), &event.time_us) ||
            !parseDouble(body.substr(plus + 1, x - plus - 1),
                         &event.duration_us) ||
            !parseDouble(body.substr(x + 1, colon - x - 1),
                         &event.factor) ||
            event.time_us < 0.0 || event.duration_us <= 0.0 ||
            event.factor < 1.0 ||
            !parseDeviceSuffix(body.substr(colon + 1), &event.device))
            return tokenError(
                token,
                usage + " with t_us >= 0, dur_us > 0, factor >= 1",
                error);
        out->events.push_back(event);
        return true;
    }
    if (token.rfind("transient:p", 0) == 0) {
        double prob = 0.0;
        if (!parseDouble(token.substr(11), &prob) || prob < 0.0 ||
            prob >= 1.0)
            return tokenError(
                token, "transient:p<prob> with prob in [0, 1)",
                error);
        out->transient_prob = prob;
        return true;
    }
    if (token.rfind("randcrash:", 0) == 0) {
        const std::string count = token.substr(10);
        errno = 0;
        const unsigned long long value =
            std::strtoull(count.c_str(), nullptr, 10);
        // The running total over every randcrash token fits an int.
        if (count.empty() ||
            count.find_first_not_of("0123456789") !=
                std::string::npos ||
            errno != 0 ||
            value > static_cast<unsigned long long>(
                        std::numeric_limits<int>::max() -
                        out->random_crashes))
            return tokenError(token, "randcrash:<count> within int range",
                              error);
        out->random_crashes += static_cast<int>(value);
        return true;
    }
    return tokenError(token,
                      "crash@<t_us>:d<i> | "
                      "slow@<t_us>+<dur_us>x<f>:d<i> | "
                      "transient:p<prob> | randcrash:<n>",
                      error);
}

} // namespace

bool
FaultSpec::parse(const std::string &spec, FaultSpec *out,
                 std::string *error)
{
    FaultSpec parsed;
    if (spec.empty()) {
        if (error)
            *error = "empty fault spec";
        return false;
    }
    size_t begin = 0;
    while (begin <= spec.size()) {
        size_t end = spec.find(';', begin);
        if (end == std::string::npos)
            end = spec.size();
        const std::string token = spec.substr(begin, end - begin);
        if (token.empty()) {
            if (error)
                *error = "empty fault token in spec '" + spec + "'";
            return false;
        }
        if (!parseToken(token, &parsed, error))
            return false;
        begin = end + 1;
        if (end == spec.size())
            break;
    }
    *out = std::move(parsed);
    return true;
}

FaultInjector::FaultInjector(FaultSpec spec, size_t num_devices,
                             double window_us, uint64_t seed)
    : spec_(std::move(spec)), seed_(seed)
{
    for (const FaultEvent &event : spec_.events)
        if (event.device < num_devices)
            events_.push_back(event);
    // Random crashes: a pure function of the seed, uniform over the
    // arrival window and the fleet.
    if (spec_.random_crashes > 0 && num_devices > 0 &&
        window_us > 0.0) {
        Rng rng(mix64(seed_ ^ 0x66756c74ull)); // "fult"
        for (int i = 0; i < spec_.random_crashes; ++i) {
            FaultEvent event;
            event.kind = FaultKind::Crash;
            event.time_us = rng.uniform() * window_us;
            event.device = static_cast<size_t>(
                rng.uniformInt(num_devices));
            events_.push_back(event);
        }
    }
    std::sort(events_.begin(), events_.end(),
              [](const FaultEvent &a, const FaultEvent &b) {
                  if (a.time_us != b.time_us)
                      return a.time_us < b.time_us;
                  if (a.device != b.device)
                      return a.device < b.device;
                  return static_cast<int>(a.kind) <
                         static_cast<int>(b.kind);
              });
}

bool
FaultInjector::transientFails(int64_t id, int attempt,
                              size_t device) const
{
    if (spec_.transient_prob <= 0.0)
        return false;
    uint64_t h = mix64(seed_ ^ 0x7472616e7369ull); // "transi"
    h = mix64(h ^ static_cast<uint64_t>(id));
    h = mix64(h ^ static_cast<uint64_t>(attempt));
    h = mix64(h ^ static_cast<uint64_t>(device));
    const double draw =
        static_cast<double>(h >> 11) * 0x1.0p-53;
    return draw < spec_.transient_prob;
}

HealthTracker::HealthTracker(size_t num_devices)
    : crashed_at_(num_devices,
                  std::numeric_limits<double>::infinity()),
      windows_(num_devices), alive_count_(num_devices)
{
    DSTC_ASSERT(num_devices >= 1, "a fleet needs a device");
}

void
HealthTracker::markCrashed(size_t device, double time_us)
{
    DSTC_ASSERT(device < crashed_at_.size());
    if (crashed_at_[device] !=
        std::numeric_limits<double>::infinity())
        return; // crash-stop: already dead
    crashed_at_[device] = time_us;
    --alive_count_;
}

void
HealthTracker::addSlowdown(size_t device, double time_us,
                           double duration_us, double factor)
{
    DSTC_ASSERT(device < windows_.size());
    windows_[device].push_back(
        {time_us, time_us + duration_us, factor});
}

bool
HealthTracker::alive(size_t device) const
{
    DSTC_ASSERT(device < crashed_at_.size());
    return crashed_at_[device] ==
           std::numeric_limits<double>::infinity();
}

double
HealthTracker::crashTimeUs(size_t device) const
{
    DSTC_ASSERT(device < crashed_at_.size());
    return crashed_at_[device];
}

double
HealthTracker::slowdownFactor(size_t device, double time_us) const
{
    DSTC_ASSERT(device < windows_.size());
    double factor = 1.0;
    for (const Window &window : windows_[device])
        if (window.begin_us <= time_us && time_us < window.end_us)
            factor *= window.factor;
    return factor;
}

} // namespace dstc
