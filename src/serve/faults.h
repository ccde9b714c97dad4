/**
 * @file
 * Deterministic fault injection for the serving subsystem.
 *
 * Real heterogeneous fleets degrade and fail; because the
 * ServingEngine is a seeded discrete-event simulation on a virtual
 * clock, faults can be injected *deterministically* and every
 * recovery decision replayed bit for bit. Three fault classes:
 *
 *  - Crash-stop: a device dies at a scripted instant and never
 *    returns. Its queued and in-flight requests are drained and
 *    either re-placed on survivors (failover) or lost.
 *  - Slowdown: a timed window during which a device's simulated
 *    service time is scaled by a factor (thermal throttling, a noisy
 *    neighbor). Placement estimates and the EDF feasibility guard
 *    see the same factor, so placement routes around the slow
 *    device instead of piling work on it.
 *  - Transient: a per-dispatch execution failure drawn from a seeded
 *    hash of (seed, request id, attempt, device) — the same request
 *    fails at the same attempt in every run, for any worker count.
 *
 * Faults come from a FaultSpec — either scripted events parsed from
 * a compact CLI string, or `randcrash:<n>` events drawn by the
 * injector from its seed over the arrival window. Malformed specs
 * are returned as errors with a message, never silently defaulted.
 *
 * The HealthTracker is the serving run's one record of device health:
 * which devices are alive, what slowdown factor applies at a virtual
 * timestamp, and when each device crashed.
 */
#ifndef DSTC_SERVE_FAULTS_H
#define DSTC_SERVE_FAULTS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dstc {

/** What kind of fault an event injects. */
enum class FaultKind
{
    Crash,    ///< crash-stop: the device dies at time_us forever
    Slowdown, ///< service time scales by factor over a timed window
};

/** One scripted (or drawn) fault on the virtual clock. */
struct FaultEvent
{
    FaultKind kind = FaultKind::Crash;
    size_t device = 0;
    double time_us = 0.0;
    double duration_us = 0.0; ///< Slowdown only: window length
    double factor = 1.0;      ///< Slowdown only: service-time scale
};

/**
 * A parsed fault scenario. The spec string is a `;`-separated list
 * of tokens:
 *
 *   crash@<t_us>:d<idx>             crash-stop device idx at t_us
 *   slow@<t_us>+<dur_us>x<f>:d<idx> scale service time by f over
 *                                   [t_us, t_us + dur_us)
 *   transient:p<prob>               per-dispatch failure probability
 *   randcrash:<n>                   n seeded crash events drawn by
 *                                   the injector over the window
 *
 * e.g. "crash@500:d1;slow@200+400x2.5:d0;transient:p0.05".
 */
struct FaultSpec
{
    std::vector<FaultEvent> events;
    double transient_prob = 0.0;
    int random_crashes = 0;

    bool empty() const
    {
        return events.empty() && transient_prob == 0.0 &&
               random_crashes == 0;
    }

    /**
     * Parse @p spec into @p out. Returns false on any malformed
     * token, with a human-readable message in @p error — the caller
     * owns the exit path (no std::exit, no silent defaults).
     */
    static bool parse(const std::string &spec, FaultSpec *out,
                      std::string *error);
};

/**
 * The seeded fault source of one serving run. Materializes the
 * spec's scripted events plus any `randcrash` draws (uniform over
 * [0, window_us), device uniform over the fleet — a pure function of
 * the seed), sorts them on the virtual clock, and answers the
 * per-dispatch transient-failure draw.
 */
class FaultInjector
{
  public:
    FaultInjector(FaultSpec spec, size_t num_devices,
                  double window_us, uint64_t seed);

    /** All fault events, sorted by (time, device, kind). Events
     *  naming a device outside the fleet are dropped at
     *  construction (scripts are fleet-size agnostic). */
    const std::vector<FaultEvent> &events() const { return events_; }

    /**
     * Whether attempt @p attempt of request @p id fails transiently
     * on @p device — a seeded hash draw, identical in every run.
     * Hedged arms fold the device in, so the two arms of one attempt
     * draw independently.
     */
    bool transientFails(int64_t id, int attempt,
                        size_t device) const;

  private:
    FaultSpec spec_;
    uint64_t seed_;
    std::vector<FaultEvent> events_;
};

/**
 * Per-device health scoreboard on the virtual clock: the serving
 * engine's placement and dispatch consult it for liveness and
 * service-time scaling. Crashes are permanent (crash-stop);
 * slowdown windows may overlap (factors multiply).
 */
class HealthTracker
{
  public:
    explicit HealthTracker(size_t num_devices);

    void markCrashed(size_t device, double time_us);
    void addSlowdown(size_t device, double time_us,
                     double duration_us, double factor);

    bool alive(size_t device) const;
    size_t aliveCount() const { return alive_count_; }
    size_t numDevices() const { return crashed_at_.size(); }

    /** Crash timestamp, or +inf while the device lives. */
    double crashTimeUs(size_t device) const;

    /**
     * The service-time scale of a dispatch starting at @p time_us on
     * @p device: the product of every slowdown window containing
     * that instant (1.0 when none does).
     */
    double slowdownFactor(size_t device, double time_us) const;

  private:
    struct Window
    {
        double begin_us;
        double end_us;
        double factor;
    };

    std::vector<double> crashed_at_; ///< +inf = alive
    std::vector<std::vector<Window>> windows_;
    size_t alive_count_;
};

} // namespace dstc

#endif // DSTC_SERVE_FAULTS_H
