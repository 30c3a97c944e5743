/**
 * @file
 * The centaur-lint contract: what `tools/centaur_lint.py` enforces
 * over this tree and how to talk back to it. This header carries no
 * runtime code — it exists so the rules and the pragma grammar are
 * documented next to the units they police, and so `#include
 * "sim/lint.hh"` in a reviewer's editor jumps here.
 *
 * Why a linter at all: the simulator's headline promise (ROADMAP.md)
 * is that a run's JSON report is byte-identical at any `--jobs`
 * count and on any host. That property dies quietly — one
 * `std::unordered_map` walk feeding an emission, one wall-clock read,
 * one float accumulated across threads — so the invariants are
 * machine-checked on every push instead of re-litigated in review.
 *
 * Rules (ids as the linter prints them):
 *
 *  - `determinism` — no `std::rand`/`srand`, `time()`,
 *    `std::random_device`, or `std::chrono` clock reads outside
 *    `src/sim/random.*`. All randomness flows from the seeded
 *    SplitMix64/xoshiro generators in sim/random.hh; all time is
 *    simulated Tick time from sim/units.hh.
 *
 *  - `ordered-emission` — iterating a `std::unordered_*` container
 *    is hash-order, which varies by libstdc++ version and seed, so
 *    any iteration (or even a declaration, absent an audit pragma)
 *    that can reach stats/JSON emission is flagged. Audit the use,
 *    then annotate it (tests/lint/fixtures/clean.hh shows the
 *    pragma), or switch to std::map / a sorted snapshot.
 *
 *  - `unit-suffix` — a float field, parameter or JSON key holding a
 *    time/size/power quantity must name its unit with a suffix
 *    consistent with sim/units.hh (`Us`/`_us`, `Ns`/`_ns`,
 *    `Joules`/`_joules`, `Watts`/`_watts`, `Gbps`/`_gbps`, ...).
 *    `Tick`/`Cycles`-typed names carry their unit in the type and
 *    need no suffix, but must not claim a foreign one: `Tick
 *    queueDelayUs` and conversion-free mixes like `x_us = y_ticks`
 *    are errors. Convert through ticksFromUs()/usFromTicks().
 *
 *  - `parallel-reduction` — inside a `SuiteContext::parallelFor`
 *    body, every write to captured state must land in the
 *    iteration's own slot (`out[i] = ...`). Float `+=` across
 *    iterations is non-associative, so reductions happen
 *    sequentially after the join (see tests/lint/fixtures/clean.cc
 *    for the sanctioned shape).
 *
 *  - `schema-sync` — metric keys emitted by bench/suites/ and
 *    core/report.cc must appear in tools/check_bench.py's
 *    POSITIVE_KEYS / HIGHER_IS_WORSE / LOWER_IS_WORSE / NEUTRAL_KEYS
 *    tables, and vice versa, so the gate and the writers cannot
 *    drift apart.
 *
 *  - `header-hygiene` — headers carry a `CENTAUR_<PATH>_HH` include
 *    guard (this file's own guard is the template) and never
 *    `using namespace` at namespace scope.
 *
 *  - `event-capture` — a `std::function`-typed variable passed by
 *    name to an event-queue `schedule()`/`scheduleIn()` call
 *    re-boxes its closure into the queue's arena on every call.
 *    Hot paths that re-fire a long-lived round body pass a
 *    captureless trampoline plus a context pointer instead (see
 *    core/node_scheduler.cc's NodeScheduler::fire);
 *    src/sim/event_queue.* is
 *    exempt because the kernel's boxing overload is the one
 *    sanctioned boxing site.
 *
 * Suppression: a finding that survives an audit is silenced on its
 * line with
 *
 *     // <justification...> centaur-lint: allow(<rule-id>)
 *
 * either on the offending line itself or on a comment-only line
 * directly above it. Multiple ids are comma-separated:
 * `allow(unit-suffix, ordered-emission)`. A pragma is a claim that a
 * human audited the line — always write the justification before it.
 *
 * Running it:
 *
 *     python3 tools/centaur_lint.py              # human output, exit 1 on findings
 *     python3 tools/centaur_lint.py --json out.json
 *     python3 tools/centaur_lint.py --self-check # fixtures + clean-tree assert
 *     cmake --build build --target lint          # same pass + clang-tidy if installed
 */

#ifndef CENTAUR_SIM_LINT_HH
#define CENTAUR_SIM_LINT_HH

namespace centaur {

/**
 * The rule ids `tools/centaur_lint.py` enforces, in the order the
 * tool lists them (`--list-rules`). Kept here so C++ tooling and
 * tests can refer to the ids without parsing the Python source.
 */
inline constexpr const char *kLintRules[] = {
    "determinism",        //
    "ordered-emission",   //
    "unit-suffix",        //
    "parallel-reduction", //
    "schema-sync",        //
    "header-hygiene",     //
    "event-capture",      //
};

inline constexpr int kLintRuleCount =
    static_cast<int>(sizeof(kLintRules) / sizeof(kLintRules[0]));

} // namespace centaur

#endif // CENTAUR_SIM_LINT_HH
