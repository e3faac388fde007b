/**
 * @file
 * Registry of every `CAPSTAN_*` environment kill switch.
 *
 * The simulator's byte-identical-output contract makes hidden runtime
 * switches dangerous: an undocumented env var that changes stepping
 * behaviour is an invisible input to every "reproducible" report. So
 * the rule, enforced by `capstan-lint`'s `env-registry` class
 * (`tools/lint/capstan_lint.py`), is:
 *
 *  - every `getenv` in `src/` must name its variable through one of
 *    the constants below (no raw string literals at the call site);
 *  - every constant below must actually be read somewhere in `src/`
 *    (no stale entries); and
 *  - every variable must be documented in README.md or `docs/`.
 *
 * These are bisecting switches, not configuration: each one disables
 * an optimization whose output must be byte-identical with the switch
 * on or off, so a divergence can be narrowed to one mechanism.
 */

#pragma once

namespace capstan::common::env {

/**
 * CAPSTAN_NO_FF=1 forces dense one-cycle stepping instead of the
 * fast-forward engine (docs/ARCHITECTURE.md, "Stepping engine").
 */
inline constexpr const char *kNoFastForward = "CAPSTAN_NO_FF";

} // namespace capstan::common::env
