/**
 * @file
 * Timing outcome of one application run.
 *
 * Every Table 2 application drives a `lang::Machine` and snapshots the
 * same four stat groups when the run finishes; `AppTiming` is that
 * snapshot. It lives in `lang/` — not `apps/` — because it depends
 * only on the Machine and the hardware-model stats, and the report
 * layer consumes it without knowing any application exists
 * (`tools/lint/layers.json` keeps `report` off the `apps` layer).
 */

#pragma once

#include "lang/machine.hpp"
#include "sim/config.hpp"
#include "sim/dram.hpp"
#include "sim/spmu.hpp"

namespace capstan::lang {

/** Timing outcome of one application run. */
struct AppTiming
{
    sim::Cycle cycles = 0;         //!< Total simulated cycles.
    RunTotals totals;              //!< Stall-statistic inputs (Fig. 7).
    sim::DramStats dram;           //!< Off-chip traffic.
    sim::SpmuStats spmu;           //!< On-chip memory behaviour.
    double runtime_ms = 0;         //!< cycles / clock.

    /** The stats of @p m's finished run. */
    static AppTiming snapshot(Machine &m)
    {
        AppTiming t;
        t.cycles = m.totals().cycles;
        t.totals = m.totals();
        t.dram = m.dram().stats();
        t.spmu = m.spmuTotals();
        t.runtime_ms = static_cast<double>(t.cycles) /
                       (sim::kClockGhz * 1e6);
        return t;
    }
};

} // namespace capstan::lang
