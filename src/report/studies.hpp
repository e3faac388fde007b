/**
 * @file
 * Internal: the per-artifact study functions study.cpp registers.
 * Component-level studies (direct hardware-model stepping) live in
 * studies_components.cpp and derive without planned points;
 * application-level studies (driver simulations) live in
 * studies_perf.cpp as plan/derive pairs.
 */

#pragma once

#include <vector>

#include "report/study.hpp"

namespace capstan::report {

// studies_components.cpp
StudyResult deriveTable4(const StudyContext &ctx, const Timings &);
StudyResult deriveTable5(const StudyContext &ctx, const Timings &);
StudyResult deriveTable8(const StudyContext &ctx, const Timings &);
StudyResult deriveFig4(const StudyContext &ctx, const Timings &);
StudyResult deriveMicroComponents(const StudyContext &ctx,
                                  const Timings &);

// studies_perf.cpp
std::vector<driver::DriverOptions> planTable9(const StudyContext &ctx);
StudyResult deriveTable9(const StudyContext &ctx, const Timings &t);
std::vector<driver::DriverOptions> planTable10(const StudyContext &ctx);
StudyResult deriveTable10(const StudyContext &ctx, const Timings &t);
std::vector<driver::DriverOptions> planTable11(const StudyContext &ctx);
StudyResult deriveTable11(const StudyContext &ctx, const Timings &t);
std::vector<driver::DriverOptions> planTable12(const StudyContext &ctx);
StudyResult deriveTable12(const StudyContext &ctx, const Timings &t);
std::vector<driver::DriverOptions> planTable13(const StudyContext &ctx);
StudyResult deriveTable13(const StudyContext &ctx, const Timings &t);
std::vector<driver::DriverOptions> planFig5(const StudyContext &ctx);
StudyResult deriveFig5(const StudyContext &ctx, const Timings &t);
std::vector<driver::DriverOptions> planFig6(const StudyContext &ctx);
StudyResult deriveFig6(const StudyContext &ctx, const Timings &t);
std::vector<driver::DriverOptions> planFig7(const StudyContext &ctx);
StudyResult deriveFig7(const StudyContext &ctx, const Timings &t);

} // namespace capstan::report
