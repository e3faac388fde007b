/**
 * @file
 * Helpers the paper studies (src/report/study.hpp) share: Figure 5's
 * per-app dataset, the geometric mean, and a timing in seconds. The
 * applications and their Table 6 datasets are the driver's
 * (driver::allApps, driver::datasetsFor).
 */

#pragma once

#include <string>
#include <vector>

#include "lang/timing.hpp"

namespace capstan::report {

/**
 * The dataset Figure 5's per-app sensitivity series use: graph apps
 * run workloads::sensitivityGraphDatasetName() (Section 4); every
 * other app uses the first dataset of its family.
 */
std::string sensitivityDataset(const std::string &app);

/** Geometric mean of positive values (non-positive entries skipped). */
double gmean(const std::vector<double> &values);

/** Seconds for a timing at the configuration's clock. */
double seconds(const lang::AppTiming &t);

} // namespace capstan::report
