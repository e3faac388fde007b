/**
 * @file
 * Paper-order application and dataset catalog of the study registry
 * (src/report/study.hpp). Table 12 orders the eleven applications;
 * each application evaluates the Table 6 datasets of its family.
 */

#pragma once

#include <string>
#include <vector>

#include "lang/timing.hpp"

namespace capstan::report {

/** The eleven application columns, in Table 12 order. */
const std::vector<std::string> &allApps();

/** Table 6 datasets evaluated for @p app (paper order). */
std::vector<std::string> datasetsFor(const std::string &app);

/**
 * The dataset Figure 5's per-app sensitivity series use: graph apps
 * substitute p2p-Gnutella31 for flickr (Section 4); every other app
 * uses the first dataset of its family.
 */
std::string sensitivityDataset(const std::string &app);

/** Geometric mean of positive values (non-positive entries skipped). */
double gmean(const std::vector<double> &values);

/** Seconds for a timing at the configuration's clock. */
double seconds(const lang::AppTiming &t);

} // namespace capstan::report

