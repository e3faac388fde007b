#include "report/catalog.hpp"

#include <cmath>

#include "driver/options.hpp"
#include "workloads/datasets.hpp"

namespace capstan::report {

std::string
sensitivityDataset(const std::string &app)
{
    std::vector<std::string> family = driver::datasetsFor(app);
    if (family == workloads::graphDatasetNames())
        return workloads::sensitivityGraphDatasetName();
    return family.front();
}

double
gmean(const std::vector<double> &values)
{
    double log_sum = 0;
    int n = 0;
    for (double v : values) {
        if (v > 0) {
            log_sum += std::log(v);
            ++n;
        }
    }
    return n == 0 ? 0.0 : std::exp(log_sum / n);
}

double
seconds(const lang::AppTiming &t)
{
    return t.runtime_ms / 1000.0;
}

} // namespace capstan::report
