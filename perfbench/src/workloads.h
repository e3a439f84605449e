// The three benchmark workloads. Each reads its edge file, sets up,
// measures for RunConfig::seconds, checks its outputs outside the timed
// phase and prints a Report. Returns the process exit code.
#ifndef FLOWBENCH_WORKLOADS_H_
#define FLOWBENCH_WORKLOADS_H_

#include "common.h"

namespace flowbench {

int RunServeMixed(const RunConfig& config);
int RunLiveIngest(const RunConfig& config);
int RunBatchStudy(const RunConfig& config);

}  // namespace flowbench

#endif  // FLOWBENCH_WORKLOADS_H_
