// The three benchmark workloads. Each fills `result` with every end-to-end
// metric (untraced run) or its per-layer metrics (traced run), records
// output-check failures on it, and sets attempted/failed.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

void RunPreqAgrawalDmt(const Options& options, Result* result);
void RunServeGlmWide(const Options& options, Result* result);
void RunServeDmtDurable(const Options& options, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
