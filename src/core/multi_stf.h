// Former name of the batch planner, kept only because the repair
// benchmark (repairbench/) still names it. FastPrPlanner plans every
// batch size; delete this header once the benchmark names FastPrPlanner.
#pragma once

#include "core/fastpr.h"

namespace fastpr::core {

using MultiStfPlanner = FastPrPlanner;

}  // namespace fastpr::core
