// Umbrella header for the bots::rt task-parallel runtime.
#pragma once

#include "runtime/affinity.hpp"    // IWYU pragma: export
#include "runtime/config.hpp"      // IWYU pragma: export
#include "runtime/dependency.hpp"  // IWYU pragma: export
#include "runtime/deque.hpp"       // IWYU pragma: export
#include "runtime/fault.hpp"       // IWYU pragma: export
#include "runtime/taskgraph.hpp"   // IWYU pragma: export
#include "runtime/pathology.hpp"   // IWYU pragma: export
#include "runtime/region_ctx.hpp"  // IWYU pragma: export
#include "runtime/scheduler.hpp"   // IWYU pragma: export
#include "runtime/server.hpp"      // IWYU pragma: export
#include "runtime/stats.hpp"       // IWYU pragma: export
#include "runtime/steal_policy.hpp"  // IWYU pragma: export
#include "runtime/task.hpp"        // IWYU pragma: export
#include "runtime/topology.hpp"    // IWYU pragma: export
#include "runtime/trace.hpp"       // IWYU pragma: export
#include "runtime/worker_local.hpp"  // IWYU pragma: export
#include "runtime/worksharing.hpp"   // IWYU pragma: export
