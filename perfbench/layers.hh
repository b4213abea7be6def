/**
 * @file
 * Per-layer measurements of the traced run. Each number times a call
 * into a public function of the library from outside: serial (load,
 * stage, apply, refuse), the serve planner and PlanExecutor, every
 * quantized plan step's forwardServe / eval forward, the int kernel
 * qgemm16 on the step's packed panel, and the simulator's LayerPerf
 * cycles for the step's LayerSpec.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "fixtures.hh"
#include "traffic.hh"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

/** serial.*: load / stage / apply / refuse times and artifact size. */
void measureSerial(ModelKind k, const Artifacts& art, Tracer& tracer,
                   Metrics& out);

/**
 * plan.* and exec.*: planner and executor set-up costs, standalone
 * PlanExecutor::run at batch 1, 4 and 16, and how much of a run the
 * per-step rows cover. Returns exec.run_us.b1.
 */
double measurePlanExec(ModelKind k, const Artifacts& art,
                       const Pool& pool, size_t maxBatch,
                       Tracer& tracer, Metrics& out);

/**
 * <model>.<step>.*: per quantized plan step, forwardServe at batch 1
 * and 16, eval forward at 16, qgemm16 at one item's m, GOP/s at 16
 * and simulated cycles. With @p coverage, also exec.step_coverage.*:
 * the per-step rows summed over a whole PlanExecutor::run.
 */
void measureSteps(ModelKind k, const Artifacts& art, const Pool& pool,
                  Tracer& tracer, Metrics& out, bool coverage);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
