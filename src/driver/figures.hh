/**
 * @file
 * The paper's tables, figures and ablations as one registry. Each
 * Figure adds its grids to a RunPlan that already carries the input
 * scales, budgets and machine configuration (`vrsim --figure NAME`
 * builds that plan from its ordinary flags), and renders the finished
 * ResultTable as text. The committed outputs in experiments/ and the
 * smoke-scale fixtures in tests/driver/golden/figures/ pin every
 * figure's bytes.
 */

#ifndef VRSIM_DRIVER_FIGURES_HH
#define VRSIM_DRIVER_FIGURES_HH

#include <ostream>
#include <string>
#include <vector>

#include "driver/plan.hh"

namespace vrsim
{

struct Figure
{
    /** `vrsim --figure NAME`; also the ctest name bench_smoke_NAME. */
    std::string name;
    /** Printed in the header above the figure. */
    std::string title;
    /** Add the figure's grids to a plan that has none yet. */
    void (*plan)(RunPlan &plan);
    /**
     * Print the figure from the sweep of @p plan. The plan supplies
     * the input scales and base configuration for the columns that
     * need no simulation (Table 2's graph shapes, Fig. 7's budget).
     */
    void (*render)(std::ostream &os, const RunPlan &plan,
                   const ResultTable &table);
};

/** Every figure, in the order `vrsim --figure all` runs them. */
const std::vector<Figure> &figures();

/** The figure called @p name; fatal, listing the valid names, if none. */
const Figure &findFigure(const std::string &name);

/** The title, inputs and configuration lines above every figure. */
void printFigureHeader(std::ostream &os, const Figure &fig,
                       const RunPlan &plan);

} // namespace vrsim

#endif // VRSIM_DRIVER_FIGURES_HH
