#include "tech/technology.h"

#include <gtest/gtest.h>

#include "tech/patterning_option.h"
#include "util/contracts.h"
#include "util/units.h"

namespace {

using namespace mpsram;
namespace units = mpsram::units;

TEST(PatterningOption, NamesMatchPaper)
{
    EXPECT_EQ(tech::to_string(tech::Patterning_option::le3), "LELELE");
    EXPECT_EQ(tech::to_string(tech::Patterning_option::sadp), "SADP");
    EXPECT_EQ(tech::to_string(tech::Patterning_option::euv), "EUV");
    EXPECT_EQ(tech::patterning_option_tokens.values.size(), 3u);
}

TEST(Materials, CopperSizeEffectRaisesResistivity)
{
    const tech::Conductor cu = tech::damascene_copper();
    const double rho_wide = cu.effective_resistivity(1.0 * units::um);
    const double rho_narrow = cu.effective_resistivity(20.0 * units::nm);
    EXPECT_GT(rho_narrow, rho_wide);
    // Near-bulk for wide lines.
    EXPECT_NEAR(rho_wide, cu.rho_bulk, 0.05 * cu.rho_bulk);
    // Roughly 2-4x bulk at 20 nm (published sub-30nm Cu data).
    EXPECT_GT(rho_narrow, 2.0 * cu.rho_bulk);
    EXPECT_LT(rho_narrow, 4.0 * cu.rho_bulk);
}

TEST(Materials, PermittivityScalesWithK)
{
    const tech::Dielectric ild = tech::low_k_ild();
    EXPECT_NEAR(ild.permittivity(), ild.k * units::eps0, 1e-22);
    EXPECT_GT(ild.k, 1.0);
    EXPECT_LT(ild.k, 4.0);  // low-k by definition
}

TEST(TechnologyN10, PaperVariabilityAssumptions)
{
    const tech::Technology t = tech::n10();
    // Section II-A, verbatim inputs.
    EXPECT_DOUBLE_EQ(t.variability.cd_3sigma, 3.0 * units::nm);
    EXPECT_DOUBLE_EQ(t.variability.sadp_spacer_3sigma, 1.5 * units::nm);
    EXPECT_DOUBLE_EQ(t.variability.le3_ol_3sigma, 8.0 * units::nm);
    EXPECT_DOUBLE_EQ(t.feol.vdd, 0.7);
    EXPECT_DOUBLE_EQ(t.feol.sense_margin, 0.07);
}

TEST(TechnologyN10, Metal1TrackPlanIsConsistent)
{
    const tech::Technology t = tech::n10();
    EXPECT_GT(t.metal1.pitch, t.metal1.nominal_width);
    EXPECT_GT(t.metal1.nominal_space(), 0.0);
    EXPECT_GT(t.metal1.thickness, 0.0);
    EXPECT_GE(t.metal1.taper_angle, 0.0);
    // DRC rules leave headroom around nominal.
    EXPECT_LT(t.metal1.drc.min_width, t.metal1.nominal_width);
    EXPECT_LT(t.metal1.drc.min_space, t.metal1.nominal_space());
}

TEST(TechnologyN10, SadpSpacerFillsThePeriod)
{
    const tech::Technology t = tech::n10();
    const double spacer = t.sadp_spacer_nominal();
    // One SADP period: mandrel + gap + 2 spacers == 2 pitches.
    EXPECT_NEAR(2.0 * t.metal1.nominal_width + 2.0 * spacer,
                2.0 * t.metal1.pitch, 1e-18);
    EXPECT_GT(spacer, 0.0);
}

TEST(TechnologyN10, Metal2CarriedForWordLines)
{
    const tech::Technology t = tech::n10();
    EXPECT_EQ(t.metal2.name, "metal2");
    EXPECT_GT(t.metal2.pitch, t.metal1.pitch);  // relaxed upper layer
}

TEST(TechnologyN10, CellGeometry)
{
    const tech::Technology t = tech::n10();
    EXPECT_EQ(t.cell.tracks_per_cell, 4);
    EXPECT_GT(t.cell.cell_length, 50.0 * units::nm);
    EXPECT_LT(t.cell.cell_length, 300.0 * units::nm);
}

TEST(TechnologyN10, DriveCurrentsAreNmosDominant)
{
    const tech::Technology t = tech::n10();
    EXPECT_GT(t.feol.nmos_ion, t.feol.pmos_ion);
    EXPECT_GT(t.feol.vth, 0.0);
    EXPECT_LT(t.feol.vth, t.feol.vdd);
}

TEST(Materials, EffectiveResistivityValidatesInput)
{
    const tech::Conductor cu = tech::damascene_copper();
    EXPECT_THROW(cu.effective_resistivity(0.0),
                 mpsram::util::Precondition_error);
}

} // namespace
