// Env-pin parsing for the execution-policy and cache variables.  The
// memoized default_* getters can only be exercised once per process, so
// the tests target the parse functions they delegate to.
#include "core/result_cache.h"
#include "sram/sim_accuracy.h"
#include "sram/solver_policy.h"

#include <gtest/gtest.h>

#include <string>

#include "util/contracts.h"

namespace {

using namespace mpsram;

TEST(EnvPolicy, SimAccuracyParsesAcceptedTokens)
{
    EXPECT_EQ(sram::parse_sim_accuracy("fast"), sram::Sim_accuracy::fast);
    EXPECT_EQ(sram::parse_sim_accuracy("reference"),
              sram::Sim_accuracy::reference);
}

TEST(EnvPolicy, SimAccuracyRejectsUnknownToken)
{
    EXPECT_THROW(sram::parse_sim_accuracy("Fast"),
                 util::Precondition_error);
    EXPECT_THROW(sram::parse_sim_accuracy(""), util::Precondition_error);
    EXPECT_THROW(sram::parse_sim_accuracy("fastest"),
                 util::Precondition_error);
}

TEST(EnvPolicy, SimAccuracyErrorNamesValueAndAcceptedSet)
{
    try {
        sram::parse_sim_accuracy("refrence");
        FAIL() << "parse should have thrown";
    } catch (const util::Precondition_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("MPSRAM_SIM_ACCURACY"), std::string::npos)
            << what;
        EXPECT_NE(what.find("'refrence'"), std::string::npos) << what;
        EXPECT_NE(what.find("'reference'"), std::string::npos) << what;
        EXPECT_NE(what.find("'fast'"), std::string::npos) << what;
    }
}

TEST(EnvPolicy, SolverPolicyParsesAcceptedTokens)
{
    EXPECT_EQ(sram::parse_solver_policy("direct"),
              spice::Solver_policy::direct);
    EXPECT_EQ(sram::parse_solver_policy("bypass"),
              spice::Solver_policy::bypass);
}

TEST(EnvPolicy, SolverPolicyRejectsUnknownToken)
{
    EXPECT_THROW(sram::parse_solver_policy("Bypass"),
                 util::Precondition_error);
    EXPECT_THROW(sram::parse_solver_policy(""), util::Precondition_error);
    EXPECT_THROW(sram::parse_solver_policy("ilu"),
                 util::Precondition_error);
    // The retired iterative tier's token must not fall back to a
    // surviving tier.
    EXPECT_THROW(sram::parse_solver_policy("iterative"),
                 util::Precondition_error);
}

TEST(EnvPolicy, SolverPolicyErrorNamesValueAndAcceptedSet)
{
    try {
        sram::parse_solver_policy("bypas");
        FAIL() << "parse should have thrown";
    } catch (const util::Precondition_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("MPSRAM_SOLVER_POLICY"), std::string::npos)
            << what;
        EXPECT_NE(what.find("'bypas'"), std::string::npos) << what;
        EXPECT_NE(what.find("'direct'"), std::string::npos) << what;
        EXPECT_NE(what.find("'bypass'"), std::string::npos) << what;
        EXPECT_EQ(what.find("'iterative'"), std::string::npos) << what;
    }
}

TEST(EnvPolicy, CacheModeParsesAcceptedTokens)
{
    EXPECT_EQ(core::parse_cache_mode("off"), core::Cache_mode::off);
    EXPECT_EQ(core::parse_cache_mode("read"), core::Cache_mode::read);
    EXPECT_EQ(core::parse_cache_mode("readwrite"),
              core::Cache_mode::readwrite);
}

TEST(EnvPolicy, CacheModeRejectsUnknownToken)
{
    EXPECT_THROW(core::parse_cache_mode("Off"), util::Precondition_error);
    EXPECT_THROW(core::parse_cache_mode(""), util::Precondition_error);
    EXPECT_THROW(core::parse_cache_mode("write"),
                 util::Precondition_error);
    EXPECT_THROW(core::parse_cache_mode("rw"), util::Precondition_error);
}

TEST(EnvPolicy, CacheModeErrorNamesValueAndAcceptedSet)
{
    try {
        core::parse_cache_mode("readwrit");
        FAIL() << "parse should have thrown";
    } catch (const util::Precondition_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("MPSRAM_CACHE"), std::string::npos) << what;
        EXPECT_NE(what.find("'readwrit'"), std::string::npos) << what;
        EXPECT_NE(what.find("'off'"), std::string::npos) << what;
        EXPECT_NE(what.find("'read'"), std::string::npos) << what;
        EXPECT_NE(what.find("'readwrite'"), std::string::npos) << what;
    }
}

TEST(EnvPolicy, CacheDirAcceptsAnyNonEmptyPath)
{
    EXPECT_EQ(core::parse_cache_dir("/tmp/mpsram-cache"),
              "/tmp/mpsram-cache");
    EXPECT_EQ(core::parse_cache_dir("relative/dir"), "relative/dir");
}

TEST(EnvPolicy, CacheDirRejectsEmptyPinNamingTheVariable)
{
    // An empty pin is a configuration bug, not "no cache": disabling is
    // spelled by unsetting the variable (or MPSRAM_CACHE=off).
    try {
        core::parse_cache_dir("");
        FAIL() << "parse should have thrown";
    } catch (const util::Precondition_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("MPSRAM_CACHE_DIR"), std::string::npos)
            << what;
    }
}

TEST(EnvPolicy, CacheToStringRoundTripsThroughParse)
{
    for (const core::Cache_mode mode :
         {core::Cache_mode::off, core::Cache_mode::read,
          core::Cache_mode::readwrite}) {
        EXPECT_EQ(core::parse_cache_mode(core::to_string(mode)), mode);
    }
}

TEST(EnvPolicy, DefaultsAreUsableWithoutEnvPins)
{
    // The memoized getters must at minimum return a member of the enum
    // under the test environment (which sets neither variable or sets a
    // valid one — an invalid pin would abort every test, not just this).
    const sram::Sim_accuracy acc = sram::default_sim_accuracy();
    EXPECT_TRUE(acc == sram::Sim_accuracy::fast ||
                acc == sram::Sim_accuracy::reference);
    const spice::Solver_policy pol = sram::default_solver_policy();
    EXPECT_TRUE(pol == spice::Solver_policy::direct ||
                pol == spice::Solver_policy::bypass);
    const core::Cache_mode mode = core::default_cache_mode();
    EXPECT_TRUE(mode == core::Cache_mode::off ||
                mode == core::Cache_mode::read ||
                mode == core::Cache_mode::readwrite);
    // default_cache_dir() must not throw when the variable is unset.
    (void)core::default_cache_dir();
}

} // namespace
